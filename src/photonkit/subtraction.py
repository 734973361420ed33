"""Conditional photon subtraction on a weakly reflecting beam splitter.

A beam splitter with reflection probability ``p`` diverts each photon
independently; conditioning on exactly one detected reflection removes
one photon and *tilts* the number distribution toward larger k.  In the
ideal limit p -> 0 the surviving state has PGF G1(z) = G'(z) / mu, and
the compound-Poisson family closes under the operation:

    a -> a + 1,  mu -> mu * (a + 1) / a.

At finite p the exact conditional PGF is G'(z (1 - p)) / G'(1 - p),
which again stays inside the family with

    a -> a + 1,  mu -> (a + 1)(1 - p)(mu / a) / (1 + mu p / a),

reducing to the ideal map as p -> 0 with O(p) error.  The factorial
moments of the original state are recovered from the chain of measured
means, mu g^(m+1) = mu_m g^(m) [...], giving
g^(m) = (mu_1 ... mu_{m-1}) / mu^{m-1}.

Only this module walks a subtraction chain (``_chain``) or applies the
herald rule "exactly one of k photons reflects": per draw, per histogram
and as the chain's survival probability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    DomainError,
    ImpossibleSubtractionError,
    OrderRangeError,
    UnsupportedModelError,
)
from .photon_stats import (
    MAX_ORDER,
    CorrelationReport,
    ModelKind,
    PhotonModel,
    autocorrelation,
    pgf_derivative,
    pmf_values,
)


@dataclass(frozen=True)
class SubtractionRecord:
    """Outcome of subtracting ``m`` photons from ``initial``.

    ``p`` is the beam-splitter reflection probability; ``None`` marks
    the ideal p -> 0 limit.  ``step_means`` holds the mean photon number
    after each subtraction, ``mc_acceptance`` the per-pass acceptance
    rates when the record comes from a Monte-Carlo chain.
    """

    initial: PhotonModel
    m: int
    p: float | None
    step_means: tuple[float, ...]
    result: PhotonModel
    mc_acceptance: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.m != int(self.m) or self.m < 1:
            raise DomainError(f"subtraction count must be a positive integer, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if self.p is not None and not (0.0 < self.p < 1.0):
            raise DomainError(f"reflection probability must lie in (0, 1), got {self.p}")
        if len(self.step_means) != self.m:
            raise DomainError("need one step mean per subtracted photon")

    def to_dict(self) -> dict:
        return {
            "initial": self.initial.to_dict(),
            "m": self.m,
            "p": self.p,
            "step_means": list(self.step_means),
            "result": self.result.to_dict(),
            "mc_acceptance": None if self.mc_acceptance is None else list(self.mc_acceptance),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SubtractionRecord":
        allowed = {"initial", "m", "p", "step_means", "result", "mc_acceptance"}
        unknown = set(data) - allowed
        if unknown:
            raise DomainError(f"unknown subtraction record fields: {sorted(unknown)}")
        acc = data.get("mc_acceptance")
        return cls(
            initial=PhotonModel.from_dict(data["initial"]),
            m=data["m"],
            p=data.get("p"),
            step_means=tuple(data["step_means"]),
            result=PhotonModel.from_dict(data["result"]),
            mc_acceptance=None if acc is None else tuple(acc),
        )


def _check_closes(model: PhotonModel) -> None:
    """Raise unless one more subtraction leaves a state inside the family."""
    if model.kind is ModelKind.HIERARCHY:
        raise UnsupportedModelError("hierarchy models do not close under subtraction")
    if model.kind is ModelKind.BINOMIAL_FOCK and model.n == 1:
        raise ImpossibleSubtractionError(
            "subtracting from a single-mode binomial state leaves vacuum, "
            "which is outside the model family"
        )


def _one_step_ideal(model: PhotonModel) -> PhotonModel:
    """Ideal single subtraction G -> G' / mu; binomial light keeps theta = mu / n."""
    _check_closes(model)
    if model.kind is ModelKind.POISSON:
        return model
    if model.kind is ModelKind.BINOMIAL_FOCK:
        n = model.n
        return PhotonModel.binomial_fock(n - 1, (n - 1) * (model.mu / n))
    a, mu = model.a, model.mu
    return PhotonModel(model.kind, mu * (a + 1.0) / a, a=a + 1.0)


def _chain(model: PhotonModel, p: float | None = None):
    """Yield ``model``, then the state after each subtraction (ideal when p is None)."""
    while True:
        yield model
        model = _one_step_ideal(model) if p is None else subtract_finite_p(model, p)


def _subtract(model: PhotonModel, m: int, p: float | None = None) -> SubtractionRecord:
    """Record of ``m`` heralded subtractions from ``model`` at ``p``."""
    if m != int(m) or m < 1:
        raise DomainError(f"subtraction count must be a positive integer, got {m}")
    m = int(m)
    if model.kind is ModelKind.BINOMIAL_FOCK and m >= model.n:
        raise ImpossibleSubtractionError(
            f"a binomial state with n = {model.n} admits at most {model.n - 1} "
            f"subtractions, got m = {m}"
        )
    states = tuple(islice(_chain(model, p), 1, m + 1))
    return SubtractionRecord(model, m, p, tuple(s.mu for s in states), states[-1])


def subtract_analytic(model: PhotonModel, m: int) -> SubtractionRecord:
    """Subtract ``m`` photons in the ideal p -> 0 limit.

    Each step maps (mu, a) -> (mu (a + 1) / a, a + 1); Poisson light is
    left unchanged, and binomial light (n, theta = mu / n) -> (n - 1, theta)
    admits at most n - 1 steps.  Hierarchy models are rejected.
    """
    return _subtract(model, m)


def subtract_finite_p(model: PhotonModel, p: float) -> PhotonModel:
    """Single subtraction at finite reflection probability ``p``.

    Returns the model whose PGF is G'(z (1 - p)) / G'(1 - p); the
    compound-Poisson family (and its Poisson and binomial limits) close
    under this map.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"reflection probability must lie in (0, 1), got {p}")
    _check_closes(model)
    if model.kind is ModelKind.POISSON:
        return PhotonModel.poisson(model.mu * (1.0 - p))
    if model.kind is ModelKind.BINOMIAL_FOCK:
        n = model.n
        theta = model.mu / n
        theta_new = theta * (1.0 - p) / (1.0 - theta * p)
        return PhotonModel.binomial_fock(n - 1, (n - 1) * theta_new)
    mu, a = model.mu, model.a
    mu_new = (a + 1.0) * (1.0 - p) * (mu / a) / (1.0 + mu * p / a)
    return PhotonModel.compound_poisson(mu_new, a + 1.0)


def mc_subtract(samples, p: float, rng) -> tuple[np.ndarray, float]:
    """Monte-Carlo single subtraction on an array of photon counts.

    Each photon reflects independently with probability ``p``; a trial
    survives when exactly one photon is detected in the reflected arm,
    and the survivor keeps k - 1 photons.  Returns the surviving counts
    and the acceptance rate (kept / total).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"reflection probability must lie in (0, 1), got {p}")
    counts = np.asarray(samples)
    if counts.size == 0:
        warnings.warn("mc_subtract received an empty pool", RuntimeWarning, stacklevel=2)
        return np.empty(0, dtype=np.int64), 0.0
    if counts.ndim != 1:
        raise DomainError("photon counts must form a 1-D array")
    if not np.issubdtype(counts.dtype, np.integer):
        raise DomainError("photon counts must be integers")
    if counts.min() < 0:
        raise DomainError("photon counts must be nonnegative")
    reflected = rng.binomial(counts, p)
    kept = reflected == 1
    surviving = counts[kept] - 1
    return surviving.astype(np.int64), float(kept.sum() / counts.size)


def _mc_survivor_hist(
    model: PhotonModel, m: int, pool: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Photon-number histogram of the ``pool`` source draws surviving m passes."""
    probs = pmf_values(model)
    hist = rng.multinomial(pool, probs / probs.sum())
    k = np.arange(hist.size)
    herald = k * p * (1.0 - p) ** (k - 1.0)  # exactly one of k photons reflects
    for _ in range(m):
        hist = rng.binomial(hist, herald[: hist.size])[1:]
    return hist


def _chain_acceptance(model: PhotonModel, m: int, p: float) -> float:
    """Probability that one source draw survives m conditioning steps."""
    acceptance = 1.0
    for state in islice(_chain(model, p), m):
        acceptance *= p * pgf_derivative(state, 1, 1.0 - p)
    return acceptance


def autocorr_from_means(
    mu0: float,
    step_means,
    sigma_mu0: float = 0.0,
    step_sigmas=None,
) -> CorrelationReport:
    """Autocorrelations from the mean photon numbers along a subtraction chain.

    Given the initial mean and the means after 1..m-1 ideal subtractions,
    g^(m) = (mu_1 * ... * mu_{m-1}) / mu0^(m-1), evaluated in log space.
    Uncertainties propagate to ln g^(m) at first order:
    sigma^2 = sum_i (sigma_i / mu_i)^2 + (m - 1)^2 (sigma_0 / mu0)^2.
    """
    mu0 = float(mu0)
    means = [float(v) for v in step_means]
    if mu0 <= 0.0 or any(v <= 0.0 for v in means):
        raise DomainError("all means along the chain must be positive")
    if step_sigmas is None:
        sigmas = [0.0] * len(means)
    else:
        sigmas = [float(s) for s in step_sigmas]
        if len(sigmas) != len(means):
            raise DomainError("need one uncertainty per step mean")
    if sigma_mu0 < 0.0 or any(s < 0.0 for s in sigmas):
        raise DomainError("uncertainties must be nonnegative")

    log_mu0 = math.log(mu0)
    rel0_sq = (sigma_mu0 / mu0) ** 2
    orders, gs, log_gs, sig_log = [], [], [], []
    log_g = 0.0
    var_steps = 0.0
    for j, (mean, sig) in enumerate(zip(means, sigmas), start=1):
        log_g += math.log(mean) - log_mu0
        var_steps += (sig / mean) ** 2
        order = j + 1
        orders.append(order)
        log_gs.append(log_g)
        gs.append(math.exp(log_g))
        sig_log.append(math.sqrt(var_steps + j * j * rel0_sq))
    return CorrelationReport(
        orders=tuple(orders),
        g_values=tuple(gs),
        log_g_values=tuple(log_gs),
        sigma_log_g=tuple(sig_log),
    )


def conditional_autocorr(model: PhotonModel, m: int, n: int) -> float:
    """Autocorrelation g^(n) of the state left after ``m`` ideal subtractions.

    Equal to g^(m+n) (g^(m))^(n-1) / (g^(m+1))^n in the original state's
    autocorrelations, and evaluated as the direct autocorrelation of
    ``subtract_analytic(model, m).result``: (a + m)_n / (a + m)^n for the
    compound-Poisson family, 1 for Poisson light.  Binomial states with
    n modes admit m < n subtractions.  Hierarchy models do not close under
    subtraction and raise :class:`UnsupportedModelError` for m >= 1;
    m + n above ``MAX_ORDER`` raises :class:`OrderRangeError`.
    """
    if m != int(m) or m < 0:
        raise DomainError(f"subtraction count must be a nonnegative integer, got {m}")
    if n != int(n) or n < 2:
        raise DomainError(f"autocorrelation order must be an integer >= 2, got {n}")
    m, n = int(m), int(n)
    if m + n > MAX_ORDER:
        raise OrderRangeError(
            f"needs g^({m + n}), above the supported maximum order {MAX_ORDER}"
        )
    state = model if m == 0 else subtract_analytic(model, m).result
    return autocorrelation(state, n)
