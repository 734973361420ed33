"""Photon-number statistics driven by probability generating functions.

The central object is :class:`PhotonModel`, a small immutable value
describing a photon-number distribution through its probability
generating function (PGF) G(z) = sum_k P(k) z^k.  Four kinds are
supported:

``compound_poisson``
    Gamma-mixed Poisson light with mean ``mu`` and clusterization
    parameter ``a > 0``; G(z) = (1 + mu (1 - z) / a)^(-a).  The number
    distribution is negative binomial; ``a = 1`` is thermal light and
    ``a -> inf`` approaches Poissonian light.
``poisson``
    Coherent light, G(z) = exp(-mu (1 - z)).
``binomial_fock``
    The analytic continuation of the compound-Poisson family to
    negative integer ``a = -n``: a binomial number distribution over
    ``n`` modes with success probability ``mu / n`` (sub-Poissonian,
    Fock-like light; ``mu = n`` is the n-photon Fock state).
``hierarchy``
    Nested compound-Poisson light G_r(z) = exp(-mu L_r) with
    L_0 = 1 - z and L_{j+1} = b_{j+1} ln(1 + L_j / b_{j+1}); the
    cluster parameters are a_j = mu * b_j.  With a single level this
    coincides with ``compound_poisson`` at a = mu * b_1.

All number distributions here are classical mixtures over Fock states,
so every operation reduces to PGF manipulation: probabilities are
Taylor coefficients at z = 0, factorial moments are derivatives at
z = 1, and normalized autocorrelation functions are
g^(m) = G^(m)(1) / mu^m.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from ._series import series_exp, series_log
from .errors import (
    DomainError,
    OrderRangeError,
    TruncationError,
)

#: Tail mass excluded when the Fock space is truncated.
TAIL_MASS = 1e-10

#: Hard ceiling on the truncated Fock dimension.
MAX_FOCK_CUTOFF = 4096

#: The geometric bound on the uncomputed tail must fall this far below
#: ``TAIL_MASS`` before the cutoff is read off the computed tail.
_TAIL_SLACK = 1e-6

#: Largest supported autocorrelation order.
MAX_ORDER = 20


class ModelKind(str, Enum):
    COMPOUND_POISSON = "compound_poisson"
    POISSON = "poisson"
    BINOMIAL_FOCK = "binomial_fock"
    HIERARCHY = "hierarchy"


@dataclass(frozen=True)
class PhotonModel:
    """Immutable photon-number distribution.

    Use the classmethod constructors (:meth:`compound_poisson`,
    :meth:`poisson`, :meth:`binomial_fock`, :meth:`hierarchy`) rather
    than spelling out the fields.  ``a`` is only set for the
    compound-Poisson family (negative integer for ``binomial_fock``),
    ``levels`` holds the hierarchy scale parameters b_j.
    """

    kind: ModelKind
    mu: float
    a: float | None = None
    levels: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "mu", float(self.mu))
        if not math.isfinite(self.mu) or self.mu <= 0.0:
            raise DomainError(f"mean photon number must be positive, got {self.mu}")
        if self.kind is ModelKind.COMPOUND_POISSON:
            if self.a is None:
                raise DomainError("compound_poisson requires a clusterization parameter a")
            object.__setattr__(self, "a", float(self.a))
            if not math.isfinite(self.a) or self.a <= 0.0:
                raise DomainError(f"clusterization parameter a must be positive, got {self.a}")
            if self.levels is not None:
                raise DomainError("levels is only meaningful for hierarchy models")
        elif self.kind is ModelKind.POISSON:
            if self.a is not None or self.levels is not None:
                raise DomainError("poisson models take no extra parameters")
        elif self.kind is ModelKind.BINOMIAL_FOCK:
            if self.a is None:
                raise DomainError("binomial_fock requires a = -n")
            object.__setattr__(self, "a", float(self.a))
            if self.a >= 0.0 or self.a != round(self.a):
                raise DomainError(
                    f"binomial_fock requires a negative integer a = -n, got {self.a}"
                )
            if self.levels is not None:
                raise DomainError("levels is only meaningful for hierarchy models")
            if -self.a > 2**53:
                raise DomainError(f"binomial_fock requires n <= 2**53, got {-self.a:g}")
            if self.mu > -self.a:
                raise DomainError(
                    f"binomial_fock requires mu <= n, got mu={self.mu}, n={-self.a:g}"
                )
        elif self.kind is ModelKind.HIERARCHY:
            if self.levels is None or len(self.levels) == 0:
                raise DomainError("hierarchy requires at least one level parameter")
            if self.a is not None:
                raise DomainError("hierarchy models use levels, not a")
            lv = tuple(float(b) for b in self.levels)
            if any(not math.isfinite(b) or b <= 0.0 for b in lv):
                raise DomainError(f"hierarchy level parameters must be positive, got {lv}")
            object.__setattr__(self, "levels", lv)

    # -- constructors ------------------------------------------------

    @classmethod
    def compound_poisson(cls, mu: float, a: float) -> "PhotonModel":
        return cls(ModelKind.COMPOUND_POISSON, mu, a=a)

    @classmethod
    def poisson(cls, mu: float) -> "PhotonModel":
        return cls(ModelKind.POISSON, mu)

    @classmethod
    def binomial_fock(cls, n: int, mu: float) -> "PhotonModel":
        if n != int(n) or n < 1:
            raise DomainError(f"binomial_fock requires a positive integer n, got {n}")
        if int(n) > 2**53:  # a = -float(n) would round, e.g. 2**53 + 1 to 2**53
            raise DomainError(f"binomial_fock requires n <= 2**53, got {int(n)}")
        return cls(ModelKind.BINOMIAL_FOCK, mu, a=-int(n))

    @classmethod
    def hierarchy(cls, mu: float, levels) -> "PhotonModel":
        return cls(ModelKind.HIERARCHY, mu, levels=tuple(levels))

    # -- convenience -------------------------------------------------

    @property
    def n(self) -> int:
        """Mode number n for ``binomial_fock`` models."""
        if self.kind is not ModelKind.BINOMIAL_FOCK:
            raise DomainError("n is only defined for binomial_fock models")
        return int(-self.a)

    @property
    def cluster_parameters(self) -> tuple[float, ...]:
        """Per-level a_j = mu * b_j for ``hierarchy`` models."""
        if self.kind is not ModelKind.HIERARCHY:
            raise DomainError("cluster_parameters is only defined for hierarchy models")
        return tuple(self.mu * b for b in self.levels)

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value, "mu": self.mu}
        if self.a is not None:
            out["a"] = self.a
        if self.levels is not None:
            out["levels"] = list(self.levels)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PhotonModel":
        if not isinstance(data, dict):
            raise DomainError("photon model JSON must be an object")
        allowed = {"kind", "mu", "a", "levels"}
        unknown = set(data) - allowed
        if unknown:
            raise DomainError(f"unknown photon model fields: {sorted(unknown)}")
        if "kind" not in data or "mu" not in data:
            raise DomainError("photon model JSON requires 'kind' and 'mu'")
        try:
            kind = ModelKind(data["kind"])
        except ValueError:
            raise DomainError(f"unknown model kind {data['kind']!r}") from None
        levels = data.get("levels")
        if levels is not None:
            levels = tuple(levels)
        return cls(kind, data["mu"], a=data.get("a"), levels=levels)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PhotonModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed photon model JSON: {exc}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class CorrelationReport:
    """Normalized autocorrelation values g^(m) for a range of orders."""

    orders: tuple[int, ...]
    g_values: tuple[float, ...]
    log_g_values: tuple[float, ...]
    sigma_log_g: tuple[float, ...]

    def __post_init__(self):
        sizes = {len(self.orders), len(self.g_values), len(self.log_g_values),
                 len(self.sigma_log_g)}
        if sizes != {len(self.orders)}:
            raise DomainError("correlation report fields must have equal length")
        if any(g <= 0.0 for g in self.g_values):
            raise DomainError("autocorrelation values must be positive")

    def to_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "g_values": list(self.g_values),
            "log_g_values": list(self.log_g_values),
            "sigma_log_g": list(self.sigma_log_g),
        }


# ---------------------------------------------------------------------------
# internal helpers


def _shape(model: PhotonModel) -> float:
    """Shape c = 1/a of a closed-form kind: 0 for Poisson, -1/n for binomial Fock."""
    return 0.0 if model.kind is ModelKind.POISSON else 1.0 / model.a


def _closed_form_pmf(model: PhotonModel, count: int) -> np.ndarray:
    """P(0), ..., P(count - 1) for the closed-form kinds.

    In the shape c the three kinds share ln P(0) = -ln(1 + mu c) / c
    (-mu at c = 0) and P(j + 1) / P(j) = (1 + j c) mu / ((j + 1)(1 + mu c)),
    so the whole vector is one cumulative sum of log-ratios, exponentiated
    once.  Binomial entries past n are 0.
    """
    mu, c = model.mu, _shape(model)
    if c < 0.0 and (mu == model.n or mu * c <= -1.0):
        # Pure Fock state: 1 + mu c = 0 (up to rounding), a point mass at n.
        return (np.arange(count) == model.n).astype(float)
    size = count if c >= 0.0 else min(count, model.n + 1)
    j = np.arange(size - 1, dtype=float)
    if c < 0.0:
        # 1 + mu c = (n - mu) / n: exact subtraction for mu >= n / 2, where
        # forming it from c = fl(-1/n) would cancel away the digits.
        n = model.n
        log_base, log_steps = math.log((n - mu) / n), np.log((n - j) / n)
    else:
        log_base, log_steps = math.log1p(mu * c), np.log1p(j * c)
    logs = np.full(count, -np.inf)
    logs[0] = -mu if c == 0.0 else -log_base / c
    logs[1:size] = log_steps + math.log(mu) - np.log1p(j) - log_base
    np.cumsum(logs[:size], out=logs[:size])
    return np.exp(logs)


def _closed_form_pass(model: PhotonModel) -> tuple[np.ndarray, int]:
    """Number distribution of a closed-form kind and its Fock cutoff.

    The tail P(X > k) is a reverse cumulative sum of the computed
    probabilities plus a geometric bound P(K) q / (1 - q) on the mass past
    the last index K, where q = max(P(K + 1) / P(K), mu c / (1 + mu c))
    bounds every later ratio (the ratio is monotone in j with that
    limit).  The length doubles until the bound is negligible against
    ``TAIL_MASS`` or the mass past the ceiling alone reaches it.
    """
    if model.kind is ModelKind.BINOMIAL_FOCK:
        if model.n > MAX_FOCK_CUTOFF:
            raise TruncationError(
                f"binomial Fock cutoff n={model.n} exceeds the ceiling {MAX_FOCK_CUTOFF}"
            )
        return _closed_form_pmf(model, model.n + 1), model.n
    mu, c = model.mu, _shape(model)
    muc = mu * c
    decay = muc / (1.0 + muc)
    if not decay < 1.0:
        # The tail ratio rounds to 1, so no geometric bound can certify a cutoff.
        raise TruncationError(f"Fock cutoff of mu={mu:g}, c={c:g} cannot be bounded")
    spread = mu + 12.0 * math.sqrt(mu * (1.0 + muc))
    if muc > 0.0:
        # Room for a geometric tail of ratio mu c / (1 + mu c) to fall by e^-37.
        spread = max(spread, 37.0 / math.log1p(1.0 / muc))
    # Clamped before int(): the spread may overflow to inf.
    length = min(int(min(spread, 2 * MAX_FOCK_CUTOFF)) + 24, 2 * MAX_FOCK_CUTOFF + 2)
    while True:
        probs = _closed_form_pmf(model, length)
        ratio = (1.0 + (length - 1) * c) * mu / (length * (1.0 + muc))
        q = max(ratio, decay)
        rest = probs[-1] * q / (1.0 - q) if q < 1.0 else math.inf
        if (
            rest < _TAIL_SLACK * TAIL_MASS
            or probs[MAX_FOCK_CUTOFF + 1:].sum() >= TAIL_MASS
            or length > 2 * MAX_FOCK_CUTOFF
        ):
            break
        length *= 2
    tail = np.cumsum(np.append(rest, probs[:0:-1]))[::-1]
    k = int(np.argmax(tail < TAIL_MASS))
    if not tail[k] < TAIL_MASS or k > MAX_FOCK_CUTOFF:
        raise TruncationError(
            f"Fock cutoff exceeds the ceiling {MAX_FOCK_CUTOFF} for mu={mu:g}"
        )
    return probs, k


@lru_cache(maxsize=256)
def _hierarchy_taylor(model: PhotonModel, count: int, center: float) -> np.ndarray:
    """First ``count`` Taylor coefficients of the hierarchy PGF about ``center``.

    Built by composing the level maps on truncated power series; exact
    at the working order up to float rounding.  A composition that
    overflows, as it does once 1/b passes the double range, raises
    :class:`OrderRangeError` instead of returning inf or nan.
    """
    c = np.zeros(count)
    c[0] = 1.0 - center
    if count > 1:
        c[1] = -1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for b in model.levels:
            base = c / b
            base[0] += 1.0
            c = b * series_log(base)
        coeffs = series_exp(-model.mu * c)
    if not np.all(np.isfinite(coeffs)):
        raise OrderRangeError("the hierarchy series composition overflows double precision")
    coeffs.setflags(write=False)
    return coeffs


def _hierarchy_pgf_at(model: PhotonModel, z: float) -> float:
    """Hierarchy PGF at real z; +inf outside the radius of convergence."""
    length = 1.0 - z
    for b in model.levels:
        ratio = length / b
        if ratio <= -1.0:
            return math.inf
        length = b * math.log1p(ratio)
    try:
        return math.exp(-model.mu * length)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=1024)
def _hierarchy_cutoff(model: PhotonModel) -> int:
    """Smallest k (bounded) with tail mass P(X > k) below TAIL_MASS.

    Partial sums of the extracted series cannot resolve 1e-10 tails:
    rounding in the O(k^2) composition recurrences saturates the
    computed mass near that level.  A Chernoff bound on the PGF itself,
    P(X > K) <= G(z) / z^(K+1) for z > 1, needs no cancellation; the
    tightest K over a small grid of z inside the radius of convergence
    is returned (a modest overestimate of the minimal cutoff).
    """
    log_tail = math.log(TAIL_MASS)
    best = None
    for t in (0.5, 0.25, 0.125, 0.0625, 0.03125):
        g = _hierarchy_pgf_at(model, 1.0 + t)
        if not math.isfinite(g):
            continue
        k = math.ceil((math.log(g) - log_tail) / math.log1p(t))
        if best is None or k < best:
            best = k
    if best is None or best > MAX_FOCK_CUTOFF:
        raise TruncationError(
            f"hierarchy Fock cutoff exceeds the ceiling {MAX_FOCK_CUTOFF}"
        )
    return max(int(best), 1)


def _rising_ratio(a: float, m: int) -> float:
    """(a)_m / a^m as an exact product of ratios (a + i) / a.

    At a = -n this is the binomial product prod (n - i) / n, which is 0
    past n; adding 0.0 turns the -0.0 a negative factor can leave into 0.0.
    """
    out = 1.0
    for i in range(m):
        out *= (a + i) / a
    return out + 0.0


def _mandel_q(model: PhotonModel) -> float:
    """Mandel Q = var / mu - 1 = mu * sum_j 1 / a_j.

    mu / a for compound light and its binomial continuation a = -n, 0 for
    Poisson light and sum_j 1 / b_j for a hierarchy (a_j = mu b_j).
    """
    if model.kind is ModelKind.POISSON:
        return 0.0
    if model.kind is ModelKind.HIERARCHY:
        return sum(1.0 / b for b in model.levels)
    return model.mu / model.a


# ---------------------------------------------------------------------------
# operations


def fock_cutoff(model: PhotonModel) -> int:
    """Smallest k whose excluded tail mass P(X > k) is below ``TAIL_MASS``.

    Raises :class:`TruncationError` when no such k exists under the
    ceiling ``MAX_FOCK_CUTOFF``.
    """
    if model.kind is ModelKind.HIERARCHY:
        return _hierarchy_cutoff(model)
    return _closed_form_pass(model)[1]


def pmf_values(model: PhotonModel, count: int | None = None) -> np.ndarray:
    """Number distribution P(0), ..., P(count - 1).

    With ``count`` omitted the truncation rule chooses the length so the
    excluded tail is below ``TAIL_MASS``.
    """
    if count is None:
        if model.kind is not ModelKind.HIERARCHY:
            probs, cutoff = _closed_form_pass(model)
            return probs[: cutoff + 1]
        count = fock_cutoff(model) + 1
    if count < 1:
        raise DomainError("count must be positive")
    if model.kind is ModelKind.HIERARCHY:
        if count > MAX_FOCK_CUTOFF + 1:
            raise TruncationError(
                f"requested {count} coefficients, ceiling is {MAX_FOCK_CUTOFF + 1}"
            )
        coeffs = _hierarchy_taylor(model, count, 0.0)
        # Rounding can leave coefficients a hair below zero deep in the tail.
        return np.clip(coeffs, 0.0, None)
    return _closed_form_pmf(model, count)


def pmf(model: PhotonModel, k: int) -> float:
    """Probability of observing exactly ``k`` photons."""
    if k != int(k) or k < 0:
        raise DomainError(f"photon number must be a nonnegative integer, got {k}")
    return float(pmf_values(model, int(k) + 1)[-1])


def pgf_eval(model: PhotonModel, z: float) -> float:
    """Probability generating function G(z) on the real interval [-1, 1]."""
    z = float(z)
    if not math.isfinite(z) or abs(z) > 1.0:
        raise DomainError(f"PGF argument must satisfy |z| <= 1, got {z}")
    if model.kind is ModelKind.COMPOUND_POISSON:
        return math.exp(-model.a * math.log1p(model.mu * (1.0 - z) / model.a))
    if model.kind is ModelKind.POISSON:
        return math.exp(-model.mu * (1.0 - z))
    if model.kind is ModelKind.BINOMIAL_FOCK:
        theta = model.mu / model.n
        return (1.0 - theta * (1.0 - z)) ** model.n
    return _hierarchy_pgf_at(model, z)


def pgf_derivative(model: PhotonModel, order: int, z: float) -> float:
    """m-th derivative G^(m)(z) for m >= 1 and |z| <= 1.

    Closed forms cover the compound-Poisson family (including its
    binomial continuation) and Poisson light; hierarchy derivatives are
    read off a Taylor expansion about ``z``.  Raises
    :class:`OrderRangeError` when the result overflows double precision.
    """
    if order != int(order) or order < 1:
        raise DomainError(f"derivative order must be a positive integer, got {order}")
    order = int(order)
    z = float(z)
    if not math.isfinite(z) or abs(z) > 1.0:
        raise DomainError(f"PGF argument must satisfy |z| <= 1, got {z}")
    if model.kind is ModelKind.COMPOUND_POISSON:
        mu, a = model.mu, model.a
        ratio = mu / a
        # Past the normal range the quotient has lost its digits (or is 0).
        log_ratio = math.log(ratio) if ratio >= sys.float_info.min else math.log(mu) - math.log(a)
        log_val = (
            math.lgamma(a + order) - math.lgamma(a)
            + order * log_ratio
            - (a + order) * math.log1p(mu * (1.0 - z) / a)
        )
        if log_val > 709.0:
            raise OrderRangeError(
                f"G^({order})({z:g}) overflows double precision"
            )
        return math.exp(log_val)
    if model.kind is ModelKind.POISSON:
        log_val = order * math.log(model.mu) - model.mu * (1.0 - z)
        if log_val > 709.0:
            raise OrderRangeError(f"G^({order})({z:g}) overflows double precision")
        return math.exp(log_val)
    if model.kind is ModelKind.BINOMIAL_FOCK:
        n = model.n
        if order > n:
            return 0.0
        theta = model.mu / n
        coef = 1.0
        for i in range(order):
            coef *= (n - i) * theta
        value = coef * (1.0 - theta * (1.0 - z)) ** (n - order)
        if math.isinf(value):
            raise OrderRangeError(f"G^({order})({z:g}) overflows double precision")
        return value
    coeffs = _hierarchy_taylor(model, order + 1, z)
    try:
        factorial = float(math.factorial(order))
    except OverflowError:
        raise OrderRangeError(f"derivative order {order} overflows") from None
    value = float(coeffs[order]) * factorial
    if math.isinf(value):
        raise OrderRangeError(f"G^({order})({z:g}) overflows double precision")
    return value


def autocorrelation(model: PhotonModel, m: int) -> float:
    """Normalized m-th order autocorrelation g^(m) = G^(m)(1) / mu^m.

    For the compound-Poisson family and its binomial continuation a = -n
    this is the ratio form of the rising factorial, (a)_m / a^m, evaluated
    as an exact product of the ratios (a + i) / a; thermal light (a = 1)
    therefore gives g^(2) == 2.0 without rounding, and binomial light
    gives 0.0 past n.  Orders above ``MAX_ORDER``, and a g^(m) that
    overflows double precision, raise :class:`OrderRangeError`.
    """
    if m != int(m) or m < 2:
        raise DomainError(f"autocorrelation order must be an integer >= 2, got {m}")
    m = int(m)
    if m > MAX_ORDER:
        raise OrderRangeError(
            f"autocorrelation order {m} exceeds the supported maximum {MAX_ORDER}"
        )
    if model.kind is ModelKind.POISSON:
        return 1.0
    if model.kind is not ModelKind.HIERARCHY:
        g = _rising_ratio(model.a, m)
        if math.isinf(g):
            raise OrderRangeError(f"g^({m}) overflows double precision")
        return g
    # g^(m) depends on the cluster parameters a_j = mu b_j alone:
    # G(1 + (z - 1) / mu) is the PGF of the hierarchy of mean 1 with levels
    # a_j, so mu^m never has to be formed.  A level whose a_j overflows is
    # Poissonian to double precision and drops out.
    levels = tuple(a for a in model.cluster_parameters if a < math.inf)
    if not levels:
        return 1.0
    if min(levels) == 0.0:
        raise OrderRangeError(f"g^({m}) overflows double precision: a cluster parameter is 0")
    return pgf_derivative(PhotonModel.hierarchy(1.0, levels), m, 1.0)


def apply_loss(model: PhotonModel, t: float) -> PhotonModel:
    """Attenuate by transmission ``t`` in (0, 1]: G(z) -> G(1 - t(1 - z)).

    Every kind closes under loss with mu -> mu * t and all cluster
    parameters unchanged (hierarchy scale parameters rescale as b / t so
    that a_j = mu * b_j stays fixed); in particular every g^(m) is
    loss-invariant.
    """
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise DomainError(f"transmission must lie in (0, 1], got {t}")
    if model.kind is ModelKind.HIERARCHY:
        return PhotonModel.hierarchy(model.mu * t, tuple(b / t for b in model.levels))
    return PhotonModel(model.kind, model.mu * t, a=model.a)


def moments(model: PhotonModel) -> tuple[float, float]:
    """Mean and variance var = mu (1 + Q); an infinite variance raises OrderRangeError."""
    variance = model.mu * (1.0 + _mandel_q(model))
    if not math.isfinite(variance):
        raise OrderRangeError("photon-number variance overflows double precision")
    return model.mu, variance
