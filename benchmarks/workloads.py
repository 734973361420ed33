"""Benchmark workloads: inputs from a seed, one op, and its output check.

Each workload turns the benchmark seed into a pool of op inputs, runs a
fixed batch of ops (more while ``--seconds`` allows) and checks every op
against references computed here, independently of the package's own
pmf, chain and fidelity code.  The truth is known for every input, so
the checks compare fitted values with it in units of the reported
standard error.

Why these three:

* ``campaign_analytic`` is the paper's headline reconstruction: large-n
  likelihood fits dominate, so it stresses the pmf, the Fock cutoff, the
  Hermite matrix and the n x K matvec; it does no Monte-Carlo or
  hierarchy work.
* ``campaign_mc`` is the only workload with the Monte-Carlo pool and the
  ``mc_subtract`` chain; its fits are small-n, where per-evaluation
  overhead dominates, so a change that helps large-n fits and costs
  small-n fits shows here.
* ``fit_hierarchy`` is the only workload with the series composition,
  the Chernoff cutoff, the hierarchy caches and the three-parameter
  search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import gammaln

#: Thermal source of both campaigns (the paper's default).
MU0, A0 = 3.034, 1.0

#: Monte-Carlo campaign settings.
MC_P, MC_M_MAX, MC_SIZE = 0.05, 5, 1000

#: Two-level truth of the hierarchy workload: a1 = 2, a2 = 8.46.
HIER_MU, HIER_A1, HIER_A2, HIER_SIZE = 5.98, 2.0, 8.46, 25000

Z_LIMIT = 5.0
MIN_FIDELITY = 0.99
#: The package's own fidelity must agree with the reference to this.
FIDELITY_AGREEMENT = 1e-6


def _nbinom_pmf(mu: float, a: float, kmax: int = 4096) -> np.ndarray:
    """Negative-binomial number distribution with mean mu and shape a."""
    k = np.arange(kmax)
    log_p = (
        gammaln(k + a) - gammaln(a) - gammaln(k + 1.0)
        + a * math.log(a / (a + mu)) + k * math.log(mu / (a + mu))
    )
    return np.exp(log_p)


def _fidelity(mu1: float, a1: float, mu2: float, a2: float) -> float:
    p, q = _nbinom_pmf(mu1, a1), _nbinom_pmf(mu2, a2)
    return float(np.sqrt(p * q).sum()) ** 2


def ideal_chain(m: int) -> tuple[float, float]:
    """(mu, a) after m ideal subtractions from the thermal source."""
    return MU0 * (A0 + m) / A0, A0 + m


def finite_p_chain(m: int, p: float) -> tuple[float, float]:
    """(mu, a) after m subtractions at reflection probability p."""
    mu, a = MU0, A0
    for _ in range(m):
        mu, a = (a + 1.0) * (1.0 - p) * (mu / a) / (1.0 + mu * p / a), a + 1.0
    return mu, a


def _z(value: float, target: float, sigma) -> float:
    if sigma is None or not (sigma > 0.0 and math.isfinite(sigma)):
        return math.inf
    return (value - target) / sigma


def check_analytic(result) -> tuple[list[str], list[str]]:
    wrong, shortfalls = [], []
    for m, fit in enumerate(result.fits):
        mu_ref, a_ref = ideal_chain(m)
        model = fit.model
        z = _z(model.mu, mu_ref, fit.sigma_mu)
        if not abs(z) <= Z_LIMIT:
            wrong.append(f"m={m}: mu {model.mu:.4f} vs ideal {mu_ref:.4f}, z = {z:.2f}")
        fid = _fidelity(model.mu, model.a, mu_ref, a_ref)
        own = fit.fidelity_vs_reference
        if own is None or not abs(own - fid) <= FIDELITY_AGREEMENT:
            wrong.append(f"m={m}: reported fidelity {own} != reference {fid:.9f}")
        if not fid >= MIN_FIDELITY:
            shortfalls.append(f"m={m} (n={fit.sample_size}): fidelity {fid:.5f} < {MIN_FIDELITY}")
    corr = result.correlation
    if not corr.orders or corr.orders[-1] != 11:
        wrong.append(f"correlation orders end at {corr.orders[-1:]} not 11")
    else:
        z = _z(corr.log_g_values[-1], math.lgamma(12.0), corr.sigma_log_g[-1])
        if not abs(z) <= Z_LIMIT:
            wrong.append(f"ln g11 = {corr.log_g_values[-1]:.4f}: z = {z:.2f} vs ln 11!")
    return wrong, shortfalls


def check_mc(result) -> tuple[list[str], list[str]]:
    wrong = []
    for m, fit in enumerate(result.fits):
        mu_ref, _ = finite_p_chain(m, MC_P)
        z = _z(fit.model.mu, mu_ref, fit.sigma_mu)
        if not abs(z) <= Z_LIMIT:
            wrong.append(f"m={m}: mu {fit.model.mu:.4f} vs finite-p {mu_ref:.4f}, z = {z:.2f}")
    return wrong, []


def check_hierarchy(result) -> tuple[list[str], list[str]]:
    wrong, shortfalls = [], []
    for label, fit in zip(("free", "fixed_a1"), result):
        z = _z(fit.model.mu, HIER_MU, fit.sigma_mu)
        if not abs(z) <= Z_LIMIT:
            wrong.append(f"{label}: mu {fit.model.mu:.4f}, z = {z:.2f} vs {HIER_MU}")
        a1, a2 = fit.model.cluster_parameters
        if label == "fixed_a1" and not math.isclose(a1, HIER_A1, rel_tol=1e-12):
            wrong.append(f"fixed_a1: a1 = {a1!r}, not the fixed {HIER_A1}")
        if fit.level1_sufficient is not False:
            # With a1 fixed at its true value the test resolved a2 on every
            # baseline op; only the free fit lacks the power at some seeds.
            (wrong if label == "fixed_a1" else shortfalls).append(
                f"{label}: level1_sufficient is {fit.level1_sufficient}")
            continue
        z = _z(a2, HIER_A2, fit.sigma_a2)
        if not abs(z) <= Z_LIMIT:
            shortfalls.append(f"{label}: a2 = {a2:.3f} +- {fit.sigma_a2}, z = {z:.2f} vs {HIER_A2}")
    return wrong, shortfalls


def _never(pk, exc: BaseException) -> bool:
    return False


def _campaign_truncation(pk, exc: BaseException) -> bool:
    """A stage fit whose Fock cutoff overran, wrapped by ``run_campaign``.

    A 358-sample stage fit raises this about once in 80 draws, which
    is a known defect of the estimator, not a wrong output.
    """
    return isinstance(exc, pk.CampaignError) and isinstance(exc.__cause__, pk.TruncationError)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Ops in the fixed work that ``wall_s`` times.
    batch: int
    #: Distinct op inputs made at set-up; later ops cycle through them.
    pool: int
    make_input: Callable[[Any, int], Any]
    run: Callable[[Any, Any], Any]
    #: Returns (wrong, shortfalls), both of which fail the op.  Wrong means
    #: an output disagrees with the truth beyond 5 sigma or with the
    #: independent recomputation, which a correct program does at no seed.
    #: A shortfall misses a quality gate that a correct estimator can miss
    #: at some seeds for want of statistical power.
    check: Callable[[Any], tuple[list[str], list[str]]]
    #: Whether a raised error leaves ``correct`` true (it still fails the
    #: op).  At most one raising op per run is tolerated.
    tolerated: Callable[[Any, BaseException], bool] = _never


def op_seeds(workload: "Workload", seed: int) -> list[int]:
    """Per-op seeds drawn from the benchmark seed and the workload name."""
    tag = [ord(ch) for ch in workload.name]
    return [int(s) for s in np.random.SeedSequence([seed, *tag]).generate_state(workload.pool)]


def make_inputs(pk, workload: "Workload", seed: int) -> list[tuple[int, Any]]:
    return [(s, workload.make_input(pk, s)) for s in op_seeds(workload, seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="campaign_analytic",
            batch=3,
            pool=16,
            make_input=lambda pk, s: pk.CampaignConfig(mu0=MU0, a0=A0, seed=s),
            run=lambda pk, cfg: pk.run_campaign(cfg),
            check=check_analytic,
            tolerated=_campaign_truncation,
        ),
        Workload(
            name="campaign_mc",
            batch=6,
            pool=32,
            make_input=lambda pk, s: pk.CampaignConfig(
                mu0=MU0, a0=A0, seed=s, mode="monte_carlo", p=MC_P, m_max=MC_M_MAX,
                sample_sizes=(MC_SIZE,) * (MC_M_MAX + 1),
            ),
            run=lambda pk, cfg: pk.run_campaign(cfg),
            check=check_mc,
        ),
        Workload(
            name="fit_hierarchy",
            batch=2,
            pool=4,
            make_input=lambda pk, s: pk.sample_quadratures(
                pk.PhotonModel.hierarchy(HIER_MU, (HIER_A1 / HIER_MU, HIER_A2 / HIER_MU)),
                HIER_SIZE,
                np.random.default_rng(s),
            ).values,
            run=lambda pk, x: (pk.fit_hierarchy2(x), pk.fit_hierarchy2(x, fixed_a1=HIER_A1)),
            check=check_hierarchy,
        ),
    )
}
