"""Parameter recovery from homodyne quadrature samples.

Two estimation routes for the compound-Poisson family:

* method of moments — the quadrature variance fixes the mean photon
  number (s^2 = mu + 1/2) and the excess kurtosis fixes the
  clusterization parameter through
  beta_2 = -6 (mu / (2 mu + 1))^2 (a - 1) / a;
* maximum likelihood — direct maximization of
  sum_i ln P(x_i | mu, a) with the quadrature density
  P(x) = sum_k P(k) |phi_k(x)|^2.

The Hermite-function values at the sample points do not depend on the
model parameters, so the likelihood caches them once and every
evaluation reduces to a matrix-vector product.  Every likelihood fit,
(mu, a) or (mu, a_1, a_2), is one masked search: a simplex search over
the logarithms of the free parameters, the others held fixed, on one
negative log-likelihood that scores points off the model family or past
the Fock dimension cap with a penalty.  Parameter errors come from the
observed Fisher information (numerical Hessian of that objective over
the free parameters), falling back to a nonparametric bootstrap for
(mu, a) when the Hessian is not positive definite.  Goodness of fit is
an equal-probability-bin chi-squared test in quadrature space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    BinningError,
    ConvergenceError,
    DomainError,
    SubVacuumVarianceError,
    TruncationError,
)
from .photon_stats import ModelKind, PhotonModel, fock_cutoff, pmf_values
from .quadrature import (
    VACUUM_VARIANCE,
    QuadratureSample,
    _HermiteRecurrence,
    quadrature_quantiles,
)

#: Fock dimension cap for likelihood evaluation; parameter points whose
#: truncation would exceed it are rejected with a large penalty.
LIKELIHOOD_DIM_CAP = 2048

_PENALTY = 1e12
_DENSITY_FLOOR = 1e-300

_LOG_MU_BOUNDS = (math.log(1e-2), math.log(1e3))
_LOG_A_BOUNDS = (math.log(1e-2), math.log(1e6))
_LOG_A1_BOUNDS = (math.log(0.05), math.log(1e3))
_LOG_A2_BOUNDS = (math.log(0.1), math.log(1e6))
#: Boxes of ln(mu, a) and of ln(mu, a1, a2).
_LEVEL1_BOUNDS = [_LOG_MU_BOUNDS, _LOG_A_BOUNDS]
_HIERARCHY_BOUNDS = [_LOG_MU_BOUNDS, _LOG_A1_BOUNDS, _LOG_A2_BOUNDS]
_INIT_MU_CLAMP = (1e-2, 1e3)
_INIT_A_CLAMP = (0.05, 1e3)

_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_SEED = 20210405


class FitMethod(str, Enum):
    MOMENTS_ONLY = "moments_only"
    MAX_LIKELIHOOD = "max_likelihood"
    HIERARCHY_LEVEL2 = "hierarchy_level2"


@dataclass(frozen=True)
class FitResult:
    """Fitted model with uncertainties and goodness-of-fit summaries."""

    model: PhotonModel
    sigma_mu: float
    sigma_a: float
    log_likelihood: float
    chi2_significance: float
    sample_size: int
    method: FitMethod
    fidelity_vs_reference: float | None = None
    boundary_pinned: bool = False
    error_method: str = "fisher"
    sigma_a2: float | None = None
    level1_sufficient: bool | None = None
    level1_chi2_significance: float | None = None

    def to_dict(self) -> dict:
        out = {
            "model": self.model.to_dict(),
            "sigma_mu": self.sigma_mu,
            "sigma_a": self.sigma_a,
            "log_likelihood": self.log_likelihood,
            "chi2_significance": self.chi2_significance,
            "sample_size": self.sample_size,
            "method": self.method.value,
            "fidelity_vs_reference": self.fidelity_vs_reference,
            "boundary_pinned": self.boundary_pinned,
            "error_method": self.error_method,
        }
        if self.method is FitMethod.HIERARCHY_LEVEL2:
            out["sigma_a2"] = self.sigma_a2
            out["level1_sufficient"] = self.level1_sufficient
            out["level1_chi2_significance"] = self.level1_chi2_significance
        return out


def _values(samples) -> np.ndarray:
    if isinstance(samples, QuadratureSample):
        return samples.values
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise DomainError("quadrature samples must form a 1-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError("quadrature samples must be finite")
    return arr


class _QuadratureLikelihood:
    """Log-likelihood engine with a lazily grown |phi_k(x_i)|^2 matrix."""

    def __init__(self, values: np.ndarray):
        self.x = values
        self.n = values.size
        self._rec = _HermiteRecurrence(values)
        self._buf = np.empty((self.n, 64))
        self._buf[:, 0] = self._rec.phi_squared()
        self._ncols = 1

    def _ensure(self, count: int) -> None:
        if count > LIKELIHOOD_DIM_CAP:
            raise TruncationError(
                f"likelihood needs Fock dimension {count}, cap is {LIKELIHOOD_DIM_CAP}"
            )
        if count > self._buf.shape[1]:
            grown = np.empty((self.n, max(count, 2 * self._buf.shape[1])))
            grown[:, : self._ncols] = self._buf[:, : self._ncols]
            self._buf = grown
        while self._ncols < count:
            self._rec.advance()
            self._buf[:, self._ncols] = self._rec.phi_squared()
            self._ncols += 1

    def density(self, model: PhotonModel) -> np.ndarray:
        probs = pmf_values(model)
        self._ensure(probs.size)
        return self._buf[:, : probs.size] @ probs

    def log_density(self, model: PhotonModel) -> np.ndarray:
        return np.log(np.maximum(self.density(model), _DENSITY_FLOOR))

    def nll(self, model: PhotonModel, weights: np.ndarray | None = None) -> float:
        logs = self.log_density(model)
        if weights is None:
            return -float(logs.sum())
        return -float(weights @ logs)


def method_of_moments(samples) -> tuple[float, float]:
    """Moment inversion (s^2, beta_2) -> (mu, a).

    Returns the raw inversion: the clusterization estimate may be
    negative or arbitrarily large when the sample kurtosis crosses the
    family boundary.  Raises :class:`SubVacuumVarianceError` when the
    sample variance does not exceed the vacuum variance 1/2.
    """
    x = _values(samples)
    if x.size < 30:
        raise DomainError(f"need at least 30 samples, got {x.size}")
    s2 = float(x.var(ddof=1))
    if s2 <= VACUUM_VARIANCE:
        raise SubVacuumVarianceError(
            f"sample variance {s2:.4f} does not exceed the vacuum variance 0.5"
        )
    mu = s2 - VACUUM_VARIANCE
    # Biased excess kurtosis, in the operation order of scipy.stats.kurtosis.
    sq = (x - x.mean()) ** 2
    beta2 = float(np.mean(sq**2) / np.mean(sq) ** 2.0 - 3.0)
    denom = 6.0 * mu * mu + beta2 * (2.0 * mu + 1.0) ** 2
    if denom == 0.0:
        return mu, math.inf
    return mu, 6.0 * mu * mu / denom


class _Search(NamedTuple):
    """End point of a simplex search."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


class _BudgetSpent(Exception):
    """The search asked for an evaluation past its budget."""


def _nelder_mead(fun, x0, bounds, xatol, fatol, maxiter, maxfev=math.inf) -> _Search:
    """Bounded Nelder-Mead simplex search (Nelder & Mead 1965).

    Standard coefficients: reflection 1, expansion 2, contraction 1/2,
    shrink 1/2.  The start simplex steps each coordinate by 5 % (0.00025
    from zero); a vertex above its upper bound is reflected back below it,
    and every trial point is clipped into the box.  It stops once all
    vertices lie within ``xatol`` of the best and their values within
    ``fatol``, and fails after ``maxiter`` iterations or ``maxfev``
    evaluations.  The arithmetic and its order are those of
    ``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``, so the
    search visits the same points and ends on the same bits.
    """
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
    dim = x0.size
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for k in range(dim):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(dim + 1, np.inf)
    nfev = 0

    def evaluate(point):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(fun(np.copy(point)))

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    try:
        for k in range(dim + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    # Two sorts, as in scipy's search.
    sim, fsim = by_value(sim, fsim)
    sim, fsim = by_value(sim, fsim)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = np.clip(2 * xbar - sim[-1], lo, hi)
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lo, hi)
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lo, hi)
                    fxc = evaluate(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lo, hi)
                    fxc = evaluate(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, dim + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)

    success = nfev < maxfev and iterations < maxiter
    return _Search(x=sim[0], fun=float(np.min(fsim)), nfev=nfev, success=success)


def _minimize_simplex(fun, t0, bounds):
    return _nelder_mead(fun, t0, bounds, xatol=1e-6, fatol=1e-9, maxiter=4000, maxfev=8000)


def _simplex_with_restart(fun, t0, bounds) -> _Search:
    """Simplex search restarted once from a perturbed point.

    Returns the better end point; ``success`` holds if either run converged.
    """
    first = _minimize_simplex(fun, t0, bounds)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    perturbed = np.clip(first.x + 0.25 * np.array([1.0, -1.0] * len(bounds))[: len(bounds)],
                        lo, hi)
    second = _minimize_simplex(fun, perturbed, bounds)
    best = first if first.fun <= second.fun else second
    return best._replace(success=bool(first.success or second.success))


def _near_bounds(t: np.ndarray, bounds, tol: float = 1e-6) -> bool:
    return any(
        abs(ti - lo) < tol or abs(ti - hi) < tol for ti, (lo, hi) in zip(t, bounds)
    )


def _compound(theta) -> PhotonModel:
    """Compound-Poisson model of theta = (mu, a)."""
    return PhotonModel.compound_poisson(theta[0], theta[1])


def _two_level(theta) -> PhotonModel:
    """Two-level hierarchy of theta = (mu, a1, a2), with b_j = a_j / mu."""
    mu, a1, a2 = theta
    return PhotonModel.hierarchy(mu, (a1 / mu, a2 / mu))


def _penalized_nll(lik: _QuadratureLikelihood, build, theta, weights=None) -> float:
    """Negative log-likelihood of ``build(theta)``; ``_PENALTY`` off the model family."""
    try:
        return lik.nll(build(theta), weights)
    except (TruncationError, DomainError):
        return _PENALTY


def _masked_search(lik: _QuadratureLikelihood, build, theta, free, bounds):
    """Simplex search over ln theta[free], the other entries of theta held fixed.

    ``bounds`` boxes every entry of ln theta.  Returns the full optimum
    theta, the search and the box of the free entries.
    """
    theta = [float(v) for v in theta]
    box = [bounds[i] for i in free]

    def point(t):
        # Plain floats: this runs on every evaluation.
        full = theta.copy()
        for i, ti in zip(free, t):
            full[i] = math.exp(ti)
        return full

    t0 = np.clip([math.log(theta[i]) for i in free], [b[0] for b in box], [b[1] for b in box])
    best = _simplex_with_restart(lambda t: _penalized_nll(lik, build, point(t)), t0, box)
    return np.array(point(best.x)), best, box


def _check_search(best: _Search, theta, names) -> None:
    """Raise :class:`ConvergenceError`, with the point, unless the search ended on a fit."""
    found = {**dict(zip(names, map(float, theta))), "log_likelihood": -float(best.fun)}
    if not best.success:
        raise ConvergenceError(
            f"simplex search over ({', '.join(names)}) did not converge", best=found
        )
    if best.fun >= _PENALTY:
        raise ConvergenceError(
            "no point of the search has a finite likelihood "
            f"(Fock dimension cap {LIKELIHOOD_DIM_CAP})",
            best=found,
        )


def _moment_start(x: np.ndarray) -> list[float]:
    """Start (mu, a) from the moment inversion, clamped into a safe box."""
    mu0, a0 = method_of_moments(x)
    if not math.isfinite(a0) or a0 <= 0.0:
        # The kurtosis sits at or past the Poisson limit: start flat, not
        # at the most bunched end of the box.
        a0 = _INIT_A_CLAMP[1]
    return [float(np.clip(mu0, *_INIT_MU_CLAMP)), float(np.clip(a0, *_INIT_A_CLAMP))]


def mle_fit(samples, init=None, reference: PhotonModel | None = None) -> FitResult:
    """Maximum-likelihood fit of a compound-Poisson model.

    Derivative-free simplex search over (ln mu, ln a), initialized from
    the method of moments (clamped into a safe box) unless ``init`` is
    given.  Raises :class:`ConvergenceError` with the best point so far
    if the search exhausts its iteration budget or finds no point under
    the Fock dimension cap.
    """
    x = _values(samples)
    n = x.size
    if n < 100:
        raise DomainError(f"maximum-likelihood fit needs at least 100 samples, got {n}")
    if init is None:
        theta0 = _moment_start(x)
    else:
        theta0 = [float(init[0]), float(init[1])]
        if theta0[0] <= 0.0 or theta0[1] <= 0.0:
            raise DomainError("initial parameters must be positive")

    lik = _QuadratureLikelihood(x)
    theta_hat, best, box = _masked_search(lik, _compound, theta0, [0, 1], _LEVEL1_BOUNDS)
    _check_search(best, theta_hat, ("mu", "a"))
    model = _compound(theta_hat)
    sigma_mu, sigma_a, err_method = _parameter_errors(lik, model)
    return FitResult(
        model=model,
        sigma_mu=sigma_mu,
        sigma_a=sigma_a,
        log_likelihood=-float(best.fun),
        chi2_significance=chi2_test(x, model, n_params_fitted=2),
        sample_size=n,
        method=FitMethod.MAX_LIKELIHOOD,
        fidelity_vs_reference=None if reference is None else fidelity(model, reference),
        boundary_pinned=_near_bounds(best.x, box),
        error_method=err_method,
    )


def _observed_information(fun, theta: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Numerical Hessian by central differences with relative steps."""
    dim = theta.size
    h = rel_step * np.abs(theta)
    hess = np.empty((dim, dim))
    f0 = fun(theta)
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = h[i]
        hess[i, i] = (fun(theta + ei) + fun(theta - ei) - 2.0 * f0) / h[i] ** 2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = h[j]
            cross = (
                fun(theta + ei + ej)
                + fun(theta - ei - ej)
                - fun(theta + ei - ej)
                - fun(theta - ei + ej)
            ) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = cross
    return hess


def _invert_information(hess: np.ndarray) -> np.ndarray | None:
    """Covariance from an information matrix, or None if not positive definite."""
    try:
        chol = np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    identity = np.eye(hess.shape[0])
    inv_chol = np.linalg.solve(chol, identity)
    cov = inv_chol.T @ inv_chol
    if not np.all(np.isfinite(cov)) or np.any(np.diag(cov) <= 0.0):
        return None
    return cov


def _fisher_covariance(lik: _QuadratureLikelihood, build, theta: np.ndarray, free):
    """Covariance of theta[free] (linear scale) from the observed information, or None."""

    def nll(params):
        merged = theta.copy()
        merged[free] = params
        return _penalized_nll(lik, build, merged)

    return _invert_information(_observed_information(nll, theta[free]))


def _parameter_errors(lik: _QuadratureLikelihood, model: PhotonModel):
    """(sigma_mu, sigma_a, method) via observed Fisher information.

    Falls back to a multinomial-weight bootstrap of the full fit when
    the numerical Hessian is not positive definite.
    """
    theta_hat = np.array([model.mu, model.a])
    cov = _fisher_covariance(lik, _compound, theta_hat, [0, 1])
    if cov is not None:
        return float(math.sqrt(cov[0, 0])), float(math.sqrt(cov[1, 1])), "fisher"

    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    t_hat = np.log(theta_hat)
    estimates = np.empty((_BOOTSTRAP_RESAMPLES, 2))
    for b in range(_BOOTSTRAP_RESAMPLES):
        weights = rng.multinomial(lik.n, np.full(lik.n, 1.0 / lik.n)).astype(float)
        res = _nelder_mead(
            lambda t: _penalized_nll(lik, _compound, [math.exp(ti) for ti in t], weights),
            t_hat, _LEVEL1_BOUNDS, xatol=1e-4, fatol=1e-6, maxiter=600,
        )
        estimates[b] = np.exp(res.x)
    sigma = estimates.std(axis=0, ddof=1)
    return float(sigma[0]), float(sigma[1]), "bootstrap"


def fisher_errors(samples, model: PhotonModel) -> tuple[float, float]:
    """Standard errors of (mu, a) at the fitted point."""
    if model.kind is not ModelKind.COMPOUND_POISSON:
        raise DomainError("parameter errors are defined for compound-Poisson fits")
    lik = _QuadratureLikelihood(_values(samples))
    sigma_mu, sigma_a, _ = _parameter_errors(lik, model)
    return sigma_mu, sigma_a


def chi2_test(samples, model: PhotonModel, n_params_fitted: int = 0) -> float:
    """Upper-tail chi-squared significance with equal-probability bins.

    The bin count adapts to the sample size (n / 50, clamped to
    [10, 100]); bins whose quantile edges collapse are merged, and any
    expected count below 5 after merging raises :class:`BinningError`.
    """
    x = _values(samples)
    n = x.size
    if n < 100:
        raise DomainError(f"chi-squared test needs at least 100 samples, got {n}")
    if n_params_fitted < 0:
        raise DomainError("number of fitted parameters cannot be negative")
    n_bins = int(min(100, max(10, n // 50)))
    interior = quadrature_quantiles(model, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    # Merge bins whose edges collapse (pdf locally ~0 between quantiles).
    edges = [-np.inf]
    mass = []
    last_prob = 0.0
    for i, edge in enumerate(interior):
        prob = (i + 1) / n_bins
        if edge - edges[-1] > 1e-12:
            edges.append(edge)
            mass.append(prob - last_prob)
            last_prob = prob
    edges.append(np.inf)
    mass.append(1.0 - last_prob)
    expected = n * np.asarray(mass)
    if expected.min() < 5.0:
        raise BinningError(
            f"expected bin count {expected.min():.2f} below 5 after merging"
        )
    observed = np.histogram(x, bins=np.asarray(edges))[0]
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = expected.size - 1 - n_params_fitted
    if dof < 1:
        raise BinningError(f"no degrees of freedom left ({expected.size} bins)")
    return _chi2_sf(statistic, dof)


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi^2_dof > x) for an integer number of degrees of freedom.

    Finite series of the regularized upper incomplete gamma function:
    e^(-x/2) sum_{i<dof/2} (x/2)^i / i! for even dof, and for odd dof
    erfc(sqrt(x/2)) plus the terms (x/2)^(i+1/2) e^(-x/2) / Gamma(i+3/2)
    for i < (dof - 1)/2.  Each term is evaluated in log space, so the
    sum neither overflows nor loses its small terms.
    """
    if x <= 0.0:
        return 1.0
    half = 0.5 * x
    log_half = math.log(half)
    if dof % 2 == 0:
        total, offset = 0.0, 0.0
    else:
        total, offset = math.erfc(math.sqrt(half)), 0.5
    for i in range(dof // 2):
        p = i + offset
        total += math.exp(p * log_half - half - math.lgamma(p + 1.0))
    return min(total, 1.0)


def fidelity(model_a: PhotonModel, model_b: PhotonModel) -> float:
    """Fidelity of two Fock-diagonal states.

    Every model in scope is diagonal in the Fock basis, and for
    commuting density matrices the general fidelity
    (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 collapses to the squared
    Bhattacharyya coefficient (sum_k sqrt(P_a(k) P_b(k)))^2, which is
    what is computed here on a common truncation.  Exactly symmetric in
    its arguments.
    """
    count = max(fock_cutoff(model_a), fock_cutoff(model_b)) + 1
    pa = pmf_values(model_a, count)
    pb = pmf_values(model_b, count)
    sa, sb = pa.sum(), pb.sum()
    if sa < 1.0 - 1e-6 or sb < 1.0 - 1e-6:
        raise TruncationError("fidelity truncation lost more than 1e-6 mass")
    # Renormalize on the common support after summing, so identical
    # models give S / sqrt(S * S) = 1 exactly.
    root = float(np.sqrt(pa * pb).sum() / math.sqrt(sa * sb))
    return min(root * root, 1.0)


def moments_fit(samples, reference: PhotonModel | None = None) -> FitResult:
    """Moment-inversion fit packaged with bootstrap errors.

    Thin wrapper over :func:`method_of_moments` for pipelines that want
    a full :class:`FitResult`; raises :class:`DomainError` when the raw
    inversion leaves the compound-Poisson family.
    """
    x = _values(samples)
    n = x.size
    if n < 100:
        raise DomainError(f"moment fit needs at least 100 samples, got {n}")
    mu_hat, a_hat = method_of_moments(x)
    if not math.isfinite(a_hat) or a_hat <= 0.0:
        raise DomainError(
            f"moment inversion left the model family (a = {a_hat:.4g}); "
            "use the likelihood fit"
        )
    model = PhotonModel.compound_poisson(mu_hat, a_hat)
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    estimates = []
    for _ in range(_BOOTSTRAP_RESAMPLES):
        resampled = x[rng.integers(0, n, n)]
        try:
            estimates.append(method_of_moments(resampled))
        except SubVacuumVarianceError:
            continue
    arr = np.array([e for e in estimates if math.isfinite(e[1])])
    sigma_mu, sigma_a = arr.std(axis=0, ddof=1)
    lik = _QuadratureLikelihood(x)
    return FitResult(
        model=model,
        sigma_mu=float(sigma_mu),
        sigma_a=float(sigma_a),
        log_likelihood=-lik.nll(model),
        chi2_significance=chi2_test(x, model, n_params_fitted=2),
        sample_size=n,
        method=FitMethod.MOMENTS_ONLY,
        fidelity_vs_reference=None if reference is None else fidelity(model, reference),
        error_method="bootstrap",
    )


#: Largest second-level parameter the fit will report; corrections of
#: order 1/a_2 are unresolvable well before this.
A2_MAX = 1e6

#: Likelihood-ratio threshold (chi-squared, 1 dof, 95%) deciding whether
#: freeing a_2 off its upper bound is a real improvement.
_A2_LRT_THRESHOLD = 3.84


def fit_hierarchy2(
    samples,
    fixed_a1: float | None = None,
    reference: PhotonModel | None = None,
) -> FitResult:
    """Fit a two-level hierarchy model by maximum likelihood.

    Runs the level-1 (mu, a) search first, on the same likelihood (its
    chi-squared significance is carried in the result for comparison),
    then searches over (mu, a_1, a_2) — or (mu, a_2) when ``fixed_a1``
    is given — in log space.

    The two-level family contains the one-level family in the
    a_2 -> inf limit, so for data without a resolvable second level the
    likelihood along a_2 is flat up to sampling noise and a free search
    stops at an arbitrary ridge point.  The fit therefore compares the
    free optimum against a constrained fit with a_2 held at its upper
    bound: unless freeing a_2 improves twice the log-likelihood by the
    chi-squared(1) 95% value, the bound solution is adopted and flagged
    ``level1_sufficient`` — a semantic outcome, not a failure.  Raises
    :class:`ConvergenceError` when the adopted search did not converge or
    found no point under the Fock dimension cap.
    """
    x = _values(samples)
    n = x.size
    if n < 1000:
        raise DomainError(f"hierarchy fit needs at least 1000 samples, got {n}")
    if fixed_a1 is not None and fixed_a1 <= 0.0:
        raise DomainError("fixed_a1 must be positive")
    theta0 = _moment_start(x)
    lik = _QuadratureLikelihood(x)
    level1, search1, _ = _masked_search(lik, _compound, theta0, [0, 1], _LEVEL1_BOUNDS)
    _check_search(search1, level1, ("mu", "a"))
    level1_significance = chi2_test(x, _compound(level1), n_params_fitted=2)

    mu_init = level1[0]
    a1_init = level1[1] if fixed_a1 is None else fixed_a1
    level1_free = [0, 1] if fixed_a1 is None else [0]

    # Constrained fit: a_2 held at the bound (no resolvable second level).
    at_bound = _masked_search(lik, _two_level, [mu_init, a1_init, A2_MAX], level1_free,
                              _HIERARCHY_BOUNDS)

    # Free fit, started from a profile scan of a_2 at the level-1 optimum
    # (ties broken toward the weakest correction).
    grid = np.exp(np.linspace(_LOG_A2_BOUNDS[0], _LOG_A2_BOUNDS[1], 25))
    profile = np.array([_penalized_nll(lik, _two_level, (mu_init, a1_init, a2)) for a2 in grid])
    near_tie = profile <= profile.min() + 0.5
    a2_init = float(grid[np.nonzero(near_tie)[0].max()])
    free = _masked_search(lik, _two_level, [mu_init, a1_init, a2_init], level1_free + [2],
                          _HIERARCHY_BOUNDS)

    second_level_resolved = 2.0 * (at_bound[1].fun - free[1].fun) >= _A2_LRT_THRESHOLD
    theta_hat, best, box = free if second_level_resolved else at_bound
    _check_search(best, theta_hat, ("mu", "a1", "a2"))
    model = _two_level(theta_hat)

    # Errors over the parameters that were actually free (linear scale).
    free_idx = level1_free + [2] if second_level_resolved else level1_free
    cov = _fisher_covariance(lik, _two_level, theta_hat, free_idx)
    if cov is None:
        sigma_mu = sigma_a = float("nan")
        sigma_a2 = None
        err_method = "unavailable"
    else:
        sigma_mu = float(math.sqrt(cov[0, 0]))
        sigma_a = 0.0 if fixed_a1 is not None else float(math.sqrt(cov[1, 1]))
        sigma_a2 = float(math.sqrt(cov[-1, -1])) if second_level_resolved else None
        err_method = "fisher"
    return FitResult(
        model=model,
        sigma_mu=sigma_mu,
        sigma_a=sigma_a,
        log_likelihood=-float(best.fun),
        chi2_significance=chi2_test(x, model, n_params_fitted=len(free_idx)),
        sample_size=n,
        method=FitMethod.HIERARCHY_LEVEL2,
        fidelity_vs_reference=None if reference is None else fidelity(model, reference),
        boundary_pinned=_near_bounds(best.x, box),
        error_method=err_method,
        sigma_a2=sigma_a2,
        level1_sufficient=not second_level_resolved,
        level1_chi2_significance=level1_significance,
    )


#: Column header shared by single-fit reports and campaign reports.
REPORT_COLUMNS = "state,mu,sigma_mu,a,sigma_a,sample_size,fidelity,chi2_significance"


def report_row(state: str, fit: FitResult) -> str:
    """One CSV row in the :data:`REPORT_COLUMNS` layout (fidelity in percent)."""
    model = fit.model
    if model.kind is ModelKind.HIERARCHY:
        a_value = model.cluster_parameters[0]
    elif model.a is not None:
        a_value = model.a
    else:
        a_value = float("inf")
    fid = "" if fit.fidelity_vs_reference is None else f"{100.0 * fit.fidelity_vs_reference:.3f}"
    return (
        f"{state},{model.mu:.6g},{fit.sigma_mu:.3g},{a_value:.6g},{fit.sigma_a:.3g},"
        f"{fit.sample_size},{fid},{fit.chi2_significance:.4g}"
    )
