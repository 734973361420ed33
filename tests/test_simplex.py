"""The in-package Nelder-Mead search against scipy's bounded Nelder-Mead."""

import warnings

import numpy as np
from scipy import optimize

from photonkit.inference import _nelder_mead

#: (xatol, fatol, maxiter, maxfev): the fit search, the bootstrap search,
#: and an evaluation budget too small to converge, drawn per case so that it
#: runs out in the start simplex, an expansion, a contraction or a shrink.
OPTION_SETS = (
    (1e-6, 1e-9, 4000, 8000),
    (1e-4, 1e-6, 600, None),
    (1e-8, 1e-12, 10_000, "drawn"),
)


def _quadratic(center, scale):
    def f(x):
        return float(np.sum(scale * (x - center) ** 2))
    return f


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
                 + (x[0] - 0.3) ** 2)


def _plateau(center, radius):
    """A bowl inside a ball, the fit's penalty value everywhere outside."""
    def f(x):
        d2 = float(np.sum((x - center) ** 2))
        return 1e12 if d2 > radius**2 else d2 + float(np.sum(np.sin(3.0 * x)))
    return f


def _problem(rng):
    dim = int(rng.integers(1, 4))
    lo = rng.uniform(-5.0, 1.0, dim)
    hi = lo + rng.uniform(0.5, 8.0, dim)
    kind = int(rng.integers(3))
    if kind == 0:
        fun = _quadratic(rng.uniform(lo - 1.0, hi + 1.0), rng.uniform(0.1, 50.0, dim))
    elif kind == 1:
        fun = _rosenbrock
    else:
        fun = _plateau(rng.uniform(lo, hi), rng.uniform(0.3, 3.0))
    # A third of the starts lie outside the box, some on zero coordinates.
    x0 = rng.uniform(lo - 2.0, hi + 2.0) if rng.uniform() < 1 / 3 else rng.uniform(lo, hi)
    x0[rng.uniform(size=dim) < 0.1] = 0.0
    return fun, x0, list(zip(lo, hi))


def test_search_repeats_scipy_bit_for_bit():
    rng = np.random.default_rng(20261019)
    exhausted = 0
    for case in range(600):
        fun, x0, bounds = _problem(rng)
        xatol, fatol, maxiter, maxfev = OPTION_SETS[case % len(OPTION_SETS)]
        if maxfev == "drawn":
            maxfev = int(rng.integers(1, 60))
        options = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter}
        if maxfev is not None:
            options["maxfev"] = maxfev
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            want = optimize.minimize(fun, x0, method="Nelder-Mead", bounds=bounds,
                                     options=options)
        got = _nelder_mead(fun, x0, bounds, xatol, fatol, maxiter,
                           np.inf if maxfev is None else maxfev)
        assert np.array_equal(got.x, want.x), case
        assert got.fun == want.fun, case
        assert got.nfev == want.nfev, case
        assert got.success == want.success, case
        exhausted += got.nfev == maxfev
    assert exhausted > 150


def test_search_hands_the_objective_a_copy():
    seen = []

    def fun(x):
        seen.append(x)
        value = float(np.sum((x - 0.5) ** 2))
        x[:] = 99.0  # must not reach the simplex
        return value

    res = _nelder_mead(fun, np.array([2.0, -1.0]), [(-3.0, 3.0)] * 2, 1e-6, 1e-9, 4000)
    assert res.success
    assert np.allclose(res.x, 0.5, atol=1e-5)
    assert res.nfev == len(seen)
