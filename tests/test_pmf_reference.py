"""The closed-form pmf and Fock cutoff against independent references.

mpmath at 40 digits is the reference for the probabilities (scipy's own
negative binomial is off by up to ~1e-8 relative); scipy's survival
functions are the reference for the truncation rule.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from photonkit import PhotonModel, TruncationError, fock_cutoff, pmf, pmf_values
from photonkit.photon_stats import MAX_FOCK_CUTOFF, TAIL_MASS, ModelKind

mpmath.mp.dps = 40


def _reference_pmf(model, count):
    mu = mpmath.mpf(model.mu)
    out = []
    for k in range(count):
        if model.kind is ModelKind.POISSON:
            log_p = -mu + k * mpmath.log(mu) - mpmath.loggamma(k + 1)
        elif model.kind is ModelKind.BINOMIAL_FOCK:
            n = model.n
            if k > n:
                out.append(mpmath.mpf(0))
                continue
            theta = mu / n
            log_p = (
                mpmath.log(mpmath.binomial(n, k))
                + k * mpmath.log(theta)
                + (n - k) * mpmath.log1p(-theta)
            )
        else:
            a = mpmath.mpf(model.a)
            log_p = (
                mpmath.loggamma(a + k) - mpmath.loggamma(a) - mpmath.loggamma(k + 1)
                + k * mpmath.log(mu / (a + mu)) + a * mpmath.log(a / (a + mu))
            )
        out.append(mpmath.exp(log_p))
    return out


def _assert_matches_reference(model, count=None):
    values = pmf_values(model) if count is None else pmf_values(model, count)
    ref = _reference_pmf(model, values.size)
    for k, (got, want) in enumerate(zip(values, ref)):
        if want >= mpmath.mpf("1e-300"):
            assert abs(got - want) / want < 1e-11, (model, k, got, float(want))
        else:
            assert got < 1e-290, (model, k, got)


@pytest.mark.parametrize("mu", [0.01, 0.1, 1.0, 3.034, 10.0, 50.0, 300.0])
@pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 2.0, 11.0, 100.0, 1e4, 1e6])
def test_compound_pmf_matches_mpmath(mu, a):
    model = PhotonModel.compound_poisson(mu, a)
    try:
        fock_cutoff(model)
    except TruncationError:
        # Tails too heavy for the ceiling still have an explicit-length pmf.
        _assert_matches_reference(model, 600)
    else:
        _assert_matches_reference(model)


@pytest.mark.parametrize("mu", [0.01, 0.7, 2.7, 30.0, 300.0, 1000.0])
def test_poisson_pmf_matches_mpmath(mu):
    _assert_matches_reference(PhotonModel.poisson(mu))


@pytest.mark.parametrize(
    "n,mu",
    [
        (1, 0.3), (4, 2.0), (7, 4.0), (20, 19.5), (60, 0.5), (300, 150.0),
        # Near the Fock state, where 1 + mu c must not be formed from c = -1/n.
        (50, 50.0 * (1.0 - 1e-9)), (400, 400.0 * (1.0 - 1e-6)),
    ],
)
def test_binomial_pmf_matches_mpmath(n, mu):
    _assert_matches_reference(PhotonModel.binomial_fock(n, mu), n + 3)


def _scipy_cutoff(model):
    """The truncation rule evaluated on scipy's survival function."""
    if model.kind is ModelKind.POISSON:
        dist = stats.poisson(model.mu)
    else:
        dist = stats.nbinom(model.a, model.a / (model.a + model.mu))
    guess = dist.isf(TAIL_MASS)
    if not math.isfinite(guess):
        return None
    k = max(int(guess), 0)
    while dist.sf(k) >= TAIL_MASS:
        k += 1
        if k > MAX_FOCK_CUTOFF:
            return None
    while k > 0 and dist.sf(k - 1) < TAIL_MASS:
        k -= 1
    return None if k > MAX_FOCK_CUTOFF else k


def test_fock_cutoff_matches_scipy_survival_rule():
    rng = np.random.default_rng(20240517)
    truncated = 0
    for i in range(4200):
        if i % 3 == 0:
            model = PhotonModel.poisson(math.exp(rng.uniform(math.log(0.01), math.log(3000.0))))
        else:
            model = PhotonModel.compound_poisson(
                math.exp(rng.uniform(math.log(0.01), math.log(300.0))),
                math.exp(rng.uniform(math.log(0.01), math.log(1e6))),
            )
        expected = _scipy_cutoff(model)
        if expected is None:
            truncated += 1
            with pytest.raises(TruncationError):
                fock_cutoff(model)
            with pytest.raises(TruncationError):
                pmf_values(model)
        else:
            assert fock_cutoff(model) == expected, model
            assert pmf_values(model).size == expected + 1
    # The grid reaches past the ceiling, so both outcomes are exercised.
    assert 50 < truncated < 1000


def test_binomial_pmf_is_zero_past_n():
    model = PhotonModel.binomial_fock(5, 2.5)
    values = pmf_values(model, 12)
    assert values.size == 12
    assert np.all(values[6:] == 0.0)
    assert values[:6].sum() == pytest.approx(1.0, abs=1e-15)
    assert pmf(model, 9) == 0.0


@pytest.mark.parametrize("n", [1, 3, 10, 49])
def test_pure_fock_state_is_an_exact_point_mass(n):
    model = PhotonModel.binomial_fock(n, float(n))
    values = pmf_values(model, n + 4)
    expected = np.zeros(n + 4)
    expected[n] = 1.0
    assert np.array_equal(values, expected)
    assert np.array_equal(pmf_values(model), expected[: n + 1])
    assert pmf(model, n) == 1.0


@pytest.mark.parametrize(
    "model",
    [
        PhotonModel.compound_poisson(3.034, 1.0),
        PhotonModel.compound_poisson(0.4, 0.2),
        PhotonModel.compound_poisson(40.0, 1e5),
        PhotonModel.poisson(12.5),
        PhotonModel.binomial_fock(6, 2.2),
        PhotonModel.hierarchy(3.034, (1.0 / 3.034, 10.0 / 3.034)),
    ],
)
def test_single_pmf_is_the_vector_entry(model):
    for k in (0, 1, 5, 17, 60):
        assert pmf(model, k) == pmf_values(model, k + 1)[k]


@pytest.mark.parametrize(
    "model",
    [
        PhotonModel.compound_poisson(3.034, 1.0),
        PhotonModel.compound_poisson(0.3, 0.05),
        PhotonModel.compound_poisson(150.0, 20.0),
        PhotonModel.poisson(400.0),
    ],
)
def test_default_length_is_the_cutoff_prefix(model):
    cutoff = fock_cutoff(model)
    values = pmf_values(model)
    assert values.size == cutoff + 1
    assert np.array_equal(values, pmf_values(model, cutoff + 1))
    assert 1.0 - values.sum() < 2.0 * TAIL_MASS
