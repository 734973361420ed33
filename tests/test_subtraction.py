"""Photon subtraction: analytic chains, finite detection efficiency, Monte Carlo."""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonkit import (
    DomainError,
    ImpossibleSubtractionError,
    OrderRangeError,
    PhotonModel,
    SubtractionRecord,
    UnsupportedModelError,
    autocorr_from_means,
    autocorrelation,
    conditional_autocorr,
    mc_subtract,
    moments,
    pgf_derivative,
    pgf_eval,
    pmf_values,
    sample_counts,
    subtract_analytic,
    subtract_finite_p,
)
from photonkit.subtraction import _chain, _chain_acceptance


# ---------------------------------------------------------------------------
# ideal (p -> 0) subtraction


def test_single_subtraction_thermal_doubles_the_mean():
    record = subtract_analytic(PhotonModel.compound_poisson(3.034, 1.0), 1)
    assert record.result.mu == pytest.approx(6.068, rel=1e-12)
    assert record.result.a == 2.0
    assert record.step_means == (pytest.approx(6.068, rel=1e-12),)


def test_ten_step_chain_closed_form():
    # mu_m = mu (a + m) / a, a_m = a + m
    record = subtract_analytic(PhotonModel.compound_poisson(3.034, 1.0), 10)
    assert abs(record.result.mu - 33.374) < 1e-9
    assert record.result.a == 11.0
    assert record.m == 10
    assert len(record.step_means) == 10
    assert all(b > c for b, c in zip(record.step_means[1:], record.step_means[:-1]))


def test_record_marks_ideal_limit():
    record = subtract_analytic(PhotonModel.compound_poisson(3.0, 1.0), 2)
    assert record.p is None
    assert record.mc_acceptance is None
    assert record.initial == PhotonModel.compound_poisson(3.0, 1.0)


@pytest.mark.parametrize("mu,a", [(3.034, 1.0), (5.98, 2.0), (1.0, 0.5)])
def test_subtracted_mean_exceeds_original(mu, a):
    record = subtract_analytic(PhotonModel.compound_poisson(mu, a), 1)
    assert record.result.mu > mu


def test_binomial_fock_subtraction_reduces_n():
    record = subtract_analytic(PhotonModel.binomial_fock(3, 3.0), 2)
    assert record.result.n == 1
    assert record.result.mu == pytest.approx(1.0)
    assert record.step_means == (pytest.approx(2.0), pytest.approx(1.0))


def test_binomial_fock_rejects_overdrawn_subtraction():
    with pytest.raises(ImpossibleSubtractionError):
        subtract_analytic(PhotonModel.binomial_fock(2, 2.0), 2)


def test_hierarchy_does_not_close_under_subtraction():
    with pytest.raises(UnsupportedModelError):
        subtract_analytic(PhotonModel.hierarchy(3.0, (0.5, 2.0)), 1)


def test_subtraction_count_must_be_positive():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    for m in (0, -1):
        with pytest.raises(DomainError):
            subtract_analytic(model, m)


def test_poisson_state_is_a_fixed_point():
    """Subtraction leaves a coherent-state photon distribution unchanged."""
    model = PhotonModel.poisson(2.5)
    record = subtract_analytic(model, 3)
    assert np.max(
        np.abs(pmf_values(record.result, 40) - pmf_values(model, 40))
    ) < 1e-9


def test_ideal_subtraction_keeps_a_pure_fock_state_exact():
    rng = np.random.default_rng(53)
    ns = np.exp(rng.uniform(math.log(2.0), math.log(2.0**53), 400)).astype(np.int64)
    for n in [*(int(v) for v in ns), 2, 3, 10**8 + 7, 2**53 - 1, 2**53]:
        record = subtract_analytic(PhotonModel.binomial_fock(n, float(n)), min(n - 1, 3))
        for step, state_mu in enumerate(record.step_means, start=1):
            assert state_mu == float(n - step)
        assert record.result.n == n - record.m


def test_binomial_fock_above_two_to_the_53_is_rejected():
    assert PhotonModel.binomial_fock(2**53, 1.0).n == 2**53
    for n in (2**53 + 1, 2**60):
        with pytest.raises(DomainError):
            PhotonModel.binomial_fock(n, 1.0)
    with pytest.raises(DomainError):
        PhotonModel.from_dict({"kind": "binomial_fock", "mu": 1.0, "a": -(2.0**54)})


def test_ideal_steps_are_the_former_expressions_bit_for_bit():
    for mu in np.geomspace(0.01, 300.0, 9):
        mu = float(mu)
        assert subtract_analytic(PhotonModel.poisson(mu), 1).result.mu == mu
        for a in [*np.geomspace(0.01, 1e6, 9), 1.0, 0.37]:
            a = float(a)
            step = subtract_analytic(PhotonModel.compound_poisson(mu, a), 1).result
            assert step.a == a + 1.0
            assert step.mu == mu * (a + 1.0) / a
    # binomial light steps as the finite-p binomial arm at p = 0
    for n in (2, 3, 7, 40, 1000):
        for mu in (0.3, 0.5 * n, n - 1e-9, float(n)):
            step = subtract_analytic(PhotonModel.binomial_fock(n, mu), 1).result
            assert step.n == n - 1
            assert step.mu == (n - 1) * (mu / n)


def _former_ideal_chain(mu, a, m):
    """(mu, a) after m ideal steps, as the former per-stage rebuild formed them."""
    for _ in range(m):
        mu, a = mu * (a + 1.0) / a, a + 1.0
    return mu, a


def test_chain_walks_the_former_ideal_chain_bit_for_bit():
    thermal = PhotonModel.compound_poisson(3.034, 1.0)
    states = list(islice(_chain(thermal), 11))
    assert states[0] is thermal
    for m, state in enumerate(states):
        assert (state.mu, state.a) == _former_ideal_chain(3.034, 1.0, m)
        if m:
            assert subtract_analytic(thermal, m).result == state


def _former_chain_acceptance(thermal, m, p):
    acceptance = 1.0
    model = thermal
    for _ in range(m):
        acceptance *= p * pgf_derivative(model, 1, 1.0 - p)
        model = subtract_finite_p(model, p)
    return acceptance


def test_chain_acceptance_is_the_former_loop_bit_for_bit():
    for p in (0.01, 0.05, 0.3):
        for mu in (0.1, 1.0, 3.034, 12.0):
            for a in (0.5, 1.0, 2.0, 7.5):
                model = PhotonModel.compound_poisson(mu, a)
                for m in range(11):
                    assert _chain_acceptance(model, m, p) == _former_chain_acceptance(
                        model, m, p
                    )


# ---------------------------------------------------------------------------
# subtraction records


def test_record_validates_its_fields():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    step = subtract_analytic(model, 1).result
    for m in (0, -1, 1.5):
        with pytest.raises(DomainError):
            SubtractionRecord(initial=model, m=m, p=None, step_means=(step.mu,), result=step)
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            SubtractionRecord(initial=model, m=1, p=p, step_means=(step.mu,), result=step)
    for means in ((), (step.mu, step.mu)):
        with pytest.raises(DomainError):
            SubtractionRecord(initial=model, m=1, p=None, step_means=means, result=step)


def test_record_round_trips_through_its_dict():
    record = subtract_analytic(PhotonModel.compound_poisson(3.034, 1.0), 3)
    assert SubtractionRecord.from_dict(record.to_dict()) == record
    data = {**record.to_dict(), "p": 0.05, "mc_acceptance": [0.1, 0.2, 0.3]}
    again = SubtractionRecord.from_dict(data)
    assert again.to_dict() == data
    assert again.mc_acceptance == (0.1, 0.2, 0.3)
    with pytest.raises(DomainError):
        SubtractionRecord.from_dict({**record.to_dict(), "extra": 1})


# ---------------------------------------------------------------------------
# finite detection probability


def test_finite_p_mean_below_ideal():
    base = PhotonModel.compound_poisson(3.034, 1.0)
    sub = subtract_finite_p(base, 0.01)
    assert sub.mu == pytest.approx(5.830424908282702, rel=1e-12)
    assert sub.a == 2.0
    assert sub.mu < subtract_analytic(base, 1).result.mu


def test_finite_p_approaches_ideal_limit():
    base = PhotonModel.compound_poisson(3.034, 1.0)
    ideal = subtract_analytic(base, 1).result.mu
    previous = None
    for p in (1e-2, 1e-4, 1e-6):
        gap = abs(subtract_finite_p(base, p).mu - ideal)
        if previous is not None:
            assert gap < previous
        previous = gap
    assert previous < 1e-4


@given(
    mu=st.floats(0.2, 10.0),
    a=st.floats(0.3, 20.0),
    p=st.floats(1e-4, 0.5),
    z=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_finite_p_state_matches_tilted_derivative(mu, a, p, z):
    """G_sub(z) = G'(z(1-p)) / G'(1-p) for single-photon heralding."""
    base = PhotonModel.compound_poisson(mu, a)
    sub = subtract_finite_p(base, p)
    lhs = pgf_eval(sub, z)
    rhs = pgf_derivative(base, 1, z * (1.0 - p)) / pgf_derivative(base, 1, 1.0 - p)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_finite_p_validates_probability():
    base = PhotonModel.compound_poisson(3.0, 1.0)
    for p in (0.0, 1.0, -0.2, math.nan):
        with pytest.raises(DomainError):
            subtract_finite_p(base, p)


def test_finite_p_record_chain():
    """Chained finite-p subtraction shifts every plateau below the ideal chain."""
    base = PhotonModel.compound_poisson(3.034, 1.0)
    model = base
    ideal = subtract_analytic(base, 3)
    for step_mean in ideal.step_means:
        model = subtract_finite_p(model, 0.01)
        assert model.mu < step_mean


@pytest.mark.parametrize("p", [1e-4, 0.01, 0.05, 0.5, 0.99])
def test_finite_p_keeps_a_pure_fock_state_exact(p):
    for n in range(2, 41):
        sub = subtract_finite_p(PhotonModel.binomial_fock(n, float(n)), p)
        assert sub.n == n - 1
        assert sub.mu == float(n - 1)


def test_finite_p_maps_are_the_former_expressions_bit_for_bit():
    for p in (1e-4, 0.01, 0.05, 0.5, 0.99):
        for mu in np.geomspace(0.01, 300.0, 9):
            mu = float(mu)
            assert subtract_finite_p(PhotonModel.poisson(mu), p).mu == mu * (1.0 - p)
            for a in np.geomspace(0.01, 1e6, 9):
                a = float(a)
                sub = subtract_finite_p(PhotonModel.compound_poisson(mu, a), p)
                assert sub.a == a + 1.0
                assert sub.mu == (a + 1.0) * (1.0 - p) * (mu / a) / (1.0 + mu * p / a)


def test_both_subtraction_routes_share_the_closure_check():
    for model, error in (
        (PhotonModel.binomial_fock(1, 0.5), ImpossibleSubtractionError),
        (PhotonModel.hierarchy(3.0, (0.5, 2.0)), UnsupportedModelError),
    ):
        with pytest.raises(error):
            subtract_analytic(model, 1)
        with pytest.raises(error):
            subtract_finite_p(model, 0.1)


# ---------------------------------------------------------------------------
# Monte Carlo subtraction


def test_mc_constant_counts_acceptance():
    # with every input at k=5 the herald fires with probability k p (1-p)^(k-1)
    rng = np.random.default_rng(3)
    counts = np.full(400_000, 5)
    kept, acceptance = mc_subtract(counts, 0.1, rng)
    assert np.array_equal(np.unique(kept), [4])
    expected = 5 * 0.1 * 0.9**4
    se = math.sqrt(expected * (1 - expected) / counts.size)
    assert abs(acceptance - expected) < 4 * se


def test_mc_acceptance_matches_pgf_derivative():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    rng = np.random.default_rng(0)
    counts = sample_counts(model, 200_000, rng)
    kept, acceptance = mc_subtract(counts, 0.01, rng)
    expected = 0.01 * pgf_derivative(model, 1, 0.99)
    se = math.sqrt(expected * (1 - expected) / counts.size)
    assert abs(acceptance - expected) < 4 * se
    assert kept.size == pytest.approx(acceptance * counts.size, abs=0.5)


def test_mc_kept_counts_follow_finite_p_law():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    law = subtract_finite_p(model, 0.01)
    rng = np.random.default_rng(3)
    counts = sample_counts(model, 1_000_000, rng)
    kept, _ = mc_subtract(counts, 0.01, rng)
    hist = np.bincount(kept, minlength=60)[:60] / kept.size
    tv = 0.5 * np.abs(hist - pmf_values(law, 60)).sum()
    assert tv < 0.01
    se_mean = math.sqrt(moments(law)[1] / kept.size)
    assert abs(kept.mean() - law.mu) < 3 * se_mean


def test_mc_zero_counts_never_accepted():
    rng = np.random.default_rng(1)
    kept, acceptance = mc_subtract(np.zeros(1000, dtype=np.int64), 0.5, rng)
    assert kept.size == 0
    assert acceptance == 0.0


def test_mc_empty_pool_warns_and_keeps_nothing():
    with pytest.warns(RuntimeWarning, match="empty pool"):
        kept, acceptance = mc_subtract(np.array([], dtype=np.int64), 0.1, np.random.default_rng(0))
    assert kept.dtype == np.int64
    assert kept.size == 0
    assert acceptance == 0.0


def test_mc_two_dimensional_counts_are_rejected():
    with pytest.raises(DomainError):
        mc_subtract(np.ones((2, 3), dtype=np.int64), 0.01, np.random.default_rng(0))


def test_mc_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        mc_subtract(np.array([1.5, 2.0]), 0.01, rng)
    with pytest.raises(DomainError):
        mc_subtract(np.array([-1, 2]), 0.01, rng)
    with pytest.raises(DomainError):
        mc_subtract(np.array([1, 2]), 0.0, rng)


# ---------------------------------------------------------------------------
# conditional correlation functions


@pytest.mark.parametrize("m_sub", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 3])
def test_conditional_autocorr_two_paths_agree(m_sub, order):
    """Ratio formula through g^(m+n) must match the subtracted model directly."""
    model = PhotonModel.compound_poisson(3.034, 1.0)
    via_ratios = conditional_autocorr(model, m_sub, order)
    direct = autocorrelation(subtract_analytic(model, m_sub).result, order)
    assert abs(via_ratios - direct) < 1e-12 * direct


def test_conditional_autocorr_zero_subtractions_is_plain_autocorrelation():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    assert conditional_autocorr(model, 0, 2) == autocorrelation(model, 2)


def test_conditional_autocorr_validates_arguments():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    with pytest.raises(DomainError):
        conditional_autocorr(model, 2, 1)
    with pytest.raises(DomainError):
        conditional_autocorr(model, -1, 2)


def _exact_rising_ratio(a, n):
    """(a)_n / a^n as an exact rational product of (a + i) / a."""
    out = Fraction(1)
    for i in range(n):
        out *= (a + i) / a
    return out


def test_conditional_autocorr_matches_the_exact_rational_product():
    """g_m^(n) = (a + m)_n / (a + m)^n to 1e-14, with no lgamma cancellation at large a."""
    for mu in (0.01, 1.0, 30.0):
        for a in [*np.geomspace(0.01, 1e6, 9), 0.37, 1.0]:
            model = PhotonModel.compound_poisson(mu, float(a))
            for m in range(1, 19):
                for n in range(2, 21 - m):
                    exact = _exact_rising_ratio(Fraction(float(a)) + m, n)
                    value = conditional_autocorr(model, m, n)
                    assert abs(Fraction(value) - exact) <= Fraction(1, 10**14) * exact
    # The former lgamma route read 1.0001710445636316 here, 3.1e-8 off.
    model = PhotonModel.compound_poisson(0.01, 1e6)
    assert conditional_autocorr(model, 1, 19) == pytest.approx(1.0001710133956359, rel=1e-14)


def test_conditional_autocorr_of_binomial_light():
    for n in range(2, 12):
        model = PhotonModel.binomial_fock(n, 0.6 * n)
        for m in range(1, n):
            for order in range(2, 21 - m):
                value = conditional_autocorr(model, m, order)
                exact = _exact_rising_ratio(Fraction(m - n), order)
                assert abs(Fraction(value) - exact) <= Fraction(1, 10**14) * abs(exact)
                assert math.copysign(1.0, value) == 1.0
        with pytest.raises(ImpossibleSubtractionError):
            conditional_autocorr(model, n, 2)


def test_conditional_autocorr_of_other_kinds():
    assert conditional_autocorr(PhotonModel.poisson(2.0), 3, 4) == 1.0
    with pytest.raises(UnsupportedModelError):
        conditional_autocorr(PhotonModel.hierarchy(3.0, (0.5, 2.0)), 1, 2)
    with pytest.raises(OrderRangeError):
        conditional_autocorr(PhotonModel.compound_poisson(3.0, 1.0), 10, 11)


# ---------------------------------------------------------------------------
# correlation recovery from measured means


def test_autocorr_from_means_ideal_thermal_chain():
    mu0 = 3.034
    record = subtract_analytic(PhotonModel.compound_poisson(mu0, 1.0), 10)
    report = autocorr_from_means(mu0, record.step_means)
    assert report.orders == tuple(range(2, 12))
    for order, value in zip(report.orders, report.log_g_values):
        assert value == pytest.approx(math.log(math.factorial(order)), abs=1e-9)
    assert report.sigma_log_g == tuple([0.0] * 10)


def test_autocorr_from_means_small_example():
    report = autocorr_from_means(3.034, [6.068, 9.102])
    assert report.orders == (2, 3)
    assert report.g_values[0] == pytest.approx(2.0, rel=1e-12)
    assert report.g_values[1] == pytest.approx(6.0, rel=1e-12)


def test_autocorr_from_means_propagates_uncertainty():
    quiet = autocorr_from_means(3.034, [6.068], sigma_mu0=0.0, step_sigmas=[0.0])
    noisy = autocorr_from_means(3.034, [6.068], sigma_mu0=0.02, step_sigmas=[0.05])
    assert quiet.sigma_log_g == (0.0,)
    assert noisy.sigma_log_g[0] > 0.0
    # quadrature sum of the two relative errors
    expected = math.sqrt((0.02 / 3.034) ** 2 + (0.05 / 6.068) ** 2)
    assert noisy.sigma_log_g[0] == pytest.approx(expected, rel=1e-6)


def test_autocorr_from_means_validates_input():
    with pytest.raises(DomainError):
        autocorr_from_means(0.0, [6.068])
    with pytest.raises(DomainError):
        autocorr_from_means(3.034, [6.068], step_sigmas=[0.1, 0.2])


def test_autocorr_from_means_empty_chain_gives_empty_report():
    report = autocorr_from_means(3.034, [])
    assert report.orders == ()
    assert report.g_values == ()
