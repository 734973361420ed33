"""Photon-number statistics: PGF evaluation, pmf extraction, moments, correlations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from photonkit import (
    DomainError,
    ModelKind,
    OrderRangeError,
    PhotonModel,
    TruncationError,
    apply_loss,
    autocorrelation,
    fock_cutoff,
    moments,
    pgf_derivative,
    pgf_eval,
    pmf,
    pmf_values,
    quadrature_pdf,
    sample_quadratures,
)
from photonkit.photon_stats import MAX_FOCK_CUTOFF, MAX_ORDER, TAIL_MASS

MU_GRID = [0.3, 1.0, 3.034, 10.0]
A_GRID = [0.5, 1.0, 2.0, 11.0]


# ---------------------------------------------------------------------------
# construction and validation


def test_compound_poisson_rejects_bad_parameters():
    with pytest.raises(DomainError):
        PhotonModel.compound_poisson(0.0, 1.0)
    with pytest.raises(DomainError):
        PhotonModel.compound_poisson(-1.0, 1.0)
    with pytest.raises(DomainError):
        PhotonModel.compound_poisson(1.0, 0.0)
    with pytest.raises(DomainError):
        PhotonModel.compound_poisson(1.0, -2.0)
    with pytest.raises(DomainError):
        PhotonModel.compound_poisson(math.nan, 1.0)


def test_binomial_fock_rejects_bad_parameters():
    with pytest.raises(DomainError):
        PhotonModel.binomial_fock(0, 0.5)
    with pytest.raises(DomainError):
        PhotonModel.binomial_fock(4, 5.0)
    with pytest.raises(DomainError):
        PhotonModel.binomial_fock(-1, 0.5)


def test_hierarchy_rejects_bad_levels():
    with pytest.raises(DomainError):
        PhotonModel.hierarchy(3.0, ())
    with pytest.raises(DomainError):
        PhotonModel.hierarchy(3.0, (0.5, 0.0))
    with pytest.raises(DomainError):
        PhotonModel.hierarchy(0.0, (0.5,))


def test_model_accessors():
    cp = PhotonModel.compound_poisson(3.0, 2.0)
    assert cp.a == 2.0
    with pytest.raises(DomainError):
        cp.n

    fock = PhotonModel.binomial_fock(4, 4.0)
    assert fock.n == 4
    assert fock.a == -4.0

    hier = PhotonModel.hierarchy(3.0, (0.5, 2.0))
    assert hier.a is None
    assert hier.cluster_parameters == (1.5, 6.0)


def test_json_roundtrip_all_kinds():
    models = [
        PhotonModel.compound_poisson(3.034, 1.0),
        PhotonModel.poisson(2.5),
        PhotonModel.binomial_fock(5, 3.0),
        PhotonModel.hierarchy(5.98, (2.0 / 5.98, 8.46 / 5.98)),
    ]
    for model in models:
        assert PhotonModel.from_json(model.to_json()) == model


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(DomainError):
        PhotonModel.from_dict({"kind": "weird", "mu": 1.0})
    with pytest.raises(DomainError):
        PhotonModel.from_json("{nope")


# ---------------------------------------------------------------------------
# pmf against closed forms


def test_thermal_pmf_is_geometric():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    k = np.arange(32)
    expected = 3.0**k / 4.0 ** (k + 1.0)
    assert np.max(np.abs(pmf_values(model, 32) - expected)) < 1e-15


def test_poisson_pmf_matches_scipy():
    model = PhotonModel.poisson(2.7)
    k = np.arange(25)
    expected = stats.poisson.pmf(k, 2.7)
    assert np.max(np.abs(pmf_values(model, 25) - expected)) < 1e-12


def test_binomial_fock_pmf_matches_scipy():
    # n photons each surviving with probability mu/n
    model = PhotonModel.binomial_fock(4, 2.0)
    k = np.arange(6)
    expected = stats.binom.pmf(k, 4, 0.5)
    assert np.max(np.abs(pmf_values(model, 6) - expected)) < 1e-14
    assert pmf(model, 5) == 0.0


def test_pure_fock_pmf_is_a_point_mass():
    model = PhotonModel.binomial_fock(3, 3.0)
    values = pmf_values(model, 6)
    assert values[3] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.delete(values, 3) < 1e-12)


def test_hierarchy_single_level_equals_compound_poisson():
    mu, a = 3.0, 1.5
    level1 = PhotonModel.hierarchy(mu, (a / mu,))
    flat = PhotonModel.compound_poisson(mu, a)
    assert np.max(np.abs(pmf_values(level1, 40) - pmf_values(flat, 40))) < 5e-14


def test_pmf_rejects_bad_arguments():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    with pytest.raises(DomainError):
        pmf(model, -1)
    with pytest.raises(DomainError):
        pmf(model, 2.5)
    with pytest.raises(DomainError):
        pmf_values(model, 0)


@pytest.mark.parametrize("mu", MU_GRID)
@pytest.mark.parametrize("a", A_GRID)
def test_pmf_is_a_probability_vector(mu, a):
    model = PhotonModel.compound_poisson(mu, a)
    cutoff = fock_cutoff(model)
    values = pmf_values(model, cutoff + 1)
    assert np.all(values >= 0.0)
    assert abs(values.sum() - 1.0) < 1e-8


@pytest.mark.parametrize(
    "levels",
    [(1.0 / 3.034, 10.0 / 3.034), (2.0 / 5.98, 8.46 / 5.98), (0.5, 2.0, 8.0)],
)
def test_hierarchy_pmf_mass_and_mean(levels):
    model = PhotonModel.hierarchy(3.034, levels)
    cutoff = fock_cutoff(model)
    values = pmf_values(model, cutoff + 1)
    k = np.arange(values.size)
    assert np.all(values >= 0.0)
    assert abs(values.sum() - 1.0) < 1e-8
    assert abs(float(k @ values) - 3.034) < 1e-7


# ---------------------------------------------------------------------------
# generating function and factorial moments


def test_pgf_normalisation_and_vacuum():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    assert pgf_eval(model, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert pgf_eval(model, 0.0) == pytest.approx(pmf(model, 0), abs=1e-14)


def test_pgf_rejects_out_of_range_argument():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    for z in (1.2, -1.5, math.nan):
        with pytest.raises(DomainError):
            pgf_eval(model, z)


@pytest.mark.parametrize("mu", MU_GRID)
@pytest.mark.parametrize("a", A_GRID)
def test_factorial_moments_match_closed_form(mu, a):
    """m-th derivative of the PGF at z=1 is mu^m * prod_{j<m} (1 + j/a)."""
    model = PhotonModel.compound_poisson(mu, a)
    for order in (1, 2, 3, 5):
        expected = mu**order * math.prod(1.0 + j / a for j in range(order))
        assert pgf_derivative(model, order, 1.0) == pytest.approx(expected, rel=1e-12)


def test_pgf_derivative_validates_order():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    with pytest.raises(DomainError):
        pgf_derivative(model, 0, 1.0)
    with pytest.raises(DomainError):
        pgf_derivative(model, -1, 1.0)


@given(
    mu=st.floats(0.1, 20.0),
    a=st.floats(0.2, 50.0),
    z=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_pgf_envelope_bounds(mu, a, z):
    # a PGF of a nonnegative random variable satisfies 0 < G(z) <= 1 on [-1, 1]
    model = PhotonModel.compound_poisson(mu, a)
    value = pgf_eval(model, z)
    assert 0.0 < value <= 1.0 + 1e-12


def _power_series(probs: np.ndarray, order: int, z: float) -> tuple[float, float]:
    """sum_k k!/(k - m)! P(k) z^(k - m) and the same sum of absolute terms."""
    k = np.arange(order, probs.size, dtype=float)
    falling = np.prod([k - i for i in range(order)], axis=0)
    terms = falling * probs[order:] * z ** (k - order)
    return float(terms.sum()), float(np.abs(terms).sum())


_POISSON = st.builds(PhotonModel.poisson, st.floats(0.05, 30.0))
_BINOMIAL = st.integers(1, 60).flatmap(
    lambda n: st.floats(0.01, 1.0).map(lambda f: PhotonModel.binomial_fock(n, f * n))
)
_HIERARCHY = st.floats(0.1, 10.0).flatmap(
    lambda mu: st.builds(
        PhotonModel.hierarchy,
        st.just(mu),
        st.lists(st.floats(0.5, 50.0).map(lambda a: a / mu), min_size=1, max_size=3).map(tuple),
    )
)


@given(model=st.one_of(_POISSON, _BINOMIAL, _HIERARCHY), z=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pgf_eval_is_the_power_series_of_the_pmf(model, z):
    series, scale = _power_series(pmf_values(model), 0, z)
    assert pgf_eval(model, z) == pytest.approx(series, abs=1e-8 * scale)


@given(model=st.one_of(_POISSON, _BINOMIAL), order=st.integers(1, 6), z=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pgf_derivative_closed_forms_match_the_pmf(model, order, z):
    # At z = 1: mu^m g^(m).  Below: the differentiated power series, over
    # a pmf long enough that its tail is negligible at every order.
    value = pgf_derivative(model, order, z)
    if z == 1.0:
        g = 1.0 if order == 1 else autocorrelation(model, order)
        assert value == pytest.approx(model.mu**order * g, rel=1e-12)
    count = model.n + 1 if model.kind is ModelKind.BINOMIAL_FOCK else fock_cutoff(model) + 60
    series, scale = _power_series(pmf_values(model, count), order, z)
    assert value == pytest.approx(series, rel=1e-9, abs=1e-9 * scale)


def test_pgf_derivative_rejects_out_of_range_argument():
    for model in (
        PhotonModel.compound_poisson(3.0, 1.0),
        PhotonModel.poisson(2.0),
        PhotonModel.binomial_fock(3, 2.0),
        PhotonModel.hierarchy(2.0, (0.5, 4.0)),
    ):
        for z in (1.2, -1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                pgf_derivative(model, 2, z)


def test_hierarchy_series_overflow_is_an_order_range_error_without_warnings():
    # 1 / b overflows for b = 1e-310: an explicit count used to return
    # [0, nan, nan, ...] and print RuntimeWarnings on the way.
    model = PhotonModel.hierarchy(1.0, (1e-310,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrderRangeError, match="overflows"):
            pmf_values(model, 5)
        with pytest.raises(OrderRangeError, match="overflows"):
            pmf(model, 3)
        with pytest.raises(OrderRangeError, match="overflows"):
            autocorrelation(PhotonModel.hierarchy(1e-300, (1e-3, 1e3)), 2)


# ---------------------------------------------------------------------------
# moments


@pytest.mark.parametrize("mu", MU_GRID)
@pytest.mark.parametrize("a", A_GRID)
def test_mean_and_variance(mu, a):
    model = PhotonModel.compound_poisson(mu, a)
    mean, variance = moments(model)
    assert mean == pytest.approx(mu, rel=1e-12)
    assert variance == pytest.approx(mu + mu**2 / a, rel=1e-12)


def test_poisson_variance_equals_mean():
    mean, variance = moments(PhotonModel.poisson(4.2))
    assert variance == pytest.approx(mean, rel=1e-9)


def test_pure_fock_variance_is_zero():
    mean, variance = moments(PhotonModel.binomial_fock(4, 4.0))
    assert mean == 4.0
    assert abs(variance) < 1e-12


def test_hierarchy_moments_match_pmf():
    model = PhotonModel.hierarchy(3.034, (1.0 / 3.034, 10.0 / 3.034))
    mean, variance = moments(model)
    values = pmf_values(model, fock_cutoff(model) + 1)
    k = np.arange(values.size)
    assert mean == pytest.approx(float(k @ values), abs=1e-7)
    assert variance == pytest.approx(float((k - mean) ** 2 @ values), rel=1e-6)


def _shape_form_moments(model):
    """The former per-kind variance formulas."""
    mu = model.mu
    if model.kind == "compound_poisson":
        return mu, mu * (1.0 + mu / model.a)
    if model.kind == "poisson":
        return mu, mu
    if model.kind == "binomial_fock":
        return mu, mu * (1.0 - mu / model.n)
    return mu, mu * (1.0 + sum(1.0 / b for b in model.levels))


def _family_grid():
    """Compound, Poisson and binomial models across the parameter range."""
    models = [PhotonModel.poisson(float(mu)) for mu in np.geomspace(1e-3, 1e3, 13)]
    for mu in np.geomspace(1e-3, 1e3, 13):
        for a in [*np.geomspace(1e-3, 1e6, 19), 0.37, 1.0, 3.0, 12345.678]:
            models.append(PhotonModel.compound_poisson(float(mu), float(a)))
    for n in range(1, 41):
        for t in (0.01, 0.3, 0.5, 0.77, 0.99, 1.0):
            models.append(PhotonModel.binomial_fock(n, n * t))
    return models


def test_variance_is_the_former_formula_bit_for_bit():
    """var = mu (1 + Q) with the Mandel Q equals the per-kind forms exactly."""
    models = _family_grid()
    rng = np.random.default_rng(5)
    for _ in range(40):
        mu = float(10 ** rng.uniform(-2, 2))
        levels = tuple(float(10 ** rng.uniform(-2, 2)) for _ in range(rng.integers(1, 4)))
        models.append(PhotonModel.hierarchy(mu, levels))
    for model in models:
        assert moments(model) == _shape_form_moments(model)


# ---------------------------------------------------------------------------
# normalized correlation functions


def test_thermal_autocorrelation_is_factorial():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    for m in range(2, 7):
        assert autocorrelation(model, m) == pytest.approx(
            float(math.factorial(m)), rel=1e-12
        )


def test_g2_special_values():
    assert autocorrelation(PhotonModel.compound_poisson(3.0, 1.0), 2) == 2.0
    assert autocorrelation(PhotonModel.binomial_fock(1, 1.0), 2) == 0.0
    assert autocorrelation(PhotonModel.binomial_fock(4, 4.0), 2) == pytest.approx(0.75)
    near_poisson = PhotonModel.compound_poisson(3.0, 1e6)
    assert autocorrelation(near_poisson, 2) == pytest.approx(1.0 + 1e-6, rel=1e-12)


@pytest.mark.parametrize("mu,a", [(3.034, 1.0), (5.98, 2.0), (1.0, 0.5)])
def test_autocorrelation_two_evaluation_paths_agree(mu, a):
    """Ratio-product evaluation must agree with the raw derivative ratio."""
    model = PhotonModel.compound_poisson(mu, a)
    for m in (2, 3, 5, 8):
        direct = pgf_derivative(model, m, 1.0) / mu**m
        assert abs(autocorrelation(model, m) - direct) / direct < 1e-12


def _per_kind_autocorrelation(model, m):
    """The former per-kind product forms of g^(m)."""
    if model.kind == "poisson":
        return 1.0
    if model.kind == "binomial_fock":
        n = model.n
        if m > n:
            return 0.0
        out = 1.0
        for i in range(m):
            out *= (n - i) / n
        return out
    out = 1.0
    for i in range(m):
        out *= (model.a + i) / model.a
    return out


def test_autocorrelation_is_the_former_product_bit_for_bit():
    """One rising-ratio product for compound and binomial light: same bits, sign included."""
    for model in _family_grid():
        for m in range(2, MAX_ORDER + 1):
            new = autocorrelation(model, m)
            assert new.hex() == _per_kind_autocorrelation(model, m).hex()


def test_binomial_autocorrelation_past_n_is_positive_zero():
    # The factor at i = n is 0 / -n = -0.0; the next negative factor flips its sign.
    for m in range(3, MAX_ORDER + 1):
        value = autocorrelation(PhotonModel.binomial_fock(2, 2.0), m)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_overflowing_autocorrelation_raises_on_every_kind():
    model = PhotonModel.compound_poisson(1.0, 1e-300)
    assert autocorrelation(model, 2) == pytest.approx(1e300, rel=1e-12)
    with pytest.raises(OrderRangeError):
        autocorrelation(model, 20)
    with pytest.raises(OrderRangeError):
        autocorrelation(PhotonModel.hierarchy(1.0, (1e-300,)), 20)


def test_autocorrelation_order_validation():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    for m in (0, 1):
        with pytest.raises(DomainError):
            autocorrelation(model, m)
    with pytest.raises(OrderRangeError):
        autocorrelation(model, MAX_ORDER + 1)


def test_autocorrelation_supports_max_order():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    value = autocorrelation(model, MAX_ORDER)
    assert value == pytest.approx(float(math.factorial(MAX_ORDER)), rel=1e-10)


# ---------------------------------------------------------------------------
# loss channel


@pytest.mark.parametrize("t", [0.25, 0.6, 1.0])
def test_loss_scales_mean_and_preserves_a(t):
    model = PhotonModel.compound_poisson(3.034, 2.0)
    lossy = apply_loss(model, t)
    assert lossy.mu == pytest.approx(3.034 * t, rel=1e-12)
    assert lossy.a == 2.0


def test_loss_preserves_autocorrelation():
    """g^(m) is invariant under beam-splitter loss for every model kind."""
    models = [
        PhotonModel.compound_poisson(3.034, 1.0),
        PhotonModel.binomial_fock(5, 4.0),
        PhotonModel.hierarchy(3.0, (0.5, 2.0)),
    ]
    for model in models:
        lossy = apply_loss(model, 0.37)
        for m in (2, 3, 4):
            assert autocorrelation(lossy, m) == pytest.approx(
                autocorrelation(model, m), rel=1e-10
            )


def test_loss_validates_transmission():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    with pytest.raises(DomainError):
        apply_loss(model, 0.0)
    with pytest.raises(DomainError):
        apply_loss(model, 1.1)


def test_loss_on_hierarchy_preserves_cluster_parameters():
    model = PhotonModel.hierarchy(4.0, (0.5, 2.0))
    lossy = apply_loss(model, 0.6)
    assert lossy.mu == pytest.approx(2.4, rel=1e-12)
    assert lossy.cluster_parameters == pytest.approx(model.cluster_parameters)


# ---------------------------------------------------------------------------
# truncation


@pytest.mark.parametrize("mu", MU_GRID)
@pytest.mark.parametrize("a", A_GRID)
def test_fock_cutoff_tail_mass(mu, a):
    model = PhotonModel.compound_poisson(mu, a)
    cutoff = fock_cutoff(model)
    assert 1 <= cutoff <= MAX_FOCK_CUTOFF
    mass = pmf_values(model, cutoff + 1).sum()
    assert 1.0 - mass < 10.0 * TAIL_MASS


def test_fock_cutoff_grows_with_mu():
    small = fock_cutoff(PhotonModel.compound_poisson(1.0, 1.0))
    large = fock_cutoff(PhotonModel.compound_poisson(30.0, 1.0))
    assert large > small


def test_fock_cutoff_binomial_is_exact():
    assert fock_cutoff(PhotonModel.binomial_fock(7, 4.0)) == 7


# ---------------------------------------------------------------------------
# extreme but finite parameters stay inside the error taxonomy

#: mu (1 + mu/a) overflows, or the tail ratio rounds to 1; n past the ceiling.
UNBOUNDED_TAILS = [
    PhotonModel.compound_poisson(1e300, 1.0),
    PhotonModel.compound_poisson(1e6, 1e-300),
    PhotonModel.binomial_fock(5000, 5.0),
]


@pytest.mark.parametrize("model", UNBOUNDED_TAILS, ids=["mu1e300", "a1e-300", "n5000"])
def test_unbounded_fock_cutoff_raises_truncation(model):
    for call in (
        lambda: fock_cutoff(model),
        lambda: pmf_values(model),
        lambda: quadrature_pdf(model, 0.0),
        lambda: sample_quadratures(model, 5, 1),
    ):
        with pytest.raises(TruncationError):
            call()


def test_binomial_cutoff_at_the_ceiling_is_n():
    model = PhotonModel.binomial_fock(MAX_FOCK_CUTOFF, 5.0)
    assert fock_cutoff(model) == MAX_FOCK_CUTOFF
    assert pmf_values(model).size == MAX_FOCK_CUTOFF + 1


@pytest.mark.parametrize(
    "call,expected",
    [
        # mu^m underflows; g^(m) itself overflows through a_j = mu b_j ~ 1e-303.
        (lambda: autocorrelation(PhotonModel.hierarchy(1e-300, (1e-3, 1e3)), 10),
         OrderRangeError),
        # a_1 = mu b_1 underflows to 0: g^(m) ~ 1 / a_1^(m-1) overflows.
        (lambda: autocorrelation(PhotonModel.hierarchy(1e-300, (1e-30,)), 2), OrderRangeError),
        # a_1 = mu b_1 overflows: the level is Poissonian to double precision.
        (lambda: autocorrelation(PhotonModel.hierarchy(1e300, (1e300,)), 10), 1.0),
        # ln(mu / a) of an underflowed quotient; G^(5)(1) ~ 1e-1500 underflows.
        (lambda: pgf_derivative(PhotonModel.compound_poisson(1e-300, 1e300), 5, 1.0), 0.0),
    ],
)
def test_order_escapes_are_values_or_typed_errors(call, expected):
    if isinstance(expected, float):
        assert call() == expected
    else:
        with pytest.raises(expected):
            call()


def test_hierarchy_autocorrelation_matches_the_derivative_ratio():
    """g^(m) from the mean-1 rescaling against G^(m)(1) / mu^m."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        mu = float(10 ** rng.uniform(-1, 1.5))
        levels = tuple(float(10 ** rng.uniform(-1, 2)) / mu for _ in range(rng.integers(1, 4)))
        model = PhotonModel.hierarchy(mu, levels)
        for m in (2, 3, 5, 8, 12):
            direct = pgf_derivative(model, m, 1.0) / mu**m
            assert autocorrelation(model, m) == pytest.approx(direct, rel=1e-12)


def test_compound_first_derivative_keeps_the_log_ratio_form():
    """G'(z) sizes the Monte-Carlo pool: its bits stay those of ln(mu / a)."""
    for mu in np.geomspace(0.01, 300.0, 9):
        for a in np.geomspace(0.01, 1e6, 9):
            for z in (1.0, 0.95, 0.5, -1.0):
                old = math.exp(
                    math.lgamma(a + 1) - math.lgamma(a) + math.log(mu / a)
                    - (a + 1) * math.log1p(mu * (1.0 - z) / a)
                )
                model = PhotonModel.compound_poisson(float(mu), float(a))
                assert pgf_derivative(model, 1, z) == old
