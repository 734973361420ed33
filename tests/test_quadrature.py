"""Homodyne quadrature distributions, sampling, and persistence."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from photonkit import (
    DomainError,
    PhotonKitError,
    PhotonModel,
    SamplingError,
    hermite_function,
    load_samples,
    quadrature_cdf,
    quadrature_moments,
    quadrature_pdf,
    quadrature_quantiles,
    sample_counts,
    sample_for_counts,
    sample_quadratures,
    save_samples,
)
from photonkit import quadrature
from photonkit.photon_stats import MAX_FOCK_CUTOFF

THERMAL = PhotonModel.compound_poisson(3.034, 1.0)


# ---------------------------------------------------------------------------
# Hermite oscillator eigenfunctions


def test_hermite_ground_state_closed_form():
    x = np.linspace(-3, 3, 13)
    expected = np.pi**-0.25 * np.exp(-0.5 * x**2)
    assert np.max(np.abs(hermite_function(0, x) - expected)) < 1e-14


def test_hermite_first_excited_closed_form():
    x = np.linspace(-3, 3, 13)
    expected = np.sqrt(2.0) * np.pi**-0.25 * x * np.exp(-0.5 * x**2)
    assert np.max(np.abs(hermite_function(1, x) - expected)) < 1e-14


@pytest.mark.parametrize("j,k", [(0, 0), (0, 2), (1, 1), (3, 7), (20, 20), (19, 20)])
def test_hermite_orthonormality(j, k):
    x = np.linspace(-25.0, 25.0, 20001)
    overlap = integrate.trapezoid(hermite_function(j, x) * hermite_function(k, x), x)
    assert overlap == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)


def test_hermite_parity():
    x = np.linspace(0.1, 6.0, 40)
    for k in (0, 1, 4, 9):
        left = hermite_function(k, -x)
        right = hermite_function(k, x)
        sign = 1.0 if k % 2 == 0 else -1.0
        assert np.array_equal(left, sign * right)


def test_hermite_stable_at_high_order():
    # naive Hermite-polynomial evaluation overflows near k ~ 100
    x = np.linspace(-30.0, 30.0, 4001)
    values = hermite_function(200, x)
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 1.0
    norm = integrate.trapezoid(np.asarray(values) ** 2, x)
    assert norm == pytest.approx(1.0, abs=1e-7)


def test_hermite_scalar_and_validation():
    assert hermite_function(0, 0.0) == pytest.approx(np.pi**-0.25, rel=1e-15)
    with pytest.raises(DomainError):
        hermite_function(-1, 0.0)


class _TwoSidedRecurrence:
    """Reference: the Hermite kernel with both rescale branches.

    The arithmetic of the former kernel (float exponent, up- and
    down-scaling, both mantissas tested, exponents clipped to +-2400 on
    read), so the one-sided kernel can be pinned against it bit for bit.
    ``advance`` is split into ``step`` and ``rescale`` so a test can look
    between them.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        self.x = x
        log2_phi0 = -x * x / (2.0 * math.log(2.0))
        self.exponent = np.floor(log2_phi0)
        self.u = math.pi**-0.25 * np.exp2(log2_phi0 - self.exponent)
        self.v = np.zeros_like(x)
        self.k = 0

    def step(self):
        k = self.k
        w = self.x * math.sqrt(2.0 / (k + 1)) * self.u - math.sqrt(k / (k + 1.0)) * self.v
        self.v = self.u
        self.u = w
        self.k = k + 1
        return np.maximum(np.abs(self.u), np.abs(self.v))

    def rescale(self, scale):
        high = scale > 2.0**500
        if high.any():
            self.u[high] *= 2.0**-500
            self.v[high] *= 2.0**-500
            self.exponent[high] += 500
        low = (scale < 2.0**-500) & (scale > 0.0)
        if low.any():
            self.u[low] *= 2.0**500
            self.v[low] *= 2.0**500
            self.exponent[low] -= 500

    def advance(self):
        self.rescale(self.step())

    def phi(self):
        return np.ldexp(self.u, np.clip(self.exponent, -2400, 2400).astype(np.int32))

    def phi_squared(self):
        exponent = np.clip(2.0 * self.exponent, -2400, 2400).astype(np.int32)
        return np.ldexp(self.u * self.u, exponent)


def test_hermite_kernel_matches_the_two_sided_recurrence_bit_for_bit():
    rng = np.random.default_rng(2024)
    x = np.concatenate([
        *(rng.normal(0.0, sd, 1000) for sd in (1.0, 2.5, 5.8, 10.0)),
        rng.uniform(-quadrature.MAX_ABS_X, quadrature.MAX_ABS_X, 1000),
        [-quadrature.MAX_ABS_X, quadrature.MAX_ABS_X, 0.0],
    ])
    kernel, reference = quadrature._HermiteRecurrence(x), _TwoSidedRecurrence(x)
    for k in range(MAX_FOCK_CUTOFF + 1):
        if k:
            kernel.advance()
            reference.advance()
        assert np.array_equal(kernel.phi(), reference.phi()), k
        assert np.array_equal(kernel.phi_squared(), reference.phi_squared()), k
        if k in (1, 37, MAX_FOCK_CUTOFF):
            started = quadrature._HermiteRecurrence(x, k)
            assert started.k == k
            assert np.array_equal(started.phi_squared(), reference.phi_squared())
    assert kernel.exponent.dtype == np.int32


def test_hermite_mantissa_bounds_make_one_rescale_rule_enough():
    # Between step and rescale: max(|u|, |v|) >= 2^-500 means the
    # up-scaling branch never fires, and |v| <= 2^500 means testing |u|
    # alone picks the same points as testing max(|u|, |v|).
    x = np.linspace(-quadrature.MAX_ABS_X, quadrature.MAX_ABS_X, 40001)
    reference = _TwoSidedRecurrence(x)
    smallest, largest_v = math.inf, 0.0
    for _ in range(MAX_FOCK_CUTOFF):
        scale = reference.step()
        smallest = min(smallest, float(scale.min()))
        largest_v = max(largest_v, float(np.abs(reference.v).max()))
        reference.rescale(scale)
    assert smallest >= 2.0**-500
    assert largest_v <= 2.0**500


# ---------------------------------------------------------------------------
# quadrature distribution


def test_pdf_normalisation_and_symmetry():
    x = np.linspace(-30.0, 30.0, 6001)
    pdf = quadrature_pdf(THERMAL, x)
    assert np.all(pdf >= 0.0)
    assert integrate.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-9)
    xs = np.array([0.7, 1.3, 2.9, 5.0])
    assert np.array_equal(quadrature_pdf(THERMAL, xs), quadrature_pdf(THERMAL, -xs))


def test_single_photon_pdf_closed_form():
    model = PhotonModel.binomial_fock(1, 1.0)
    x = np.linspace(-4.0, 4.0, 33)
    expected = 2.0 * x**2 * np.exp(-(x**2)) / math.sqrt(math.pi)
    assert np.max(np.abs(quadrature_pdf(model, x) - expected)) < 1e-14


def test_vacuum_like_limit_is_gaussian():
    """A barely populated state is indistinguishable from the vacuum Gaussian."""
    model = PhotonModel.compound_poisson(1e-9, 1.0)
    x = np.linspace(-4.0, 4.0, 81)
    gaussian = stats.norm.pdf(x, scale=math.sqrt(0.5))
    assert np.max(np.abs(quadrature_pdf(model, x) - gaussian)) < 1e-7


def test_thermal_quadrature_is_exactly_gaussian():
    """a = 1 closes the Gaussian family: P(x) = N(0, mu + 1/2)."""
    sigma = math.sqrt(3.034 + 0.5)
    x = np.linspace(-5 * sigma, 5 * sigma, 2001)
    sup = np.max(np.abs(quadrature_pdf(THERMAL, x) - stats.norm.pdf(x, scale=sigma)))
    assert sup < 1e-10


def test_tail_weight_ordered_by_clusterization():
    # a < 1 piles quadrature mass into the tails, a > 1 strips it
    sigma = math.sqrt(3.034 + 0.5)
    tail = 4.0 * sigma
    gaussian = stats.norm.pdf(tail, scale=sigma)
    assert quadrature_pdf(PhotonModel.compound_poisson(3.034, 0.5), tail) > 2 * gaussian
    assert quadrature_pdf(PhotonModel.compound_poisson(3.034, 10.0), tail) < gaussian / 2


def test_cdf_monotone_and_calibrated():
    x = np.linspace(-12.0, 12.0, 401)
    cdf = quadrature_cdf(THERMAL, x)
    assert np.all(np.diff(cdf) >= 0.0)
    assert cdf[0] < 1e-6
    assert cdf[-1] > 1.0 - 1e-6
    assert quadrature_cdf(THERMAL, 0.0) == pytest.approx(0.5, abs=1e-9)


def test_quantiles_invert_cdf():
    probs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    q = quadrature_quantiles(THERMAL, probs)
    assert np.all(np.diff(q) > 0.0)
    assert np.max(np.abs(quadrature_cdf(THERMAL, q) - probs)) < 1e-9
    assert q[2] == pytest.approx(0.0, abs=1e-9)


def test_quantiles_validate_probabilities():
    for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1], [1.5]):
        with pytest.raises(DomainError):
            quadrature_quantiles(THERMAL, bad)


# ---------------------------------------------------------------------------
# quadrature moments


@pytest.mark.parametrize("mu", [0.5, 3.034, 10.0])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_variance_is_mean_plus_half(mu, a):
    model = PhotonModel.compound_poisson(mu, a)
    assert quadrature_moments(model).variance == pytest.approx(mu + 0.5, rel=1e-12)


def test_moments_closed_form_against_numeric_integration():
    x = np.linspace(-40.0, 40.0, 16001)
    for model in (
        THERMAL,
        PhotonModel.hierarchy(1.5, (2.0,)),
        PhotonModel.hierarchy(3.034, (1.0 / 3.034, 10.0 / 3.034)),
        PhotonModel.hierarchy(2.0, (0.4, 2.5, 10.0)),
    ):
        moments = quadrature_moments(model)
        pdf = quadrature_pdf(model, x)
        m2 = integrate.trapezoid(x**2 * pdf, x)
        m4 = integrate.trapezoid(x**4 * pdf, x)
        assert moments.variance == pytest.approx(m2, rel=1e-7)
        assert moments.excess_kurtosis == pytest.approx(m4 / m2**2 - 3.0, abs=1e-6)
        assert moments.skewness == 0.0
        assert moments.method == "closed_form"


@pytest.mark.parametrize("mu", [1.0, 3.0, 10.0])
@pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
def test_excess_kurtosis_closed_form(mu, a):
    model = PhotonModel.compound_poisson(mu, a)
    expected = -6.0 * (mu / (2.0 * mu + 1.0)) ** 2 * (a - 1.0) / a
    assert quadrature_moments(model).excess_kurtosis == pytest.approx(
        expected, abs=1e-12
    )


def test_thermal_quadrature_has_zero_excess_kurtosis():
    assert quadrature_moments(THERMAL).excess_kurtosis == 0.0


def test_hierarchy_moments_are_closed_form():
    model = PhotonModel.hierarchy(3.034, (1.0 / 3.034, 10.0 / 3.034))
    moments = quadrature_moments(model)
    assert moments.method == "closed_form"
    assert moments.variance == pytest.approx(3.534, abs=1e-8)
    assert abs(moments.skewness) < 1e-12


def _simpson_moments(model):
    """The former hierarchy route: Simpson integration of x^2..x^4 P(x)."""
    edges, _ = quadrature._cdf_grid(model)
    mids = 0.5 * (edges[:-1] + edges[1:])
    f_edges = quadrature_pdf(model, edges)
    f_mids = quadrature_pdf(model, mids)
    h = edges[1] - edges[0]

    def integral(power):
        ge = edges**power * f_edges
        gm = mids**power * f_mids
        return float(np.sum((h / 6.0) * (ge[:-1] + 4.0 * gm + ge[1:])))

    m2, m3, m4 = integral(2), integral(3), integral(4)
    return m2, m3 / m2**1.5, m4 / m2**2 - 3.0


def test_hierarchy_moments_match_the_simpson_route():
    """Variance mu + 1/2 and kurtosis -6 (mu/(2mu+1))^2 (1 - sum 1/a_j) on random hierarchies.

    The Simpson route truncates the heavy tails at TAIL_MASS, which moves
    its kurtosis by up to a few 1e-9 on clustered hierarchies.
    """
    rng = np.random.default_rng(23)
    for _ in range(8):
        mu = float(rng.uniform(0.5, 12.0))
        levels = tuple(
            float(10 ** rng.uniform(-0.5, 1.5)) / mu for _ in range(rng.integers(1, 4))
        )
        model = PhotonModel.hierarchy(mu, levels)
        closed = quadrature_moments(model)
        variance, skewness, kurtosis = _simpson_moments(model)
        assert closed.variance == mu + 0.5
        assert variance == pytest.approx(closed.variance, rel=1e-9)
        assert abs(skewness) < 1e-12
        assert closed.excess_kurtosis == pytest.approx(kurtosis, rel=1e-8, abs=1e-8)


def test_kurtosis_matches_the_former_shape_form():
    """1 - Q/mu against (a - 1)/a on Poisson, compound and binomial grids.

    Poisson light keeps its bits.  Elsewhere Q/mu = (mu/a)/mu carries two
    roundings of 1/a, which 1 - Q/mu cancels into the result near a = 1,
    so the bound is on the prefactor's scale: a few units of
    2^-53 * 6 (mu/(2mu+1))^2 * (1 + 1/|a|).
    """
    for mu in np.geomspace(0.01, 300.0, 13):
        mu = float(mu)
        assert quadrature_moments(PhotonModel.poisson(mu)).excess_kurtosis == (
            -6.0 * (mu / (2.0 * mu + 1.0)) ** 2
        )
        models = [PhotonModel.compound_poisson(mu, float(a)) for a in
                  [*np.geomspace(0.01, 1e6, 31), 1.0, 1.0 + 1e-10, 1.0 - 1e-10, 1.001]]
        models += [PhotonModel.binomial_fock(n, min(mu, float(n))) for n in (1, 2, 3, 7, 40)]
        for model in models:
            a, m = model.a, model.mu
            prefactor = 6.0 * (m / (2.0 * m + 1.0)) ** 2
            old = -6.0 * (m / (2.0 * m + 1.0)) ** 2 * ((a - 1.0) / a)
            new = quadrature_moments(model).excess_kurtosis
            assert abs(new - old) <= 6.0 * 2.0**-53 * prefactor * (1.0 + 1.0 / abs(a))


# ---------------------------------------------------------------------------
# sampling


def test_sample_counts_statistics():
    rng = np.random.default_rng(7)
    counts = sample_counts(THERMAL, 200_000, rng)
    assert counts.min() >= 0
    se_mean = math.sqrt(12.0 / counts.size)
    assert abs(counts.mean() - 3.034) < 4 * se_mean


def test_sample_for_counts_vacuum_component():
    rng = np.random.default_rng(2)
    values = sample_for_counts(np.zeros(50_000, dtype=np.int64), rng)
    assert abs(values.mean()) < 4 * math.sqrt(0.5 / values.size)
    assert values.var() == pytest.approx(0.5, abs=0.01)


def test_sample_quadratures_pass_ks():
    sample = sample_quadratures(THERMAL, 2000, np.random.default_rng(0))
    result = stats.kstest(sample.values, lambda x: quadrature_cdf(THERMAL, x))
    assert result.pvalue > 0.01


def test_sample_quadratures_seed_reproducible():
    a = sample_quadratures(THERMAL, 500, 42)
    b = sample_quadratures(THERMAL, 500, 42)
    assert np.array_equal(a.values, b.values)
    assert a.seed == 42
    assert a.source == THERMAL


def test_sample_quadratures_validation():
    with pytest.raises(DomainError):
        sample_quadratures(THERMAL, 0, np.random.default_rng(0))
    with pytest.raises(DomainError):
        sample_counts(THERMAL, -5, np.random.default_rng(0))


def test_violated_envelope_raises_sampling_error(monkeypatch):
    monkeypatch.setattr(quadrature, "_ENVELOPE_COEFF", 0.1)
    with pytest.raises(SamplingError, match="envelope violated") as err:
        sample_for_counts(np.array([0, 3, 3]), np.random.default_rng(0))
    assert isinstance(err.value, PhotonKitError)
    assert isinstance(err.value, RuntimeError)


def test_sample_variance_tracks_model():
    sample = sample_quadratures(THERMAL, 100_000, np.random.default_rng(11))
    assert sample.values.var() == pytest.approx(3.534, rel=0.03)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_exact(tmp_path):
    sample = sample_quadratures(THERMAL, 1000, 42)
    path = tmp_path / "quads.csv"
    save_samples(sample, path)
    loaded = load_samples(path)
    assert np.array_equal(loaded.values, sample.values)
    assert loaded.source == THERMAL
    assert loaded.seed == 42


def test_save_load_without_provenance(tmp_path):
    sample = sample_quadratures(THERMAL, 50, np.random.default_rng(3))
    bare = type(sample)(values=sample.values, source=None, seed=None)
    path = tmp_path / "bare.csv"
    save_samples(bare, path)
    assert not (tmp_path / "bare.json").exists()
    loaded = load_samples(path)
    assert np.array_equal(loaded.values, sample.values)
    assert loaded.source is None


def test_load_rejects_malformed_files(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(DomainError):
        load_samples(missing)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("y\n1.0\n")
    with pytest.raises(DomainError):
        load_samples(bad_header)

    bad_value = tmp_path / "val.csv"
    bad_value.write_text("x\n1.0\nbanana\n")
    with pytest.raises(DomainError):
        load_samples(bad_value)

    non_finite = tmp_path / "inf.csv"
    non_finite.write_text("x\n1.0\ninf\n")
    with pytest.raises(DomainError):
        load_samples(non_finite)
