"""Parameter recovery from quadrature data: moments, likelihood, model selection."""

import math

import numpy as np
import pytest

from photonkit import (
    BinningError,
    CampaignConfig,
    ConvergenceError,
    DomainError,
    FitMethod,
    ModelKind,
    PhotonModel,
    SubVacuumVarianceError,
    TruncationError,
    chi2_test,
    fidelity,
    fisher_errors,
    fit_hierarchy2,
    method_of_moments,
    mle_fit,
    moments_fit,
    run_campaign,
    sample_quadratures,
)
from photonkit.inference import A2_MAX, _QuadratureLikelihood

TRUTH = PhotonModel.compound_poisson(5.983, 1.605)


@pytest.fixture(scope="module")
def big_sample():
    return sample_quadratures(TRUTH, 25_000, 42)


# ---------------------------------------------------------------------------
# method of moments


def test_method_of_moments_inverts_simulation():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    sample = sample_quadratures(model, 200_000, 123)
    mu_hat, a_hat = method_of_moments(sample)
    assert abs(mu_hat - 3.034) < 0.02
    assert abs(a_hat - 1.0) < 0.05


def test_method_of_moments_accepts_plain_arrays():
    sample = sample_quadratures(PhotonModel.compound_poisson(3.0, 2.0), 50_000, 8)
    from_sample = method_of_moments(sample)
    from_array = method_of_moments(np.asarray(sample.values))
    assert from_sample == from_array


def test_method_of_moments_rejects_sub_vacuum_variance():
    rng = np.random.default_rng(0)
    squeezed = rng.normal(0.0, 0.05, 200)
    with pytest.raises(SubVacuumVarianceError):
        method_of_moments(squeezed)


def test_method_of_moments_needs_enough_samples():
    with pytest.raises(DomainError):
        method_of_moments(np.ones(29))


def test_method_of_moments_rejects_non_finite():
    values = np.array([0.5, math.nan] + [0.1] * 40)
    with pytest.raises(DomainError):
        method_of_moments(values)


def test_moments_fit_reports_bootstrap_errors(big_sample):
    fit = moments_fit(big_sample, reference=TRUTH)
    assert fit.method == FitMethod.MOMENTS_ONLY
    assert abs(fit.model.mu - 5.983) < 3 * fit.sigma_mu
    assert abs(fit.model.a - 1.605) < 3 * fit.sigma_a
    assert 0.01 < fit.sigma_mu < 0.1
    assert fit.chi2_significance > 0.01
    assert fit.fidelity_vs_reference > 0.999
    assert fit.sample_size == 25_000


# ---------------------------------------------------------------------------
# maximum likelihood


def test_mle_recovers_truth(big_sample):
    fit = mle_fit(big_sample, reference=TRUTH)
    assert fit.method == FitMethod.MAX_LIKELIHOOD
    assert abs(fit.model.mu - 5.983) < 3 * fit.sigma_mu
    assert abs(fit.model.a - 1.605) < 3 * fit.sigma_a
    # regression anchor for the pinned seed
    assert fit.model.mu == pytest.approx(5.9317, abs=5e-3)
    assert fit.model.a == pytest.approx(1.6113, abs=5e-3)
    assert fit.sigma_mu == pytest.approx(0.0501, abs=0.01)
    assert fit.error_method == "fisher"
    assert not fit.boundary_pinned
    assert fit.chi2_significance > 0.01
    assert fit.fidelity_vs_reference > 0.999


def test_mle_likelihood_never_below_moments_start(big_sample):
    fit = mle_fit(big_sample)
    mu0, a0 = method_of_moments(big_sample)
    from photonkit.inference import _QuadratureLikelihood

    likelihood = _QuadratureLikelihood(np.asarray(big_sample.values))
    start_nll = likelihood.nll(PhotonModel.compound_poisson(mu0, a0))
    assert -fit.log_likelihood <= start_nll + 1e-9


def test_mle_and_moments_agree(big_sample):
    mle = mle_fit(big_sample)
    mom = moments_fit(big_sample)
    assert abs(mle.model.mu - mom.model.mu) < 5 * mle.sigma_mu
    assert abs(mle.model.a - mom.model.a) < 5 * mle.sigma_a


def test_mle_needs_enough_samples():
    sample = sample_quadratures(TRUTH, 99, 0)
    with pytest.raises(DomainError):
        mle_fit(sample)


def test_mle_accepts_explicit_init(big_sample):
    fit = mle_fit(big_sample, init=(5.0, 2.0))
    assert abs(fit.model.mu - 5.983) < 3 * fit.sigma_mu


def test_mle_flags_boundary_pin():
    # Poisson-distributed light has a -> infinity; the fit must hit the box edge
    sample = sample_quadratures(PhotonModel.poisson(3.0), 5000, 7)
    fit = mle_fit(sample)
    assert fit.boundary_pinned
    assert fit.model.a == pytest.approx(1e6, rel=1e-3)


def test_mle_starts_flat_when_the_moment_estimate_of_a_is_negative():
    # Stage m = 10 (358 samples) has a negative moment estimate of a.  A
    # start at the bunched end of the box (a = 0.05) needs a Fock dimension
    # past the cap there, and the search stalled on the penalty plateau.
    fit = run_campaign(CampaignConfig(a0=10, seed=2)).fits[-1]
    assert fit.model.a == pytest.approx(25.38, abs=0.01)
    assert fit.log_likelihood == pytest.approx(-805.82, abs=0.01)
    assert fit.error_method == "fisher"
    assert fit.fidelity_vs_reference > 0.99


def test_mle_never_returns_a_penalty_point():
    sample = sample_quadratures(PhotonModel.compound_poisson(6.068, 20.0), 358, 2)
    with pytest.raises(ConvergenceError) as info:
        mle_fit(sample, init=(6.75, 0.05))
    assert info.value.best["log_likelihood"] == -1e12


def test_fit_result_serialisation(big_sample):
    fit = mle_fit(big_sample, reference=TRUTH)
    payload = fit.to_dict()
    assert payload["method"] == "max_likelihood"
    assert payload["model"] == fit.model.to_dict()
    assert "sigma_a2" not in payload
    assert "level1_sufficient" not in payload


def test_fisher_errors_standalone(big_sample):
    fit = mle_fit(big_sample)
    sigma_mu, sigma_a = fisher_errors(big_sample, fit.model)
    assert sigma_mu == pytest.approx(fit.sigma_mu, rel=1e-6)
    assert sigma_a == pytest.approx(fit.sigma_a, rel=1e-6)
    with pytest.raises(DomainError):
        fisher_errors(big_sample, PhotonModel.hierarchy(3.0, (0.5, 2.0)))


@pytest.mark.parametrize("far", [201.0, -300.0])
@pytest.mark.parametrize("fit", [
    mle_fit,
    fit_hierarchy2,
    moments_fit,
    lambda x: fisher_errors(x, PhotonModel.compound_poisson(4.0, 1.0)),
], ids=["mle_fit", "fit_hierarchy2", "moments_fit", "fisher_errors"])
def test_likelihood_routes_reject_quadratures_past_max_abs_x(fit, far):
    # Every Hermite route holds |x| <= MAX_ABS_X; the likelihood used to
    # run on any finite x and fail later with a misleading error.
    x = np.random.default_rng(5).normal(0.0, 2.0, 2000)
    x[17] = far
    with pytest.raises(DomainError, match="must not exceed 200"):
        fit(x)


# ---------------------------------------------------------------------------
# goodness of fit


def test_chi2_accepts_true_model():
    sample = sample_quadratures(TRUTH, 5000, 11)
    p = chi2_test(sample, TRUTH)
    assert p == pytest.approx(0.3045, abs=0.01)


def test_chi2_rejects_wrong_model():
    sample = sample_quadratures(TRUTH, 5000, 11)
    wrong = PhotonModel.compound_poisson(3.0, 1.0)
    assert chi2_test(sample, wrong) < 1e-10


def test_chi2_degenerate_data_is_certain_rejection():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    assert chi2_test(np.zeros(500), model) == 0.0


def test_chi2_raises_without_degrees_of_freedom():
    sample = sample_quadratures(PhotonModel.compound_poisson(3.034, 1.0), 600, 3)
    with pytest.raises(BinningError):
        chi2_test(sample, PhotonModel.compound_poisson(3.034, 1.0), n_params_fitted=11)


def test_chi2_needs_enough_samples():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    with pytest.raises(DomainError):
        chi2_test(np.random.default_rng(0).normal(size=99), model)


def test_chi2_calibrated_at_true_model():
    """p-values under the true model must be uniform: ~1% rejections at 0.01."""
    model = PhotonModel.compound_poisson(3.034, 1.0)
    pvals = np.array(
        [
            chi2_test(sample_quadratures(model, 500, seed), model)
            for seed in range(1000, 1500)
        ]
    )
    assert np.sum(pvals < 0.01) <= 12
    assert 0.46 < pvals.mean() < 0.54


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_is_exactly_one():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    assert fidelity(model, model) == 1.0


def test_fidelity_symmetric():
    a = PhotonModel.compound_poisson(5.983, 1.605)
    b = PhotonModel.compound_poisson(6.068, 2.0)
    assert fidelity(a, b) == fidelity(b, a)
    assert fidelity(a, b) == pytest.approx(0.9966, abs=0.002)


def test_fidelity_bounded_and_monotone():
    base = PhotonModel.compound_poisson(3.0, 1.0)
    values = [
        fidelity(base, PhotonModel.compound_poisson(3.0, a)) for a in (1.2, 2.0, 5.0)
    ]
    assert all(0.0 < v < 1.0 for v in values)
    assert values[0] > values[1] > values[2]


def test_fidelity_distant_states_near_zero():
    a = PhotonModel.compound_poisson(0.1, 1.0)
    b = PhotonModel.compound_poisson(30.0, 1.0)
    assert fidelity(a, b) < 0.25


def test_fidelity_across_model_kinds():
    fock = PhotonModel.binomial_fock(1, 1.0)
    thermal = PhotonModel.compound_poisson(1.0, 1.0)
    value = fidelity(fock, thermal)
    # overlap is exactly P_thermal(1) for a point mass at one photon
    assert value == pytest.approx(0.25, rel=1e-10)


# ---------------------------------------------------------------------------
# two-level hierarchy fits


def test_hierarchy_fit_recovers_second_level():
    truth = PhotonModel.hierarchy(5.98, (2.0 / 5.98, 8.46 / 5.98))
    sample = sample_quadratures(truth, 25_000, 0)
    fit = fit_hierarchy2(sample, fixed_a1=2.0)
    a1, a2 = fit.model.cluster_parameters
    assert a1 == pytest.approx(2.0, rel=1e-12)
    assert not fit.level1_sufficient
    assert fit.sigma_a2 is not None
    assert abs(a2 - 8.46) < 3 * fit.sigma_a2
    assert a2 == pytest.approx(8.4839, abs=0.05)
    assert fit.sigma_a2 == pytest.approx(0.8816, abs=0.2)
    assert fit.chi2_significance > 0.01
    assert fit.method == FitMethod.HIERARCHY_LEVEL2


def test_hierarchy_fit_free_parameters_match_distribution():
    """Without the level-1 pin the parameters ride a likelihood ridge, but the
    recovered distribution must still match the truth."""
    truth = PhotonModel.hierarchy(5.98, (2.0 / 5.98, 8.46 / 5.98))
    sample = sample_quadratures(truth, 25_000, 0)
    fit = fit_hierarchy2(sample)
    assert not fit.level1_sufficient
    assert fidelity(fit.model, truth) > 0.999
    assert fit.chi2_significance > 0.01


def test_hierarchy_fit_detects_single_level_data():
    level1 = PhotonModel.compound_poisson(3.0, 1.5)
    sample = sample_quadratures(level1, 8000, 99)
    fit = fit_hierarchy2(sample)
    assert fit.level1_sufficient
    a1, a2 = fit.model.cluster_parameters
    assert a2 == A2_MAX
    assert a1 == pytest.approx(1.5668, abs=0.01)
    assert fit.sigma_a2 is None
    assert fit.level1_chi2_significance is not None


def test_hierarchy_fit_single_level_with_fixed_a1():
    level1 = PhotonModel.compound_poisson(3.0, 1.5)
    sample = sample_quadratures(level1, 8000, 99)
    fit = fit_hierarchy2(sample, fixed_a1=1.5)
    assert fit.level1_sufficient
    assert fit.model.cluster_parameters[1] == A2_MAX


def test_hierarchy_fit_serialisation_includes_level_fields():
    truth = PhotonModel.hierarchy(5.98, (2.0 / 5.98, 8.46 / 5.98))
    sample = sample_quadratures(truth, 25_000, 0)
    fit = fit_hierarchy2(sample, fixed_a1=2.0)
    payload = fit.to_dict()
    assert payload["method"] == "hierarchy_level2"
    assert "sigma_a2" in payload
    assert "level1_sufficient" in payload


def test_hierarchy_fit_needs_enough_samples():
    sample = sample_quadratures(TRUTH, 999, 0)
    with pytest.raises(DomainError):
        fit_hierarchy2(sample)


@pytest.fixture(scope="module")
def single_level_sample():
    return sample_quadratures(PhotonModel.compound_poisson(3.0, 1.5), 2000, 7)


@pytest.mark.parametrize("fixed_a1", [None, 1.5])
def test_hierarchy_fit_never_returns_a_penalty_point(monkeypatch, single_level_sample, fixed_a1):
    density = _QuadratureLikelihood.density

    def truncated(self, model):
        if model.kind is ModelKind.HIERARCHY:
            raise TruncationError("forced for every hierarchy model")
        return density(self, model)

    monkeypatch.setattr(_QuadratureLikelihood, "density", truncated)
    with pytest.raises(ConvergenceError) as info:
        fit_hierarchy2(single_level_sample, fixed_a1=fixed_a1)
    assert set(info.value.best) == {"mu", "a1", "a2", "log_likelihood"}
    assert info.value.best["log_likelihood"] == -1e12


def test_hierarchy_fit_builds_one_likelihood(monkeypatch, single_level_sample):
    built = []
    init = _QuadratureLikelihood.__init__

    def counting(self, values):
        built.append(values.size)
        init(self, values)

    monkeypatch.setattr(_QuadratureLikelihood, "__init__", counting)
    fit = fit_hierarchy2(single_level_sample)
    assert built == [single_level_sample.values.size]
    monkeypatch.undo()
    assert fit.level1_chi2_significance == mle_fit(single_level_sample).chi2_significance


# ---------------------------------------------------------------------------
# exact self-fidelity over the closed-form kinds


def _self_fidelity_grid():
    models = [
        PhotonModel.compound_poisson(float(mu), float(a))
        for mu in np.geomspace(0.01, 200.0, 14)
        for a in np.geomspace(0.1, 1e5, 11)
    ]
    models += [PhotonModel.poisson(float(mu)) for mu in np.geomspace(0.01, 1000.0, 15)]
    models += [
        PhotonModel.binomial_fock(n, n * float(frac))
        for n in (1, 2, 5, 17, 60)
        for frac in (0.05, 0.3, 0.77, 1.0)
    ]
    models += [PhotonModel.compound_poisson(3.034, 1.0), PhotonModel.compound_poisson(5.983, 1.605)]
    return models


def test_fidelity_self_is_exactly_one_on_a_grid():
    checked, misses = 0, []
    for model in _self_fidelity_grid():
        try:
            value = fidelity(model, model)
        except TruncationError:
            continue  # heavy tails past the Fock ceiling
        checked += 1
        if value != 1.0:
            misses.append(model)
    assert misses == []
    assert checked > 170
