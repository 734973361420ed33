"""End-to-end campaigns: staged subtraction, fits, reports, model comparison."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from photonkit import (
    CampaignConfig,
    CampaignError,
    CampaignMode,
    DomainError,
    PhotonModel,
    PoolExhaustedError,
    compare_models,
    mc_subtract,
    pmf_values,
    quadrature_pdf,
    run_campaign,
    sample_counts,
    sample_quadratures,
    subtract_analytic,
    subtract_finite_p,
)
from photonkit import experiment, subtraction
from photonkit.experiment import (
    DEFAULT_SAMPLE_SIZES,
    _chain_acceptance,
    _mc_stage_counts,
    _mc_survivor_hist,
)

THERMAL = PhotonModel.compound_poisson(3.034, 1.0)


# ---------------------------------------------------------------------------
# configuration


def test_default_config():
    config = CampaignConfig()
    assert config.mu0 == 3.034
    assert config.a0 == 1.0
    assert config.m_max == 10
    assert config.sample_sizes == DEFAULT_SAMPLE_SIZES
    assert len(config.sample_sizes) == 11
    assert config.mode == CampaignMode.ANALYTIC
    assert config.seed == 0
    assert config.p == 0.01


def test_config_validation():
    with pytest.raises(DomainError):
        CampaignConfig(mu0=0.0)
    with pytest.raises(DomainError):
        CampaignConfig(a0=-1.0)
    with pytest.raises(DomainError):
        CampaignConfig(m_max=2, sample_sizes=(100, 100))  # needs m_max + 1 entries
    with pytest.raises(DomainError):
        CampaignConfig(seed=-1)
    with pytest.raises(DomainError):
        CampaignConfig(p=0.0)
    with pytest.raises(DomainError):
        CampaignConfig(p=1.0)


def test_config_json_roundtrip():
    config = CampaignConfig(
        mu0=2.5, a0=1.5, m_max=2, sample_sizes=(4000, 2000, 1000), seed=9,
        mode=CampaignMode.MONTE_CARLO, p=0.02,
    )
    assert CampaignConfig.from_json(config.to_json()) == config


def test_config_rejects_unknown_fields():
    payload = json.loads(CampaignConfig().to_json())
    payload["typo_field"] = 1
    with pytest.raises(DomainError):
        CampaignConfig.from_dict(payload)
    with pytest.raises(DomainError):
        CampaignConfig.from_json("{broken")


# ---------------------------------------------------------------------------
# analytic-mode campaigns


@pytest.fixture(scope="module")
def small_campaign():
    config = CampaignConfig(m_max=2, sample_sizes=(20_000, 10_000, 5_000), seed=1)
    return run_campaign(config)


def test_campaign_stage_labels_and_targets(small_campaign):
    result = small_campaign
    assert result.labels == ("m=0", "m=1", "m=2")
    assert len(result.fits) == 3
    chain = subtract_analytic(PhotonModel.compound_poisson(3.034, 1.0), 2)
    targets = [3.034] + list(chain.step_means)
    for fit, target in zip(result.fits, targets):
        assert abs(fit.model.mu - target) < 3 * fit.sigma_mu
        assert fit.chi2_significance > 0.001


def test_campaign_means_increase_along_chain(small_campaign):
    mus = [fit.model.mu for fit in small_campaign.fits]
    assert mus == sorted(mus)
    a_values = [fit.model.a for fit in small_campaign.fits]
    assert a_values == sorted(a_values)


def test_campaign_correlation_orders(small_campaign):
    report = small_campaign.correlation
    assert report.orders == (2, 3)
    # thermal chain: ln g^(m) = ln m!
    for order, ln_g, sigma in zip(
        report.orders, report.log_g_values, report.sigma_log_g
    ):
        assert abs(ln_g - math.log(math.factorial(order))) < 3 * sigma


def test_campaign_report_layout(small_campaign):
    text = small_campaign.report_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "state,mu,sigma_mu,a,sigma_a,sample_size,fidelity,chi2_significance"
    assert lines[2].startswith("m=0,")
    assert lines[5] == "order,ln_g,sigma_ln_g"
    assert lines[6].startswith("2,")
    assert lines[7].startswith("3,")


def test_campaign_deterministic(small_campaign):
    config = CampaignConfig(m_max=2, sample_sizes=(20_000, 10_000, 5_000), seed=1)
    again = run_campaign(config)
    assert again.report_csv() == small_campaign.report_csv()


def test_campaign_seed_changes_report(small_campaign):
    config = CampaignConfig(m_max=2, sample_sizes=(20_000, 10_000, 5_000), seed=2)
    other = run_campaign(config)
    assert other.report_csv() != small_campaign.report_csv()


def test_campaign_without_subtraction_steps():
    config = CampaignConfig(m_max=0, sample_sizes=(5_000,), seed=4)
    result = run_campaign(config)
    assert result.labels == ("m=0",)
    assert result.correlation.orders == ()
    text = result.report_csv()
    assert "order,ln_g,sigma_ln_g" not in text


def test_campaign_result_serialisation(small_campaign):
    payload = small_campaign.to_dict()
    assert [f["model"]["mu"] for f in payload["fits"]]
    assert payload["config"]["m_max"] == 2
    assert payload["labels"] == ["m=0", "m=1", "m=2"]


def test_campaign_ideal_models_are_the_former_per_stage_chain():
    config = CampaignConfig(m_max=2, sample_sizes=(2_000, 2_000, 2_000), seed=5)
    result = run_campaign(config)
    mu, a = config.mu0, config.a0
    former = [PhotonModel.compound_poisson(mu, a)]
    for _ in range(config.m_max):
        mu, a = mu * (a + 1.0) / a, a + 1.0
        former.append(PhotonModel.compound_poisson(mu, a))
    assert list(result.ideal_models) == former


def test_campaign_stage_without_an_ideal_model_carries_partial_results(monkeypatch):
    real_step = subtraction._one_step_ideal

    def step_until_a_reaches_2(model):
        if model.a >= 2.0:
            raise DomainError("no ideal model past a = 2")
        return real_step(model)

    monkeypatch.setattr(subtraction, "_one_step_ideal", step_until_a_reaches_2)
    config = CampaignConfig(m_max=3, sample_sizes=(2_000,) * 4, seed=5)
    with pytest.raises(CampaignError) as err:
        run_campaign(config)
    assert isinstance(err.value.__cause__, DomainError)
    assert "m=2" in str(err.value)
    assert err.value.partial["completed"] == ["m=0", "m=1"]
    assert len(err.value.partial["fits"]) == 2


# ---------------------------------------------------------------------------
# Monte-Carlo mode


def test_monte_carlo_campaign_matches_analytic_targets():
    config = CampaignConfig(
        m_max=1,
        sample_sizes=(2_500, 2_500),
        seed=0,
        mode=CampaignMode.MONTE_CARLO,
        p=0.01,
    )
    result = run_campaign(config)
    chain = subtract_analytic(PhotonModel.compound_poisson(3.034, 1.0), 1)
    targets = [3.034, chain.step_means[0]]
    for fit, target in zip(result.fits, targets):
        assert abs(fit.model.mu - target) < 3 * fit.sigma_mu


def test_monte_carlo_pool_exhaustion_carries_partial_results():
    # by the third stage the chain acceptance is ~1e-4, so the needed pool
    # blows through the hard cap
    config = CampaignConfig(
        m_max=3,
        sample_sizes=(2_500, 2_500, 2_500, 2_500),
        seed=0,
        mode=CampaignMode.MONTE_CARLO,
        p=0.01,
    )
    with pytest.raises(CampaignError) as err:
        run_campaign(config)
    assert "m=3" in str(err.value)
    partial = err.value.partial
    assert partial["completed"] == ["m=0", "m=1", "m=2"]
    assert len(partial["fits"]) == 3


def test_campaign_wraps_only_package_errors(monkeypatch):
    config = CampaignConfig(m_max=1, sample_sizes=(2_000, 2_000), seed=3)
    real_fit = experiment.mle_fit

    def broken_fit(sample, reference=None):
        raise ZeroDivisionError("bug in the fit")

    monkeypatch.setattr(experiment, "mle_fit", broken_fit)
    with pytest.raises(ZeroDivisionError):
        run_campaign(config)

    def fit_then_domain_error(sample, reference=None):
        if reference.a > 1.0:
            raise DomainError("stage rejected")
        return real_fit(sample, reference=reference)

    monkeypatch.setattr(experiment, "mle_fit", fit_then_domain_error)
    with pytest.raises(CampaignError) as err:
        run_campaign(config)
    assert isinstance(err.value.__cause__, DomainError)
    assert "m=1" in str(err.value)
    assert err.value.partial["completed"] == ["m=0"]
    assert len(err.value.partial["fits"]) == 1


# ---------------------------------------------------------------------------
# Monte-Carlo photon pool


def _finite_p_chain(p: float, m: int) -> PhotonModel:
    model = THERMAL
    for _ in range(m):
        model = subtract_finite_p(model, p)
    return model


def _tv(counts: np.ndarray, probs: np.ndarray) -> float:
    size = max(int(counts.max()) + 1, probs.size)
    empirical = np.bincount(counts, minlength=size) / counts.size
    return 0.5 * float(np.abs(empirical - np.pad(probs, (0, size - probs.size))).sum())


@pytest.mark.parametrize("p, deepest", [(0.05, 5), (0.01, 2)])
def test_mc_pool_survivors_follow_finite_p_chain(p, deepest):
    # five independent stages of 1000 survivors each, for every m whose
    # pool fits under POOL_CAP
    rng = np.random.default_rng(17)
    ref_rng = np.random.default_rng(18)
    tested = []
    for m in range(11):
        try:
            counts = np.concatenate(
                [_mc_stage_counts(THERMAL, m, 1000, p, rng) for _ in range(5)]
            )
        except PoolExhaustedError:
            break
        tested.append(m)
        probs = pmf_values(_finite_p_chain(p, m))
        probs = probs / probs.sum()
        k = np.arange(probs.size)
        mean = float(k @ probs)
        sd = math.sqrt(float((k - mean) ** 2 @ probs))
        assert abs(counts.mean() - mean) < 4.0 * sd / math.sqrt(counts.size)
        expected_tv = np.mean(
            [_tv(ref_rng.choice(probs.size, counts.size, p=probs), probs)
             for _ in range(50)]
        )
        assert _tv(counts, probs) < 3.0 * expected_tv
    assert tested == list(range(deepest + 1))


def _merged_bins(*samples, min_total=20):
    """Counts per photon number, neighbours merged until each bin holds min_total."""
    size = max(int(s.max()) for s in samples) + 1
    table = np.array([np.bincount(s, minlength=size) for s in samples])
    columns, pending = [], np.zeros(len(samples), dtype=np.int64)
    for column in table.T:
        pending = pending + column
        if pending.sum() >= min_total:
            columns.append(pending)
            pending = np.zeros_like(pending)
    columns[-1] = columns[-1] + pending
    return np.array(columns).T


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mc_pool_matches_per_draw_chain(m):
    p = 0.05
    rng = np.random.default_rng(100 + m)
    pool = math.ceil(4000 / _chain_acceptance(THERMAL, m, p))
    per_draw = sample_counts(THERMAL, pool, rng)
    for _ in range(m):
        per_draw, _ = mc_subtract(per_draw, p, rng)
    histogram = _mc_stage_counts(THERMAL, m, 4000, p, rng)
    table = _merged_bins(per_draw, histogram)
    assert stats.chi2_contingency(table).pvalue > 1e-3
    se = math.sqrt(per_draw.var() / per_draw.size + histogram.var() / histogram.size)
    assert abs(per_draw.mean() - histogram.mean()) < 4.0 * se


@pytest.mark.parametrize("p", [0.05, 0.01])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mc_pool_acceptance_matches_chain_prediction(m, p):
    pool = 10**8
    rng = np.random.default_rng(m)
    survivors = int(_mc_survivor_hist(THERMAL, m, pool, p, rng).sum())
    predicted = _chain_acceptance(THERMAL, m, p)
    se = math.sqrt(predicted * (1.0 - predicted) / pool)
    assert abs(survivors / pool - predicted) < 4.0 * se


def test_mc_stage_counts_are_shuffled():
    counts = _mc_stage_counts(THERMAL, 1, 5000, 0.05, np.random.default_rng(4))
    assert counts.size == 5000
    assert np.any(np.diff(counts) < 0)


# ---------------------------------------------------------------------------
# model comparison overlays


def test_compare_identical_models_gives_identical_columns():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    sample = sample_quadratures(model, 5_000, 3)
    comparison = compare_models(sample, model, model, bins=20)
    assert np.array_equal(comparison.level1_pdf, comparison.level2_pdf)
    assert len(comparison.bin_centers) == 20


def test_compare_prefers_true_second_level():
    truth = PhotonModel.hierarchy(5.98, (2.0 / 5.98, 8.46 / 5.98))
    level1 = PhotonModel.compound_poisson(5.98, 2.0)
    sample = sample_quadratures(truth, 100_000, 0)
    comparison = compare_models(sample, level1, truth, bins=25)
    centers = np.asarray(comparison.bin_centers)
    mask = np.abs(centers) < 3.0
    empirical = np.asarray(comparison.empirical_density)[mask]
    err1 = np.abs(np.asarray(comparison.level1_pdf)[mask] - empirical)
    err2 = np.abs(np.asarray(comparison.level2_pdf)[mask] - empirical)
    assert np.mean(err2 < err1) >= 0.6


def test_compare_empirical_density_within_multinomial_noise():
    model = PhotonModel.compound_poisson(3.034, 1.0)
    sample = sample_quadratures(model, 25_000, 2)
    comparison = compare_models(sample, model, model, bins=40)
    centers = np.asarray(comparison.bin_centers)
    width = centers[1] - centers[0]
    pdf = np.asarray(comparison.level1_pdf)
    bin_prob = pdf * width
    sigma = np.sqrt(np.maximum(bin_prob * (1 - bin_prob), 1e-300) / 25_000) / width
    z = np.abs(np.asarray(comparison.empirical_density) - pdf) / sigma
    assert np.max(z) < 5.0


def test_compare_second_level_sharpens_the_peak():
    truth = PhotonModel.hierarchy(5.98, (2.0 / 5.98, 8.46 / 5.98))
    level1 = PhotonModel.compound_poisson(5.98, 2.0)
    assert quadrature_pdf(truth, 0.0) > quadrature_pdf(level1, 0.0)


def test_compare_csv_layout():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    sample = sample_quadratures(model, 2_000, 5)
    comparison = compare_models(sample, model, model, bins=10)
    lines = comparison.to_csv().strip().split("\n")
    assert lines[0] == "bin_center,empirical_density,level1_pdf,level2_pdf"
    assert len(lines) == 11
    for line in lines[1:]:
        assert len(line.split(",")) == 4


def test_compare_validates_bins():
    model = PhotonModel.compound_poisson(3.0, 1.0)
    sample = sample_quadratures(model, 2_000, 5)
    with pytest.raises(DomainError):
        compare_models(sample, model, model, bins=4)
