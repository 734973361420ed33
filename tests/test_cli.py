"""Command-line interface: argument handling, output formats, exit codes."""

import json
import math

import numpy as np
import pytest

from photonkit import (
    PhotonModel,
    SubtractionRecord,
    load_samples,
    sample_quadratures,
    save_samples,
    subtract_finite_p,
)
from photonkit import quadrature
from photonkit.cli import main
from photonkit.subtraction import _subtract


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# model subcommand


def test_model_g2_thermal(capsys):
    code, out, _ = run_cli(capsys, "model", "--mu", "3", "--a", "1", "--g", "2")
    assert code == 0
    assert out == "2.0\n"


def test_model_g2_single_photon(capsys):
    code, out, _ = run_cli(capsys, "model", "--mu", "1", "--fock", "1", "--g", "2")
    assert code == 0
    assert out == "0.0\n"


def test_model_g2_near_poisson(capsys):
    code, out, _ = run_cli(capsys, "model", "--mu", "3", "--a", "1e6", "--g", "2")
    assert code == 0
    assert abs(float(out) - 1.0) < 1e-5


def test_model_pmf_rows(capsys):
    code, out, _ = run_cli(capsys, "model", "--mu", "3", "--a", "1", "--pmf", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    values = [float(r[1]) for r in rows]
    assert values == pytest.approx([0.25, 0.1875, 0.140625, 0.10546875], rel=1e-12)


def test_model_moments(capsys):
    code, out, _ = run_cli(capsys, "model", "--mu", "3", "--a", "1", "--moments")
    assert code == 0
    assert out == "mean\t3.0\nvariance\t12.0\n"


def test_model_hierarchy_moments(capsys):
    code, out, _ = run_cli(
        capsys, "model", "--mu", "3.0", "--hierarchy", "0.5,2.0", "--moments"
    )
    assert code == 0
    assert out.startswith("mean\t3.0")


def test_model_requires_exactly_one_kind(capsys):
    code, _, err = run_cli(capsys, "model", "--mu", "3", "--g", "2")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run_cli(
        capsys, "model", "--mu", "3", "--a", "1", "--fock", "2", "--g", "2"
    )
    assert code == 2


def test_model_rejects_bad_order(capsys):
    code, _, err = run_cli(capsys, "model", "--mu", "3", "--a", "1", "--g", "25")
    assert code == 4
    assert "order" in err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# subtract subcommand


def test_subtract_ideal_chain(capsys):
    code, out, _ = run_cli(capsys, "subtract", "--mu", "3.034", "--a", "1", "--m", "2")
    assert code == 0
    record = json.loads(out)
    assert record["p"] is None
    assert record["step_means"] == pytest.approx([6.068, 9.102], rel=1e-12)
    assert record["result"]["mu"] == pytest.approx(9.102, rel=1e-12)
    assert record["result"]["a"] == 3.0


def test_subtract_finite_probability(capsys):
    code, out, _ = run_cli(
        capsys, "subtract", "--mu", "3.034", "--a", "1", "--m", "1", "--p", "0.01"
    )
    assert code == 0
    record = json.loads(out)
    assert record["p"] == 0.01
    assert record["result"]["mu"] == pytest.approx(5.830424908282702, rel=1e-12)


def test_subtract_overdrawn_fock_is_model_domain_error(capsys):
    code, _, err = run_cli(capsys, "subtract", "--mu", "2", "--fock", "2", "--m", "2")
    assert code == 4
    assert "at most" in err


def _former_finite_p_record(model, m, p):
    """The record the former finite-p loop of ``photonkit subtract`` built."""
    current = model
    step_means = []
    for _ in range(m):
        current = subtract_finite_p(current, p)
        step_means.append(current.mu)
    return SubtractionRecord(
        initial=model, m=m, p=p, step_means=tuple(step_means), result=current
    )


@pytest.mark.parametrize(
    "flags, model, m",
    [
        (("--a", "1"), PhotonModel.compound_poisson(3.034, 1.0), 10),
        (("--a", "0.37"), PhotonModel.compound_poisson(3.034, 0.37), 4),
        (("--fock", "12"), PhotonModel.binomial_fock(12, 3.034), 11),
    ],
)
@pytest.mark.parametrize("p", ["0.01", "0.05", "0.3"])
def test_subtract_finite_p_is_the_former_loop_bit_for_bit(capsys, flags, model, m, p):
    code, out, _ = run_cli(capsys, "subtract", "--mu", "3.034", *flags, "--m", str(m), "--p", p)
    assert code == 0
    former = _former_finite_p_record(model, m, float(p))
    assert json.loads(out) == json.loads(json.dumps(former.to_dict()))


def test_finite_p_record_of_poisson_light_is_the_former_loop():
    # No CLI flag builds Poisson light; the subcommand's one call is checked directly.
    for p in (0.01, 0.05, 0.3):
        model = PhotonModel.poisson(3.034)
        assert _subtract(model, 5, p) == _former_finite_p_record(model, 5, p)


def test_subtract_finite_p_overdrawn_fock_is_model_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "subtract", "--mu", "2", "--fock", "2", "--m", "2", "--p", "0.1"
    )
    assert code == 4
    assert "at most" in err


def test_subtract_finite_p_hierarchy_is_model_domain_error(capsys):
    code, _, _ = run_cli(
        capsys, "subtract", "--mu", "3", "--hierarchy", "0.5,2", "--m", "1", "--p", "0.1"
    )
    assert code == 4


def test_subtract_rejects_nonpositive_m(capsys):
    code, _, _ = run_cli(capsys, "subtract", "--mu", "3", "--a", "1", "--m", "0", "--p", "0.1")
    assert code == 2


# ---------------------------------------------------------------------------
# gtable subcommand


def test_gtable_factorials(capsys):
    code, out, _ = run_cli(
        capsys, "gtable", "--mu", "3.034", "--a", "1", "--max-order", "5"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "order\tg\tln_g"
    assert len(lines) == 5
    for line in lines[1:]:
        order, g, ln_g = line.split("\t")
        assert float(g) == pytest.approx(math.factorial(int(order)), rel=1e-10)
        assert float(ln_g) == pytest.approx(math.log(float(g)), rel=1e-12)


def test_gtable_overflowing_order_is_model_domain_error(capsys):
    # mu^m underflows at mu = 1e-300, and g^(m) overflows: exit 4, not a traceback.
    code, _, err = run_cli(
        capsys, "gtable", "--mu", "1e-300", "--hierarchy", "1e-3,1e3", "--max-order", "10"
    )
    assert code == 4
    assert "overflows" in err


def test_gtable_binomial_past_n_prints_minus_infinity(capsys):
    code, out, _ = run_cli(capsys, "gtable", "--mu", "2", "--fock", "2", "--max-order", "3")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["2\t0.5\t-0.6931471805599453", "3\t0.0\t-inf"]


def test_gtable_overflowing_compound_order_is_model_domain_error(capsys):
    # g^(2) = 1 + 1e300 is printed; g^(3) ~ 2e600 overflows: exit 4, as for hierarchies.
    code, out, err = run_cli(capsys, "gtable", "--mu", "1", "--a", "1e-300", "--max-order", "20")
    assert code == 4
    assert "overflows" in err
    assert "inf" not in out


# ---------------------------------------------------------------------------
# sample subcommand


def test_sample_writes_csv_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "draws.csv"
    code, _, err = run_cli(
        capsys, "sample", "--mu", "3.034", "--a", "1", "--n", "500",
        "--seed", "11", "--out", str(out_path),
    )
    assert code == 0
    assert "wrote 500 samples" in err
    sample = load_samples(out_path)
    assert sample.values.size == 500
    assert sample.seed == 11
    assert sample.source == PhotonModel.compound_poisson(3.034, 1.0)


def test_sample_seeded_runs_identical(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a_path, b_path):
        code, _, _ = run_cli(
            capsys, "sample", "--mu", "3.034", "--a", "1", "--n", "200",
            "--seed", "5", "--out", str(path),
        )
        assert code == 0
    assert a_path.read_text() == b_path.read_text()


def test_sample_derives_and_reports_seed(capsys, tmp_path):
    out_path = tmp_path / "d.csv"
    code, _, err = run_cli(
        capsys, "sample", "--mu", "3", "--a", "1", "--n", "100", "--out", str(out_path)
    )
    assert code == 0
    assert "seed=" in err
    reported = int(err.split("seed=")[1].split()[0])
    assert load_samples(out_path).seed == reported


def test_quiet_suppresses_diagnostics(capsys, tmp_path):
    out_path = tmp_path / "q.csv"
    code, out, err = run_cli(
        capsys, "--quiet", "sample", "--mu", "3", "--a", "1", "--n", "100",
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert err == ""


def test_sample_violated_envelope_is_model_domain_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(quadrature, "_ENVELOPE_COEFF", 0.1)
    out = tmp_path / "draws.csv"
    code, _, err = run_cli(
        capsys, "sample", "--mu", "3", "--a", "1", "--n", "100", "--seed", "1",
        "--out", str(out),
    )
    assert code == 4
    assert "envelope violated" in err


def test_sample_with_an_unbounded_tail_is_model_domain_error(capsys, tmp_path):
    # mu (1 + mu/a) overflows a double: a TruncationError, exit 4.
    out = tmp_path / "s.csv"
    code, _, err = run_cli(
        capsys, "sample", "--mu", "1e300", "--a", "1", "--n", "5", "--out", str(out)
    )
    assert code == 4
    assert "Fock cutoff" in err


# ---------------------------------------------------------------------------
# fit subcommand


@pytest.fixture()
def thermal_csv(tmp_path):
    path = tmp_path / "thermal.csv"
    sample = sample_quadratures(PhotonModel.compound_poisson(3.034, 1.0), 4000, 11)
    save_samples(sample, path)
    return path


def test_fit_mle_json(capsys, thermal_csv):
    code, out, _ = run_cli(capsys, "fit", "--input", str(thermal_csv), "--method", "mle")
    assert code == 0
    fit = json.loads(out)
    assert fit["method"] == "max_likelihood"
    assert abs(fit["model"]["mu"] - 3.034) < 3 * fit["sigma_mu"]
    assert abs(fit["model"]["a"] - 1.0) < 3 * fit["sigma_a"]
    assert fit["sample_size"] == 4000


def test_fit_moments_json(capsys, thermal_csv):
    code, out, _ = run_cli(capsys, "fit", "--input", str(thermal_csv), "--method", "mom")
    assert code == 0
    fit = json.loads(out)
    assert fit["method"] == "moments_only"
    assert fit["error_method"] == "bootstrap"


def test_fit_report_row(capsys, thermal_csv):
    code, out, _ = run_cli(
        capsys, "fit", "--input", str(thermal_csv), "--method", "mle", "--report"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "state,mu,sigma_mu,a,sigma_a,sample_size,fidelity,chi2_significance"
    fields = lines[1].split(",")
    assert fields[0] == "thermal"
    assert fields[5] == "4000"
    assert fields[6] == ""  # no reference model given


def test_fit_report_with_reference(capsys, thermal_csv, tmp_path):
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(PhotonModel.compound_poisson(3.034, 1.0).to_json())
    code, out, _ = run_cli(
        capsys, "fit", "--input", str(thermal_csv), "--method", "mle",
        "--reference", str(ref_path), "--report",
    )
    assert code == 0
    fidelity_pct = float(out.strip().split("\n")[1].split(",")[6])
    assert fidelity_pct > 99.9


def test_fit_hierarchy_with_fixed_a1(capsys, tmp_path):
    path = tmp_path / "h.csv"
    sample = sample_quadratures(PhotonModel.compound_poisson(3.0, 1.5), 2000, 3)
    save_samples(sample, path)
    code, out, _ = run_cli(
        capsys, "fit", "--input", str(path), "--method", "h2", "--fixed-a1", "1.5"
    )
    assert code == 0
    fit = json.loads(out)
    assert fit["method"] == "hierarchy_level2"
    assert "level1_sufficient" in fit


def test_fit_missing_input_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "cannot read" in err


def test_fit_subvacuum_data_is_model_domain_error(capsys, tmp_path):
    path = tmp_path / "squeezed.csv"
    rng = np.random.default_rng(0)
    values = rng.normal(0.0, 0.05, 300)
    path.write_text("x\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
    code, _, err = run_cli(capsys, "fit", "--input", str(path), "--method", "mom")
    assert code == 4
    assert "variance" in err


# ---------------------------------------------------------------------------
# campaign subcommand


def test_campaign_writes_report(capsys, tmp_path):
    config = {
        "mu0": 3.034, "a0": 1.0, "m_max": 1, "sample_sizes": [4000, 4000],
        "seed": 7, "mode": "analytic", "p": 0.01,
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.csv"
    code, out, err = run_cli(
        capsys, "campaign", "--config", str(config_path), "--out", str(report_path)
    )
    assert code == 0
    assert "ln_g2=" in out
    text = report_path.read_text()
    lines = text.strip().split("\n")
    assert lines[1] == "state,mu,sigma_mu,a,sigma_a,sample_size,fidelity,chi2_significance"
    assert lines[2].startswith("m=0,")
    assert lines[3].startswith("m=1,")
    assert lines[4] == "order,ln_g,sigma_ln_g"


def test_campaign_seed_override_changes_report(capsys, tmp_path):
    config = {
        "mu0": 3.034, "a0": 1.0, "m_max": 1, "sample_sizes": [2000, 2000],
        "seed": 7, "mode": "analytic", "p": 0.01,
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(config))
    first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(capsys, "campaign", "--config", str(config_path),
                   "--out", str(first))[0] == 0
    assert run_cli(capsys, "campaign", "--config", str(config_path),
                   "--out", str(second), "--seed", "8")[0] == 0
    assert first.read_text() != second.read_text()


def test_campaign_pool_exhaustion_writes_partial(capsys, tmp_path):
    config = {
        "mu0": 3.034, "a0": 1.0, "m_max": 3,
        "sample_sizes": [1500, 1500, 1500, 1500],
        "seed": 0, "mode": "monte_carlo", "p": 0.01,
    }
    config_path = tmp_path / "mc.json"
    config_path.write_text(json.dumps(config))
    report_path = tmp_path / "mc_report.csv"
    code, _, err = run_cli(
        capsys, "campaign", "--config", str(config_path), "--out", str(report_path)
    )
    assert code == 5
    assert not report_path.exists()
    partial_path = tmp_path / "mc_report.csv.partial"
    assert partial_path.exists()
    partial = json.loads(partial_path.read_text())
    assert partial["completed"] == ["m=0", "m=1", "m=2"]


def test_campaign_malformed_config_is_usage_error(capsys, tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text("{not json")
    code, _, _ = run_cli(
        capsys, "campaign", "--config", str(config_path),
        "--out", str(tmp_path / "r.csv"),
    )
    assert code == 2


# ---------------------------------------------------------------------------
# compare subcommand


def test_compare_writes_histogram_csv(capsys, tmp_path):
    sample_path = tmp_path / "s.csv"
    sample = sample_quadratures(PhotonModel.compound_poisson(3.034, 1.0), 3000, 9)
    save_samples(sample, sample_path)
    level1 = tmp_path / "l1.json"
    level2 = tmp_path / "l2.json"
    level1.write_text(PhotonModel.compound_poisson(3.034, 1.0).to_json())
    level2.write_text(
        PhotonModel.hierarchy(3.034, (1.0 / 3.034, 10.0 / 3.034)).to_json()
    )
    out_path = tmp_path / "overlay.csv"
    code, _, _ = run_cli(
        capsys, "compare", "--input", str(sample_path), "--level1", str(level1),
        "--level2", str(level2), "--bins", "15", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "bin_center,empirical_density,level1_pdf,level2_pdf"
    assert len(lines) == 16
