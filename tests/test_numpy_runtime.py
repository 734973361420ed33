"""The numpy replacements for scipy on the runtime path."""

import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from photonkit import method_of_moments
from photonkit.inference import _chi2_sf


def test_moment_kurtosis_is_bit_identical_to_scipy():
    rng = np.random.default_rng(7)
    for _ in range(300):
        x = rng.normal(size=int(rng.integers(30, 4000))) * rng.uniform(0.8, 4.0)
        x += rng.normal()
        if rng.uniform() < 0.5:
            x = x**3 + 0.3 * x
        s2 = float(x.var(ddof=1))
        if s2 <= 0.5:
            continue
        mu = s2 - 0.5
        beta2 = float(stats.kurtosis(x, fisher=True, bias=True))
        denom = 6.0 * mu * mu + beta2 * (2.0 * mu + 1.0) ** 2
        assert method_of_moments(x) == (mu, 6.0 * mu * mu / denom)


def test_chi2_tail_matches_scipy():
    tails = np.logspace(-290.0, -1e-9, 50)
    for dof in range(1, 201):
        xs = np.concatenate([stats.chi2.isf(tails, dof), [1e-9, 1e-3, 0.25 * dof, dof]])
        for x in xs:
            want = stats.chi2.sf(x, dof)
            got = _chi2_sf(float(x), dof)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (dof, x)
        assert _chi2_sf(0.0, dof) == 1.0


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, photonkit; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_import_loads_no_scipy():
    code = "import sys, photonkit; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True)


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from photonkit import (CampaignConfig, PhotonModel, fit_hierarchy2, mle_fit,
                       run_campaign, sample_quadratures)
sample = sample_quadratures(PhotonModel.compound_poisson(3.0, 2.0), 2000, 5)
mle_fit(sample)
fit_hierarchy2(sample)
run_campaign(CampaignConfig(m_max=2, sample_sizes=(2000, 1500, 1000), seed=3))
loaded = [name for name, mod in sys.modules.items()
          if name.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_fits_and_campaign_run_without_scipy():
    subprocess.run([sys.executable, "-c", _NO_SCIPY], check=True, timeout=600)
