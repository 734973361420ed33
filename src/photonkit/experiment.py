"""End-to-end reconstruction campaigns.

A campaign chains the full pipeline for a thermal source: m-fold photon
subtraction, homodyne quadrature sampling at configured sample sizes,
maximum-likelihood reconstruction of each subtracted state, and finally
the high-order autocorrelation assembled from the fitted mean photon
numbers.

Subtracted-state statistics can be produced two ways: ``ANALYTIC`` uses
the closed-form ideal subtraction chain directly, while ``MONTE_CARLO``
pushes an oversized photon-number pool through beam-splitter
conditioning at finite reflectivity.  Fits always report fidelity
against the ideal chain (mu0 (a0 + m) / a0, a0 + m): the campaign's
targets are the theory values, with measured-table numbers serving as
plausibility anchors only — the report header repeats this so the CSV
is self-describing.

The chain and its herald rule live in :mod:`photonkit.subtraction`; this
module walks the ideal chain once, sizes the pool and runs the stages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CampaignError, DomainError, PhotonKitError, PoolExhaustedError
from .inference import REPORT_COLUMNS, FitResult, mle_fit, report_row
from .photon_stats import CorrelationReport, PhotonModel
from .quadrature import (
    QuadratureSample,
    quadrature_pdf,
    sample_for_counts,
    sample_quadratures,
)
from .subtraction import _chain, _chain_acceptance, _mc_survivor_hist, autocorr_from_means

#: Default per-m sample sizes for the reference campaign.
DEFAULT_SAMPLE_SIZES = (
    50000, 25000, 12500, 7500, 4500, 4500, 2500, 2500, 2500, 500, 358,
)

#: Hard ceiling on Monte-Carlo pool draws per stage.
POOL_CAP = 10**8

_POOL_OVERSIZE = 20.0


class CampaignMode(str, Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a subtraction-and-reconstruction campaign."""

    mu0: float = 3.034
    a0: float = 1.0
    m_max: int = 10
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    seed: int = 0
    mode: CampaignMode = CampaignMode.ANALYTIC
    p: float = 0.01

    def __post_init__(self):
        if not (self.mu0 > 0.0 and math.isfinite(self.mu0)):
            raise DomainError(f"mu0 must be positive and finite, got {self.mu0}")
        if not (self.a0 > 0.0 and math.isfinite(self.a0)):
            raise DomainError(f"a0 must be positive and finite, got {self.a0}")
        if self.m_max != int(self.m_max) or self.m_max < 0:
            raise DomainError(f"m_max must be a nonnegative integer, got {self.m_max}")
        object.__setattr__(self, "m_max", int(self.m_max))
        sizes = tuple(int(s) for s in self.sample_sizes)
        if any(s != orig for s, orig in zip(sizes, self.sample_sizes)) or any(
            s < 1 for s in sizes
        ):
            raise DomainError("sample_sizes must be positive integers")
        if len(sizes) != self.m_max + 1:
            raise DomainError(
                f"need {self.m_max + 1} sample sizes (one per m), got {len(sizes)}"
            )
        object.__setattr__(self, "sample_sizes", sizes)
        if self.seed != int(self.seed) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "mode", CampaignMode(self.mode))
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"reflection probability must lie in (0, 1), got {self.p}")

    def to_dict(self) -> dict:
        return {
            "mu0": self.mu0,
            "a0": self.a0,
            "m_max": self.m_max,
            "sample_sizes": list(self.sample_sizes),
            "seed": self.seed,
            "mode": self.mode.value,
            "p": self.p,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise DomainError("campaign config must be a mapping")
        allowed = {"mu0", "a0", "m_max", "sample_sizes", "seed", "mode", "p"}
        unknown = set(data) - allowed
        if unknown:
            raise DomainError(f"unknown campaign config fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "sample_sizes" in kwargs:
            kwargs["sample_sizes"] = tuple(kwargs["sample_sizes"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"campaign config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _mc_stage_counts(
    thermal: PhotonModel, m: int, needed: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Photon numbers surviving m conditioning steps, in random order."""
    acceptance = _chain_acceptance(thermal, m, p)
    budget = math.ceil(_POOL_OVERSIZE * needed / acceptance)
    if budget > POOL_CAP:
        raise PoolExhaustedError(
            f"stage m={m} needs a pool of ~{budget:.3g} source draws "
            f"(chain acceptance {acceptance:.3g}); cap is {POOL_CAP:.0g}"
        )
    hist = _mc_survivor_hist(thermal, m, budget, p, rng)
    if hist.sum() < needed:
        raise PoolExhaustedError(
            f"stage m={m}: {hist.sum()} survivors from {budget} draws, needed {needed}"
        )
    kept = rng.multivariate_hypergeometric(hist, needed)
    return rng.permutation(np.repeat(np.arange(kept.size), kept))


@dataclass(frozen=True)
class CampaignResult:
    """Per-m fits plus the autocorrelation assembled from fitted means."""

    config: CampaignConfig
    labels: tuple[str, ...]
    fits: tuple[FitResult, ...]
    ideal_models: tuple[PhotonModel, ...]
    correlation: CorrelationReport

    def report_csv(self) -> str:
        lines = [
            "# Fits target the ideal subtraction chain (mu0 (a0+m)/a0, a0+m);"
            " measured-table values are plausibility anchors, not targets.",
            REPORT_COLUMNS,
        ]
        lines.extend(
            report_row(label, fit) for label, fit in zip(self.labels, self.fits)
        )
        if self.correlation.orders:
            lines.append("order,ln_g,sigma_ln_g")
            for order, ln_g, sigma in zip(
                self.correlation.orders,
                self.correlation.log_g_values,
                self.correlation.sigma_log_g,
            ):
                lines.append(f"{order},{ln_g:.6g},{sigma:.3g}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "labels": list(self.labels),
            "fits": [fit.to_dict() for fit in self.fits],
            "correlation": self.correlation.to_dict(),
        }


def _partial_payload(labels, fits) -> dict:
    return {
        "completed": list(labels),
        "fits": [fit.to_dict() for fit in fits],
    }


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run the subtraction / sampling / reconstruction pipeline.

    One stage per m in [0, m_max]; each stage gets its own child seed so
    results are reproducible stage by stage.  A stage that raises a
    :class:`PhotonKitError` aborts the campaign with a
    :class:`CampaignError` carrying the completed stages as a partial
    payload; any other exception is a programming error and propagates
    as it is.
    """
    thermal = PhotonModel.compound_poisson(config.mu0, config.a0)
    children = np.random.SeedSequence(config.seed).spawn(config.m_max + 2)
    pool_rng = np.random.default_rng(children[0])
    labels: list[str] = []
    fits: list[FitResult] = []
    ideals: list[PhotonModel] = []
    ideal_chain = _chain(thermal)
    for m in range(config.m_max + 1):
        try:
            ideal = next(ideal_chain)
            stage_rng = np.random.default_rng(children[m + 1])
            size = config.sample_sizes[m]
            if config.mode is CampaignMode.ANALYTIC:
                sample = sample_quadratures(ideal, size, rng=stage_rng)
            else:
                counts = _mc_stage_counts(thermal, m, size, config.p, pool_rng)
                sample = sample_for_counts(counts, stage_rng)
            fit = mle_fit(sample, reference=ideal)
        except PhotonKitError as exc:
            raise CampaignError(
                f"stage m={m} failed: {exc}",
                partial=_partial_payload(labels, fits),
            ) from exc
        labels.append(f"m={m}")
        fits.append(fit)
        ideals.append(ideal)
    correlation = autocorr_from_means(
        fits[0].model.mu,
        [fit.model.mu for fit in fits[1:]],
        sigma_mu0=fits[0].sigma_mu,
        step_sigmas=[fit.sigma_mu for fit in fits[1:]],
    )
    return CampaignResult(
        config=config,
        labels=tuple(labels),
        fits=tuple(fits),
        ideal_models=tuple(ideals),
        correlation=correlation,
    )


@dataclass(frozen=True)
class ModelComparison:
    """Histogram overlay of data against two candidate models."""

    bin_centers: np.ndarray
    empirical_density: np.ndarray
    level1_pdf: np.ndarray
    level2_pdf: np.ndarray

    def to_csv(self) -> str:
        lines = ["bin_center,empirical_density,level1_pdf,level2_pdf"]
        for row in zip(
            self.bin_centers, self.empirical_density, self.level1_pdf, self.level2_pdf
        ):
            lines.append(",".join(f"{v:.6g}" for v in row))
        return "\n".join(lines) + "\n"


def compare_models(
    samples, level1: PhotonModel, level2: PhotonModel, bins: int
) -> ModelComparison:
    """Bin the data and evaluate both model pdfs at the bin centers.

    Plot-ready: the empirical column is a normalized density over
    uniform bins spanning the data range, directly comparable to the
    model pdf columns.
    """
    if bins != int(bins) or bins < 5:
        raise DomainError(f"need at least 5 bins, got {bins}")
    bins = int(bins)
    if isinstance(samples, QuadratureSample):
        x = samples.values
    else:
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1 or x.size == 0 or not np.all(np.isfinite(x)):
            raise DomainError("samples must be a nonempty 1-D finite array")
    density, edges = np.histogram(x, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return ModelComparison(
        bin_centers=centers,
        empirical_density=density,
        level1_pdf=quadrature_pdf(level1, centers),
        level2_pdf=quadrature_pdf(level2, centers),
    )
