"""Homodyne quadrature distributions of Fock-diagonal states.

In the convention used throughout (vacuum quadrature variance 1/2) an
n-photon Fock state has quadrature density |phi_n(x)|^2, where phi_n is
the normalized Hermite function.  A state that is diagonal in the Fock
basis therefore has quadrature density

    P(x) = sum_k P(k) |phi_k(x)|^2,

an even function whose variance is mu + 1/2 regardless of the shape of
the number distribution.  Its excess kurtosis
-6 (mu / (2 mu + 1))^2 (2 - g^(2)) depends on the number statistics
through g^(2) = 1 + Q / mu alone (Q the Mandel parameter): 1 + 1/a for
the compound-Poisson family and its binomial continuation a = -n, 1 for
Poisson light and 1 + sum_j 1/a_j for a hierarchy.

Hermite functions are evaluated with the normalized three-term
recurrence

    phi_{k+1} = x sqrt(2 / (k+1)) phi_k - sqrt(k / (k+1)) phi_{k-1},

never through the Hermite polynomials themselves.  It runs on
mantissa/exponent pairs (phi = u * 2^E, E an int32) so values that
underflow double precision deep in the forbidden region still recover
inside the classical region at large k.  One rescale rule keeps it in
range: when |u| passes 2^500, u and v drop by 2^500 into E.  Every route
accepts |x| <= ``MAX_ABS_X`` only; there, and for k <= ``MAX_FOCK_CUTOFF``,
the mantissas never fall below 2^-500, so no up-scaling is needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DomainError, OrderRangeError, SamplingError
from .photon_stats import MAX_FOCK_CUTOFF, PhotonModel, _mandel_q, fock_cutoff, pmf_values

#: Quadrature variance of the vacuum state in this convention.
VACUUM_VARIANCE = 0.5

#: Largest |x| accepted by the Hermite evaluator.
MAX_ABS_X = 200.0

# Rejection-envelope scale: measured max of |phi_k|^2 over the normal
# density with variance k + 1 follows ~2.74 (k+1)^(1/3); 3.2 leaves a
# >15% safety margin over the worst measured ratio up to k = 4096.
_ENVELOPE_COEFF = 3.2

_RESCALE_BITS = 500
_RESCALE_UP = 2.0**_RESCALE_BITS
_RESCALE_DOWN = 2.0**-_RESCALE_BITS
_LN2 = math.log(2.0)


class _HermiteRecurrence:
    """Scaled recurrence for phi_k over a fixed point set, from order ``k``.

    Holds phi_k = u * 2^E and phi_{k-1} = v * 2^E with an int32 E per
    point.  A point whose |u| passes 2^500 has u, v scaled by 2^-500 and E
    raised by 500; v is the previous u, already held to 2^500, so u alone
    is tested.  On |x| <= ``MAX_ABS_X``, E >= -28 854, so 2E fits int32.
    """

    def __init__(self, x: np.ndarray, k: int = 0):
        x = np.asarray(x, dtype=float)
        self.x = x
        log2_phi0 = -x * x / (2.0 * _LN2)
        exponent = np.floor(log2_phi0)
        self.u = math.pi**-0.25 * np.exp2(log2_phi0 - exponent)
        self.v = np.zeros_like(x)
        self.exponent = exponent.astype(np.int32)
        self.k = 0
        for _ in range(k):
            self.advance()

    def advance(self) -> None:
        k = self.k
        w = self.x * math.sqrt(2.0 / (k + 1)) * self.u - math.sqrt(k / (k + 1.0)) * self.v
        self.v = self.u
        self.u = w
        self.k = k + 1
        high = np.abs(w) > _RESCALE_UP
        if high.any():
            self.u[high] *= _RESCALE_DOWN
            self.v[high] *= _RESCALE_DOWN
            self.exponent[high] += _RESCALE_BITS

    def phi(self) -> np.ndarray:
        """phi_k at the current order (underflows gracefully to 0)."""
        return np.ldexp(self.u, self.exponent)

    def phi_squared(self) -> np.ndarray:
        """|phi_k|^2 at the current order."""
        return np.ldexp(self.u * self.u, 2 * self.exponent)


def _check_x(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError("quadrature values must be finite")
    if x.size and np.abs(x).max() > MAX_ABS_X:
        raise DomainError(f"|x| must not exceed {MAX_ABS_X:g}")


def hermite_function(k: int, x) -> np.ndarray | float:
    """Normalized Hermite function phi_k(x).

    phi_k(x) = (2^k k! sqrt(pi))^(-1/2) H_k(x) exp(-x^2 / 2), evaluated
    by the stable normalized recurrence.
    """
    if k != int(k) or k < 0:
        raise DomainError(f"order must be a nonnegative integer, got {k}")
    k = int(k)
    if k > MAX_FOCK_CUTOFF:
        raise OrderRangeError(f"order {k} exceeds the ceiling {MAX_FOCK_CUTOFF}")
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_x(arr)
    out = _HermiteRecurrence(arr, k).phi()
    return float(out[0]) if scalar else out


def quadrature_pdf(model: PhotonModel, x) -> np.ndarray | float:
    """Quadrature density P(x) = sum_k P(k) |phi_k(x)|^2."""
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_x(arr)
    probs = pmf_values(model)
    rec = _HermiteRecurrence(arr)
    acc = probs[0] * rec.phi_squared()
    for k in range(1, probs.size):
        rec.advance()
        acc += probs[k] * rec.phi_squared()
    return float(acc[0]) if scalar else acc


def x_limit(model: PhotonModel) -> float:
    """Half-width of the numerically relevant quadrature support."""
    return math.sqrt(2.0 * fock_cutoff(model)) + 6.0


@lru_cache(maxsize=64)
def _cdf_grid(model: PhotonModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense grid and cumulative distribution used for quantile lookups.

    Composite Simpson integration of the pdf on panels no wider than
    0.01, which keeps the quadrature error per panel far below 1e-9.
    """
    lim = x_limit(model)
    n_panels = max(2000, int(math.ceil(2.0 * lim / 0.01)))
    edges = np.linspace(-lim, lim, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    f_edges = quadrature_pdf(model, edges)
    f_mids = quadrature_pdf(model, mids)
    h = edges[1] - edges[0]
    panel = (h / 6.0) * (f_edges[:-1] + 4.0 * f_mids + f_edges[1:])
    cdf = np.concatenate(([0.0], np.cumsum(panel)))
    return edges, cdf


def quadrature_cdf(model: PhotonModel, x) -> np.ndarray | float:
    """Cumulative distribution of the quadrature density."""
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_x(arr)
    edges, cdf = _cdf_grid(model)
    out = np.interp(arr, edges, cdf, left=0.0, right=cdf[-1])
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def quadrature_quantiles(model: PhotonModel, probs) -> np.ndarray:
    """Inverse of :func:`quadrature_cdf` for probabilities in (0, 1)."""
    p = np.atleast_1d(np.asarray(probs, dtype=float))
    if p.size and (p.min() <= 0.0 or p.max() >= 1.0):
        raise DomainError("quantile probabilities must lie strictly inside (0, 1)")
    edges, cdf = _cdf_grid(model)
    # Keep a strictly increasing section so interpolation stays single-valued.
    keep = np.concatenate(([True], np.diff(cdf) > 0.0))
    return np.interp(p, cdf[keep], edges[keep])


@dataclass(frozen=True)
class QuadratureMoments:
    variance: float
    skewness: float
    excess_kurtosis: float
    method: str


def quadrature_moments(model: PhotonModel) -> QuadratureMoments:
    """Variance, skewness and excess kurtosis of the quadrature density.

    One closed form covers every Fock-diagonal state: the variance is
    mu + 1/2, the density is even so the skewness vanishes, and the excess
    kurtosis is -6 (mu / (2 mu + 1))^2 (1 - Q / mu), where Q = var / mu - 1
    is the Mandel parameter of the number distribution and
    1 - Q / mu = 2 - g^(2).  ``method`` is always ``"closed_form"``; a
    kurtosis that is not finite raises :class:`OrderRangeError`.
    """
    mu = model.mu
    kurt = -6.0 * (mu / (2.0 * mu + 1.0)) ** 2 * (1.0 - _mandel_q(model) / mu)
    if not math.isfinite(kurt):
        raise OrderRangeError("quadrature kurtosis is not finite in double precision")
    return QuadratureMoments(
        variance=mu + VACUUM_VARIANCE, skewness=0.0, excess_kurtosis=kurt,
        method="closed_form",
    )


@dataclass
class QuadratureSample:
    """A batch of quadrature measurements, optionally with provenance."""

    values: np.ndarray
    source: PhotonModel | None = None
    seed: int | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DomainError("quadrature samples must form a 1-D array")
        if not np.all(np.isfinite(values)):
            raise DomainError("quadrature samples must be finite")
        self.values = values

    def __len__(self) -> int:
        return self.values.size


def _envelope_scale(k: int) -> float:
    return _ENVELOPE_COEFF * (k + 1.0) ** (1.0 / 3.0)


def _sample_fock(k: int, size: int, rng) -> np.ndarray:
    """Draw quadratures of the k-photon Fock state by rejection.

    Proposal: normal with variance k + 1, envelope constant
    :func:`_envelope_scale`; a violated envelope raises immediately
    rather than biasing the output.
    """
    sigma = math.sqrt(k + 1.0)
    m_k = _envelope_scale(k)
    out = np.empty(size)
    filled = 0
    while filled < size:
        n_prop = min(int((size - filled) * m_k * 1.3) + 16, 2_000_000)
        z = rng.normal(0.0, sigma, n_prop)
        target = np.zeros(n_prop)
        inside = np.abs(z) <= MAX_ABS_X
        if inside.any():
            target[inside] = _HermiteRecurrence(z[inside], k).phi_squared()
        proposal = np.exp(-z * z / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
        ratio = target / (m_k * proposal)
        if ratio.max() > 1.0:
            raise SamplingError(
                f"rejection envelope violated at k={k}: ratio {ratio.max():.3f}"
            )
        accepted = z[rng.random(n_prop) < ratio]
        take = min(accepted.size, size - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out


def _coerce_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng)), int(rng)
    if isinstance(rng, np.random.Generator):
        return rng, None
    raise DomainError("rng must be a numpy Generator or an integer seed")


def sample_for_counts(counts, rng) -> np.ndarray:
    """Quadrature draws conditioned on the given photon numbers."""
    rng, _ = _coerce_rng(rng)
    counts = np.asarray(counts)
    if counts.size == 0:
        return np.empty(0)
    if counts.min() < 0:
        raise DomainError("photon counts must be nonnegative")
    out = np.empty(counts.size)
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    boundaries = np.flatnonzero(np.diff(sorted_counts)) + 1
    for group in np.split(np.arange(counts.size), boundaries):
        k = int(sorted_counts[group[0]])
        out[order[group]] = _sample_fock(k, group.size, rng)
    return out


def sample_counts(model: PhotonModel, count: int, rng) -> np.ndarray:
    """Draw photon numbers from the model's number distribution."""
    if count != int(count) or count < 1:
        raise DomainError(f"sample count must be a positive integer, got {count}")
    rng, _ = _coerce_rng(rng)
    probs = pmf_values(model)
    cumulative = np.cumsum(probs / probs.sum())
    ks = np.searchsorted(cumulative, rng.random(int(count)), side="right")
    return np.minimum(ks, probs.size - 1)


def sample_quadratures(model: PhotonModel, count: int, rng) -> QuadratureSample:
    """Draw ``count`` quadrature measurements from ``model``.

    Two-stage sampling: photon numbers from the number distribution,
    then the conditional quadrature by rejection against a normal
    proposal.  ``rng`` may be a numpy Generator or an integer seed; a
    seed is recorded on the returned sample.
    """
    rng, seed = _coerce_rng(rng)
    ks = sample_counts(model, count, rng)
    values = sample_for_counts(ks, rng)
    return QuadratureSample(values=values, source=model, seed=seed)


# ---------------------------------------------------------------------------
# CSV persistence


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".json")


def save_samples(sample: QuadratureSample, path) -> None:
    """Write samples as a one-column CSV with header ``x``.

    When the sample carries provenance (source model or seed) a sidecar
    JSON file is written next to the CSV.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write("x\n")
        for value in sample.values:
            fh.write(f"{value:.17g}\n")
    if sample.source is not None or sample.seed is not None:
        meta = {
            "source": None if sample.source is None else sample.source.to_dict(),
            "seed": sample.seed,
        }
        _sidecar_path(path).write_text(json.dumps(meta))


def load_samples(path) -> QuadratureSample:
    """Read samples written by :func:`save_samples`."""
    path = Path(path)
    try:
        with path.open() as fh:
            header = fh.readline().strip()
            if header != "x":
                raise DomainError(
                    f"malformed samples CSV {path}: expected header 'x', got {header!r}"
                )
            try:
                values = np.array([float(line) for line in fh if line.strip()])
            except ValueError as exc:
                raise DomainError(f"malformed samples CSV {path}: {exc}") from None
    except OSError as exc:
        raise DomainError(f"cannot read samples CSV {path}: {exc}") from None
    source = seed = None
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed sidecar JSON {sidecar}: {exc}") from None
        if meta.get("source") is not None:
            source = PhotonModel.from_dict(meta["source"])
        seed = meta.get("seed")
    if values.size and not np.all(np.isfinite(values)):
        raise DomainError(f"malformed samples CSV {path}: non-finite values")
    return QuadratureSample(values=values, source=source, seed=seed)
