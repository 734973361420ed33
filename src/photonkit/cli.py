"""Command-line interface.

One subcommand per pipeline stage: ``model`` (number statistics),
``subtract`` (closed-form subtraction chains), ``sample`` (synthetic
quadrature files), ``fit`` (parameter recovery), ``gtable``
(autocorrelation tables), ``campaign`` (full reconstruction runs) and
``compare`` (model-overlay histograms).

Conventions: stdout carries only the machine-readable payload (TSV for
tables, JSON for structured results, CSV for bulk data); everything
else goes to stderr.  Exit codes are stable for scripting: 0 success,
2 usage or validation failure, 3 non-convergence (payload still
printed), 4 model-domain failure, 5 campaign failure (partial report
written next to the requested output).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CampaignError,
    ConvergenceError,
    DomainError,
    ImpossibleSubtractionError,
    OrderRangeError,
    SamplingError,
    SubVacuumVarianceError,
    TruncationError,
    UnsupportedModelError,
)
from .experiment import CampaignConfig, compare_models, run_campaign
from .inference import (
    REPORT_COLUMNS,
    fit_hierarchy2,
    mle_fit,
    moments_fit,
    report_row,
)
from .photon_stats import PhotonModel, autocorrelation, moments, pmf_values
from .quadrature import load_samples, sample_quadratures, save_samples
from .subtraction import _subtract

_MODEL_DOMAIN_ERRORS = (
    SubVacuumVarianceError,
    ImpossibleSubtractionError,
    UnsupportedModelError,
    OrderRangeError,
    TruncationError,
    SamplingError,
)


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad hierarchy levels {text!r}: {exc}") from exc
    return levels


def _build_model(args) -> PhotonModel:
    """Model from the (--a | --fock | --hierarchy) flag group."""
    specs = [args.a is not None, args.fock is not None, args.hierarchy is not None]
    if sum(specs) != 1:
        raise DomainError("give exactly one of --a, --fock, --hierarchy")
    if args.mu is None:
        raise DomainError("--mu is required")
    if args.a is not None:
        return PhotonModel.compound_poisson(args.mu, args.a)
    if args.fock is not None:
        return PhotonModel.binomial_fock(args.fock, args.mu)
    return PhotonModel.hierarchy(args.mu, _parse_levels(args.hierarchy))


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, help="mean photon number")
    parser.add_argument("--a", type=float, help="clusterization parameter")
    parser.add_argument("--fock", type=int, help="Fock-like model with n photons")
    parser.add_argument(
        "--hierarchy", help="comma-separated per-level parameters b1,b2,..."
    )


def _read_model_file(path: str) -> PhotonModel:
    return PhotonModel.from_json(Path(path).read_text())


def _cmd_model(args) -> int:
    model = _build_model(args)
    requests = [args.pmf is not None, args.g is not None, args.moments]
    if sum(requests) != 1:
        raise DomainError("give exactly one of --pmf, --g, --moments")
    if args.pmf is not None:
        if args.pmf < 0:
            raise DomainError("--pmf wants a nonnegative photon number")
        probs = pmf_values(model, args.pmf + 1)
        for k, prob in enumerate(probs):
            print(f"{k}\t{float(prob)!r}")
    elif args.g is not None:
        print(autocorrelation(model, args.g))
    else:
        mean, variance = moments(model)
        print(f"mean\t{mean!r}")
        print(f"variance\t{variance!r}")
    return 0


def _cmd_subtract(args) -> int:
    record = _subtract(_build_model(args), args.m, args.p)
    print(json.dumps(record.to_dict(), indent=2))
    return 0


def _cmd_sample(args) -> int:
    model = _build_model(args)
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        _info(args, f"seed={seed}")
    sample = sample_quadratures(model, args.n, rng=seed)
    save_samples(sample, args.out)
    _info(args, f"wrote {args.n} samples to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    sample = load_samples(args.input)
    reference = None if args.reference is None else _read_model_file(args.reference)
    if args.method == "mom":
        fit = moments_fit(sample, reference=reference)
    elif args.method == "mle":
        fit = mle_fit(sample, reference=reference)
    else:
        fit = fit_hierarchy2(sample, fixed_a1=args.fixed_a1, reference=reference)
    if args.report:
        print(REPORT_COLUMNS)
        print(report_row(Path(args.input).stem, fit))
    else:
        print(json.dumps(fit.to_dict(), indent=2))
    return 0


def _cmd_gtable(args) -> int:
    model = _build_model(args)
    if args.max_order < 2:
        raise DomainError("--max-order wants at least 2")
    print("order\tg\tln_g")
    for order in range(2, args.max_order + 1):
        g = autocorrelation(model, order)
        # Binomial light has g = 0 past n, where ln g is -inf.
        log_g = math.log(g) if g > 0.0 else -math.inf
        print(f"{order}\t{g!r}\t{log_g!r}")
    return 0


def _cmd_campaign(args) -> int:
    config = CampaignConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        result = run_campaign(config)
    except CampaignError as exc:
        partial_path = Path(str(args.out) + ".partial")
        partial_path.write_text(json.dumps(exc.partial, indent=2) + "\n")
        print(f"campaign failed: {exc}", file=sys.stderr)
        print(f"partial results written to {partial_path}", file=sys.stderr)
        return 5
    Path(args.out).write_text(result.report_csv())
    _info(args, f"report written to {args.out}")
    correlation = result.correlation
    if correlation.orders:
        order = correlation.orders[-1]
        value = correlation.log_g_values[-1]
        sigma = correlation.sigma_log_g[-1]
        print(f"ln_g{order}={value:.4f}±{sigma:.4f}")
    return 0


def _cmd_compare(args) -> int:
    sample = load_samples(args.input)
    level1 = _read_model_file(args.level1)
    level2 = _read_model_file(args.level2)
    table = compare_models(sample, level1, level2, args.bins)
    Path(args.out).write_text(table.to_csv())
    _info(args, f"comparison written to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonkit",
        description="photon statistics, subtraction, sampling and reconstruction",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="photon-number statistics of a model")
    _add_model_flags(p_model)
    p_model.add_argument("--pmf", type=int, help="print P(k) for k=0..K")
    p_model.add_argument("--g", type=int, help="print the order-m autocorrelation")
    p_model.add_argument("--moments", action="store_true", help="print mean and variance")
    p_model.set_defaults(func=_cmd_model)

    p_sub = sub.add_parser("subtract", help="closed-form photon subtraction chain")
    _add_model_flags(p_sub)
    p_sub.add_argument("--m", type=int, required=True, help="number of subtractions")
    p_sub.add_argument("--p", type=float, help="finite reflection probability")
    p_sub.set_defaults(func=_cmd_subtract)

    p_sample = sub.add_parser("sample", help="draw quadrature samples to CSV")
    _add_model_flags(p_sample)
    p_sample.add_argument("--n", type=int, required=True, help="sample count")
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.add_argument("--seed", type=int, help="RNG seed (derived if omitted)")
    p_sample.set_defaults(func=_cmd_sample)

    p_fit = sub.add_parser("fit", help="recover model parameters from samples")
    p_fit.add_argument("--input", required=True, help="samples CSV")
    p_fit.add_argument("--method", choices=("mom", "mle", "h2"), default="mle")
    p_fit.add_argument("--reference", help="model JSON for the fidelity column")
    p_fit.add_argument("--fixed-a1", type=float, help="hold a1 fixed (h2 only)")
    p_fit.add_argument(
        "--report", action="store_true", help="one-row CSV instead of JSON"
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_g = sub.add_parser("gtable", help="autocorrelation table g^(2)..g^(M)")
    _add_model_flags(p_g)
    p_g.add_argument("--max-order", type=int, required=True)
    p_g.set_defaults(func=_cmd_gtable)

    p_camp = sub.add_parser("campaign", help="full reconstruction campaign")
    p_camp.add_argument("--config", required=True, help="campaign config JSON")
    p_camp.add_argument("--out", required=True, help="report CSV path")
    p_camp.add_argument("--seed", type=int, help="override the config seed")
    p_camp.set_defaults(func=_cmd_campaign)

    p_cmp = sub.add_parser("compare", help="histogram overlay of two models")
    p_cmp.add_argument("--input", required=True, help="samples CSV")
    p_cmp.add_argument("--level1", required=True, help="first model JSON")
    p_cmp.add_argument("--level2", required=True, help="second model JSON")
    p_cmp.add_argument("--bins", type=int, required=True)
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(json.dumps({"converged": False, "best": exc.best}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _MODEL_DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
