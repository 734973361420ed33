"""Repeat benchmark runs and write a ``BENCH_<label>.json`` record.

    python3 benchmarks/record.py --label baseline --seeds 1-10 [--trace-seed 1]
    python3 benchmarks/record.py --compare benchmarks/BENCH_a.json benchmarks/BENCH_b.json

Run from the root of a checkout.  For every workload in ``BENCHMARK.json``
it runs the benchmark once per seed with tracing off, one run at a time,
and records each end-to-end metric's values, median and quartiles, and
its spread: the distance between the quartiles as a share of the median,
as ``statistics.quantiles(n=4)`` gives them.  The ungated metrics in
:data:`INFO` are recorded the same way.  With ``--trace-seed`` it adds
one traced run per workload and the layer shares of its traced wall
time.  ``--compare`` prints, for every workload and end-to-end metric,
how far the second record's median lies from the first's, against the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

#: Ungated metrics of the untraced runs that are recorded like the gated
#: ones: the measured times behind the rescaled ones, and the slices.
INFO = ("raw.wall_s", "raw.op_p50_s", "calib.slice_s")

#: Layer shares of the traced wall time, as (name, numerator metrics).
SHARES = (
    ("fits", ("inference.fit.s",)),
    ("pmf_values+fock_cutoff", ("photon_stats.pmf_values.self_s",
                                "photon_stats.fock_cutoff.self_s")),
    ("series", ("photon_stats.series.self_s",)),
    ("search", ("inference.search.s",)),
    ("errors", ("inference.errors.s",)),
    ("phi_build", ("inference.phi_build.s",)),
    ("matvec", ("inference.matvec.self_s",)),
    ("chi2_test+quantiles", ("inference.chi2_test.self_s", "quadrature.quantiles.s")),
    ("sampling", ("quadrature.sample.s",)),
    ("mc_pool+mc_subtract", ("quadrature.sample_counts.s", "subtraction.mc_subtract.s")),
    ("stage_bookkeeping", ("experiment.stage.self_s",)),
) + tuple((f"layer.{layer}", (f"layer.{layer}.self_s",)) for layer in (
    "photon_stats", "quadrature", "inference", "subtraction", "experiment"))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def record(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, workload, seed, 0))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        out.setdefault("env", runs[0]["record"]["env"])
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "correct": all(r["result"]["correct"] for r in runs),
            "failed_ops": [
                {"run_seed": r["record"]["seed"], **{k: op[k] for k in (
                    "index", "seed", "error", "wrong", "shortfalls")}}
                for r in runs for op in r["record"]["ops"] if not op["ok"]],
            "end_to_end": {},
            "info": {name: _stats([r["record"]["metrics"][name] for r in runs])
                     for name in INFO},
        }
        for name in bounds:
            stats = _stats([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            print(f"  {name:12s} median {stats['median']:.4g} spread {stats['spread']:.4f}"
                  f" (bound/3 {bounds[name] / 3:.4f})", flush=True)
        if args.trace_seed is not None:
            traced = run_once(spec, workload, args.trace_seed, 1)
            layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            wall = layer["trace.wall_s"]
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": layer,
                                  "shares": {name: sum(layer[k] for k in keys) / wall
                                             for name, keys in SHARES},
                                  "per_op": {k: layer[k] / layer["trace.ops"] for k in (
                                      "trace.wall_s", "inference.search.evals",
                                      "inference.errors.evals",
                                      "photon_stats.pmf_values.calls")}}
        out["workloads"][workload] = entry
    path = Path(args.out or ROOT / "benchmarks" / f"BENCH_{args.label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def compare(first: Path, second: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (first, second))
    worst = 0
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            continue
        for name, stats in entry["end_to_end"].items():
            change = other["end_to_end"][name]["median"] / stats["median"] - 1.0
            over = change > stats["bound"]
            worst |= over
            print(f"{workload:18s} {name:12s} {stats['median']:10.4g} -> "
                  f"{other['end_to_end'][name]['median']:10.4g} ({change:+.2%}, "
                  f"bound {stats['bound']:.0%}){'  WORSE' if over else ''}")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
