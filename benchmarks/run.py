"""photonkit benchmark: one workload per run, metrics as one JSON line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports the package from the
checkout's ``src/``, so each commit measures its own code, and refuses to
run when that tree is missing.  The workloads are described in
``workloads.py``; ``BENCHMARK.json`` at the root names the metrics, their
units and their bounds.

A run makes its inputs from ``--seed``, then runs the workload's fixed
batch of ops, and more ops while the next one is expected to end within
``--seconds``.  Ops run one after another (a closed loop with one
caller), each in a child forked from the process that made the inputs
and ran no op, with the package's lru caches cleared, so every op starts
as a fresh process would and no op's heap is left to the next.  Every op
is checked; an op that raises or fails its check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: process start until the inputs are ready, the median of
  :data:`SETUP_REPEATS` fresh processes that import the package and make
  the inputs;
* ``wall_s``: the summed time of the fixed batch of ops;
* ``op_p50_s``: the median op time;
* ``peak_rss_mb``: the highest peak resident memory of the op processes
  of the fixed batch.  An op's peak counts the pages its process shares
  with the one that made the inputs, as a process that made the inputs
  and ran that op would; it depends on the seed, not on how many ops the
  run had time for.

``wall_s`` and ``op_p50_s`` are rescaled for host drift with the
:func:`reference_slice` timed before each op and after the last; the
measured times are reported as ``raw.wall_s`` and ``raw.op_p50_s``, and
the slices as ``calib.slice_s``.

``correct`` is false when an op is wrong, or when an op raises an error
that the workload's ``tolerated`` rule does not name; it is also false
when more than one op raises, or every op does.

``--trace 1`` reports the per-layer metrics.  It first runs op 0 with
tracing off, then installs the span recorder of ``tracer.py`` and runs
the same ops traced; ``trace.overhead_ratio`` compares the measured
times of the traced op 0 and the untraced one.  It exits non-zero,
without a result, when a function or cache that the tracer lists no
longer exists, so a change that moves one has to update the tracer.

Every run prints an environment stamp and a table of all metrics it
computed, then the result line, and writes a record (with the spans of a
traced run) to ``.bench_out/``.  Claims made with this benchmark must
also hold on :data:`HELD_OUT_SEED`, which tuning never uses.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: OpenBLAS / OpenMP threads for the benchmark's processes.  One thread
#: keeps the 2-core reference box free of BLAS scheduler noise.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
HELD_OUT_SEED = 9001

#: Typical time of one reference slice on the reference box (2 cores,
#: Python 3.11, numpy 2.4, one BLAS thread).  It sets the scale of the
#: rescaled times and cancels in every comparison.
REFERENCE_SLICE_S = 0.27

_COUNT_SUFFIXES = (".calls", ".evals", ".draws", ".in", ".kept", ".values",
                   ".passes", ".spans", ".ops")


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(_COUNT_SUFFIXES):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    raise ValueError(f"no unit rule for metric {name!r}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package():
    """Import photonkit from this checkout's src/, never from elsewhere."""
    init = SRC / "photonkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: {init} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import photonkit

    if Path(photonkit.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported photonkit from {photonkit.__file__}, not {init}")
    return photonkit


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs across numpy releases
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    files = sorted((SRC / "photonkit").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src.lines": lines,
        **_versions(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def _setup_probe_s(args) -> list[float]:
    """Wall time from process start to inputs ready, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def reference_slice() -> float:
    """Seconds of fixed work that does not touch the package.

    The shared host's speed drifts by up to 2x over minutes, while ops
    that run back to back agree to a few percent.  The slice is timed
    around every op to follow that drift: small numpy calls in a Python
    loop, then matvecs of the likelihood's size.  It runs in a child of
    its own (see :meth:`OpRunner.timed_slice`), so its matrix never enters
    the heap that the op processes start from.
    """
    import numpy as np

    rng = np.random.default_rng(20261017)
    matrix, vector = rng.random((25000, 100)), rng.random(100)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(20000):
        k = np.arange(100.0)
        acc += float(np.exp(-0.01 * k).sum()) + sum(range(50))
    for _ in range(150):
        acc += float((matrix @ vector).sum())
    return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two slices, at the reference speed.

    The factor is the square root of the slice ratio.  The slices react
    to the drift more strongly than the workloads do; see the README for
    the runs that chose the root and the ones that tested it.
    """
    return seconds * math.sqrt(REFERENCE_SLICE_S / (0.5 * (before + after)))


def run_forked(fn):
    """``fn()`` in a forked child: (its return value or None, status, peak MB).

    The peak is the child's peak resident memory, which counts the pages
    it shares with this process.  The child never returns into the
    caller's code, and the child is always waited for.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(fn())
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    value = pickle.loads(data) if status == 0 and data else None
    return value, status, usage.ru_maxrss / 1024.0


class OpRunner:
    """Runs ops of one workload, timing, checking and counting them."""

    def __init__(self, pk, workload, inputs, caches):
        self.pk, self.workload, self.inputs, self.caches = pk, workload, inputs, caches
        self.ops: list[dict] = []
        self.slices: list[float] = []
        self.cache_totals = {prefix: [0, 0] for prefix, _ in caches}

    def timed_slice(self) -> None:
        """Time a :func:`reference_slice` in a child of its own.

        Run here, its freed matrix would stay in this process's heap
        after the first slice and be counted in the peak of every later
        op, but not of the first.
        """
        seconds, status, _ = run_forked(reference_slice)
        if seconds is None:
            raise RuntimeError(f"the reference slice's process ended with wait status {status}")
        self.slices.append(seconds)

    def _op(self, inp, index: int, tracer) -> dict:
        """One op, its check and its counts; runs in the op's child."""
        for _, cache in self.caches:
            cache.cache_clear()
        first_span = len(tracer.spans) if tracer is not None else 0
        span = tracer.op_span(index) if tracer is not None else contextlib.nullcontext()
        result = error = trace_text = None
        tolerated = False
        start = time.perf_counter()
        with span:
            try:
                result = self.workload.run(self.pk, inp)
            except Exception as exc:  # every error is a failed op, never a crash
                error = f"{type(exc).__name__}: {exc}"
                trace_text = traceback.format_exc()
                tolerated = self.workload.tolerated(self.pk, exc)
        elapsed = time.perf_counter() - start
        wrong, shortfalls = [], []
        if error is None:
            try:
                wrong, shortfalls = self.workload.check(result)
            except Exception as exc:
                wrong = [f"check raised {type(exc).__name__}: {exc}"]
        return {
            "seconds": elapsed, "error": error, "tolerated": tolerated,
            "traceback": trace_text, "wrong": wrong, "shortfalls": shortfalls,
            "caches": {prefix: cache.cache_info()[:2] for prefix, cache in self.caches},
            "spans": tracer.spans[first_span:] if tracer is not None else [],
        }

    def run_one(self, index: int, tracer=None) -> float:
        op_seed, inp = self.inputs[index % len(self.inputs)]
        self.timed_slice()
        gc.collect()
        start = time.perf_counter()
        report, status, peak_mb = run_forked(lambda: self._op(inp, index, tracer))
        if report is None:
            report = {"seconds": time.perf_counter() - start, "tolerated": False,
                      "error": f"the op's process ended with wait status {status}",
                      "traceback": None, "wrong": [], "shortfalls": [],
                      "caches": {}, "spans": []}
        if tracer is not None:
            # The child appended to a copy of this list, so parent indices hold.
            tracer.spans.extend(report.pop("spans"))
        else:
            report.pop("spans")
        for prefix, (hits, misses) in report.pop("caches").items():
            self.cache_totals[prefix][0] += hits
            self.cache_totals[prefix][1] += misses
        error, wrong, shortfalls = report["error"], report["wrong"], report["shortfalls"]
        self.ops.append({
            "index": index, "seed": op_seed, **report, "peak_rss_mb": peak_mb,
            "slice_before": len(self.slices) - 1, "traced": tracer is not None,
            "ok": error is None and not wrong and not shortfalls,
        })
        return report["seconds"]

    def run_for(self, seconds: float, tracer=None) -> list[float]:
        """The fixed batch, then more ops while the next should end in time.

        Returns the op times rescaled to the reference speed.
        """
        times: list[float] = []
        begin = time.perf_counter()
        while len(times) < self.workload.batch or (
            time.perf_counter() - begin + statistics.median(times) <= seconds
        ):
            times.append(self.run_one(len(times), tracer))
        self.timed_slice()
        s = self.slices
        return [rescale(op["seconds"], s[op["slice_before"]], s[op["slice_before"] + 1])
                for op in self.ops[-len(times):]]


def is_correct(ops: list[dict]) -> bool:
    """No op wrong; at most one op raised, not every op, and only a tolerated error."""
    raised = [op for op in ops if op["error"] is not None]
    if any(op["wrong"] for op in ops) or len(raised) > 1 or len(raised) == len(ops):
        return False
    return all(op["tolerated"] for op in raised)


def _cache_metrics(totals) -> dict:
    out = {}
    for prefix, (hits, misses) in totals.items():
        out[f"{prefix}.calls"] = float(hits + misses)
        out[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    t_start = time.perf_counter()
    pk = _import_package()
    t_import = time.perf_counter()

    import tracer as tracing
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    t_inputs_start = time.perf_counter()
    inputs = make_inputs(pk, workload, args.seed)
    t_ready = time.perf_counter()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner = OpRunner(pk, workload, inputs, tracing.caches())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "held_out_seed": HELD_OUT_SEED,
              "env": environment()}
    metrics: dict[str, float] = {}
    if args.trace:
        runner.run_one(0)
        runner.cache_totals = {prefix: [0, 0] for prefix in runner.cache_totals}
        recorder = tracing.Tracer()
        recorder.install()
        missing = recorder.missing + tracing.missing_caches()
        if missing:
            recorder.uninstall()
            print("benchmark: the tracer lists functions or caches that no longer exist: "
                  + ", ".join(missing) + "; update benchmarks/tracer.py", file=sys.stderr)
            return 4
        try:
            make_inputs(pk, workload, args.seed)  # traced again for the sampling split
            times = runner.run_for(args.seconds, recorder)
        finally:
            recorder.uninstall()
        metrics.update(tracing.summarize(recorder.spans))
        metrics.update(_cache_metrics(runner.cache_totals))
        metrics["setup.import_s"] = t_import - t_start
        metrics["setup.inputs_s"] = t_ready - t_inputs_start
        untraced, traced = runner.ops[0], runner.ops[1]
        metrics["trace.overhead_ratio"] = traced["seconds"] / untraced["seconds"] - 1.0
        metrics["trace.ops"] = float(len(times))
        record["span_fields"] = ["name", "start", "end", "parent", "op", "size"]
        record["spans"] = recorder.spans
    else:
        probes = _setup_probe_s(args)
        times = runner.run_for(args.seconds)
        raw = [op["seconds"] for op in runner.ops]
        metrics["raw.wall_s"] = sum(raw[: workload.batch])
        metrics["raw.op_p50_s"] = statistics.median(raw)
        metrics["setup_s"] = statistics.median(probes)
        metrics["wall_s"] = sum(times[: workload.batch])
        metrics["op_p50_s"] = statistics.median(times)
        metrics["peak_rss_mb"] = max(op["peak_rss_mb"] for op in runner.ops[: workload.batch])
        metrics["run.ops"] = float(len(times))
        record["setup_probes_s"] = probes
        record["op_tail"] = "omitted: a run holds fewer than the 11 ops a tail needs"

    metrics["calib.slice_s"] = statistics.median(runner.slices)
    record["calib_slices_s"] = runner.slices
    attempted = len(runner.ops)
    failed = sum(not op["ok"] for op in runner.ops)
    correct = is_correct(runner.ops)
    metrics["fail_ratio"] = failed / attempted
    record["metrics"] = metrics
    record["ops"] = runner.ops

    result_metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics or unit_of(name) != unit:
            print(f"benchmark: metric {name!r} ({unit}) not produced as named in "
                  "BENCHMARK.json", file=sys.stderr)
            return 3
        result_metrics[name] = {"value": metrics[name], "unit": unit}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, separators=(",", ":")))

    print("env " + json.dumps(record["env"]))
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit_of(name)}")
    if args.trace == 0:
        print(f"  {'op_tail_s':44s} {'n/a':>14s} s   ({len(times)} ops; a tail needs 11+)")
    for op in runner.ops:
        reasons = ([f"error: {op['error']}"] if op["error"] else []) + [
            f"wrong: {text}" for text in op["wrong"]] + [
            f"shortfall: {text}" for text in op["shortfalls"]]
        for text in reasons:
            print(f"FAILED op {op['index']} (op seed {op['seed']}) {text}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
