"""ghzsim benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

Drives the command line in-process through `ghzsim.cli.main`, taking ghzsim
from `src/` of the checkout that holds this file. One client sends the next
op when the previous one has returned. Every op's output is checked by
`oracles`, whose reference values are computed before timing starts; an op
that raises, exits nonzero or fails its check counts as failed.

--trace 0 reports the end-to-end metrics, measured with no wrapper installed.
--trace 1 runs one untraced pass, then traced passes for half the seconds,
and reports the per-layer metrics of the traced passes (per pass) plus the
tracing overhead; the spans are written to .perfbench_out/ in the checkout.

The last line of standard output is the JSON result; the line before it,
starting with "detail ", carries sample counts, the failed fraction and the
machine facts.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5  # set-up is repeated and its median reported
MIN_OPS = 100  # so that at least ten latency samples lie beyond the 90th percentile
MAX_REPORTED_PROBLEMS = 20


@dataclass
class Result:
    seconds: float
    code: int | None
    text: str
    error: str


def fresh_cli():
    """Import ghzsim.cli from scratch, dropping any earlier import of the package."""
    for name in [m for m in sys.modules if m == "ghzsim" or m.startswith("ghzsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("ghzsim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ghzsim imported from {cli.__file__}, not from {SRC}")
    return cli


def execute(cli, op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # the loop keeps running; the op counts as failed
        code = None
        err.write(traceback.format_exc())
    return Result(time.perf_counter() - start, code, out.getvalue(), err.getvalue())


class Verifier:
    """Oracle check on an op's first output, byte identity on every repeat."""

    def __init__(self, ops):
        self.checks = {}
        for op in ops:
            if op.argv not in self.checks:
                self.checks[op.argv] = workloads.prepare(op)
        self.digests: dict = {}
        self.problems: list[str] = []
        self.failed = 0
        self.attempted = 0

    def __call__(self, op, result: Result) -> bool:
        self.attempted += 1
        problems = self._problems(op, result)
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        return not problems

    def _problems(self, op, result: Result) -> list[str]:
        if result.code != 0:
            return [f"exit code {result.code}: {result.error.strip()[-500:]}"]
        digest = hashlib.sha256(result.text.encode()).hexdigest()
        seen = self.digests.get(op.argv)
        if seen is not None:
            return [] if seen == digest else ["output differs from an earlier run of this op"]
        try:
            problems = self.checks[op.argv](result.text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            self.digests[op.argv] = digest
        return problems


def setup(workload: str, seed: int):
    """Import, generate inputs and make the first call of each op kind, several times.

    Returns (set-up times, cli module, pass ops, cold ops, cold outputs per rep).
    """
    times, outputs = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cli = fresh_cli()
        ops, cold = workloads.generate(workload, seed)
        results = [execute(cli, op) for op in cold]
        times.append(time.perf_counter() - start)
        outputs.append(results)
    return times, cli, ops, cold, outputs


def run_passes(cli, ops, verify: Verifier, seconds: float, min_ops: int,
               before_op=None, after_op=None):
    """Repeat whole passes until `seconds` of op time and `min_ops` ops are done.

    Returns the op latencies of each pass. The clock runs only inside ops:
    oracle checks and hooks happen between them.
    """
    passes: list[list[float]] = []
    elapsed = 0.0
    while not passes or elapsed < seconds or len(passes) * len(ops) < min_ops:
        latencies = []
        for op in ops:
            if before_op is not None:
                before_op(op)
            result = execute(cli, op)
            latencies.append(result.seconds)
            elapsed += result.seconds
            verify(op, result)
            if after_op is not None:
                after_op(op, result)
        passes.append(latencies)
    return passes


def pass_throughput(passes) -> float:
    """Median over passes of ops completed per second of op time."""
    return statistics.median(len(p) / sum(p) for p in passes)


def tail_percentile(samples, q: int = 90) -> dict:
    """q-th percentile (exclusive method) with the sample count and the count beyond it."""
    value = statistics.quantiles(samples, n=100)[q - 1]
    return {"value": value, "samples": len(samples),
            "beyond": sum(1 for s in samples if s > value)}


def machine_facts(cold_outputs) -> dict:
    pool = set()
    for result in cold_outputs:
        for line in result.text.splitlines():
            if line.startswith("# threads="):
                pool.add(int(line.split("=", 1)[1]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "efficiency_map_pool_threads": sorted(pool),
        "thread_env": {k: os.environ[k] for k in ("GHZSIM_THREADS", "OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def measure(args) -> tuple[dict, dict, Verifier]:
    setup_times, cli, ops, cold, cold_outputs = setup(args.workload, args.seed)
    verify = Verifier(cold + ops)  # reference values, before any timing
    for op, result in zip(cold, cold_outputs[0]):
        verify(op, result)
    for rep in cold_outputs[1:]:  # later set-up reps repeat the same cold ops
        for op, result in zip(cold, rep):
            verify(op, result)
    # the benchmark's own objects (references, op lists) leave the collector's
    # reach, so a collection inside an op costs what it costs in a CLI process
    gc.collect()
    gc.freeze()
    detail = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
              "setup_reps": SETUP_REPS, "machine": machine_facts(cold_outputs[0])}
    if not args.trace:
        passes = run_passes(cli, ops, verify, args.seconds, MIN_OPS)
        latencies = [t for p in passes for t in p]
        p90 = tail_percentile(latencies)
        metrics = {
            "ops_per_s": pass_throughput(passes),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": p90["value"] * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        detail.update(passes=len(passes), latency_samples=len(latencies),
                      p90_beyond=p90["beyond"], setup_times_s=setup_times)
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail, verify
    return measure_traced(args, cli, ops, verify, detail)


def measure_traced(args, cli, ops, verify: Verifier, detail: dict):
    """One untraced pass, then traced passes for half the run's seconds.

    Output bytes and branch counts are taken in the first traced pass only;
    every pass runs the same ops, so they are per-pass values already.
    """
    plain = run_passes(cli, ops, verify, 0.0, 1)
    tracer = tracing.Tracer()
    extra = {"circuit.live_branches": 0.0, "circuit.branch_mb": 0.0, "cli.output_bytes": 0.0}
    op_count = 0

    def before(op):
        nonlocal op_count
        tracer.op_id = op_count
        op_count += 1
        tracer.last_analyzer_call = None
        tracer.active = True

    def after(op, result):
        tracer.active = False
        if op_count > len(ops):
            return
        extra["cli.output_bytes"] += len(result.text.encode())
        spec = op.spec
        if (op.argv[0] == "analyze" and spec["shots"] is None and spec["sigma"] is None
                and extra["circuit.live_branches"] is not None):
            count_branches(tracer, extra)

    tracer.install()
    try:
        traced = run_passes(cli, ops, verify, args.seconds / 2.0, 1, before, after)
    finally:
        tracer.active = False
        tracer.uninstall()
    extra["trace.overhead_frac"] = 1.0 - pass_throughput(traced) / pass_throughput(plain)
    metrics = tracing.layer_metrics(tracer, len(traced), extra)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    detail.update(passes=len(traced), untraced_passes=len(plain),
                  spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)),
                  missing=sorted(tracer.missing))
    return metrics, detail, verify


def count_branches(tracer, extra: dict) -> None:
    """Live branches and their vector bytes, from one extra final_branches call."""
    call = tracer.last_analyzer_call
    circuit = sys.modules.get("ghzsim.circuit")
    final_branches = getattr(circuit, "final_branches", None)
    if call is None or final_branches is None:
        extra["circuit.live_branches"] = extra["circuit.branch_mb"] = None
        return
    args, _ = call
    try:
        branches = final_branches(args[0], args[1])
        nbytes = sum(b.amps.nbytes for b in branches if b.amps is not None)
    except (AttributeError, TypeError, ValueError):
        extra["circuit.live_branches"] = extra["circuit.branch_mb"] = None
        return
    extra["circuit.live_branches"] += len(branches)
    extra["circuit.branch_mb"] += nbytes / 2 ** 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ghzsim" / "cli.py").is_file():
        print(f"perfbench: no ghzsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    metrics, detail, verify = measure(args)
    for problem in verify.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    detail["failed_frac"] = verify.failed / verify.attempted
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": verify.failed == 0, "attempted": verify.attempted,
                      "failed": verify.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
