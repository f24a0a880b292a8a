"""Run every workload for one seed and print its metrics as a table.

    python3 perfbench/report.py --seed 1 [--seconds 24] [--trace]

Each workload runs in a fresh process (so peak RSS is its own), one after the
other. Without --trace the table holds the end-to-end metrics with unit and
sample count, plus failed_frac = failed / attempted; with --trace it holds
the per-layer metrics and names the layer with the most self time.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "exhaustive", "montecarlo", "swap")
LAYER_TOTALS = ("scattering.self_ms", "circuit.self_ms", "network.self_ms",
                "states.self_ms", "cli.main.self_ms")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if traced else "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        result, detail = run_one(workload, args.seed, args.seconds, args.trace)
        ok &= result["correct"]
        print(f"== {workload} (seed {args.seed}, {detail['passes']} passes of "
              f"{detail['ops_per_pass']} ops; {result['attempted']} attempted, "
              f"{result['failed']} failed)")
        for name, metric in result["metrics"].items():
            value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
            note = ""
            if name == "ops_per_s":
                note = f"  [median of {detail['passes']} passes]"
            elif name in ("op_p50_ms", "op_p90_ms"):
                note = f"  [{detail['latency_samples']} latency samples"
                note += f", {detail['p90_beyond']} beyond p90]" if name == "op_p90_ms" else "]"
            elif name == "setup_s":
                note = f"  [median of {detail['setup_reps']} set-ups]"
            print(f"  {name:40s} {value:>14s} {metric['unit']}{note}")
        print(f"  {'failed_frac':40s} {detail['failed_frac']:>14.6g} ratio"
              f"  [{result['attempted']} ops attempted]")
        if args.trace:
            totals = {k: result["metrics"][k]["value"] or 0.0 for k in LAYER_TOTALS}
            print(f"  leading layer by self time: {max(totals, key=totals.get)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
