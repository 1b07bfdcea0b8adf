"""Record the benchmark, tier-1 suite time and source size in one file.

    python3 scripts/bench.py --out BENCH_11.json

Runs `perfbench/run.py --workload all --trace 0` for the end-to-end
medians of every workload, then one `--trace 1` run for the per-layer
metrics, then times the tier-1 suite (`python -m pytest -q` with `src`
on the path) and counts the lines of `src/cycliccurves/*.py` as
`wc -l` does.  Every run uses run.py's default seed 1 and 35 s per
workload, so the files of successive trees compare.  The output holds:

    end_to_end   {workload: {metric: value}}, medians over the passes
    per_layer    {workload: {metric: value}}, medians over traced passes
    checks       {run: {workload: {correct, attempted, failed}}}
    tier1        {wall_s, exit_code, summary}
    src_lines    {file: lines, ..., "total": lines}
    settings     seed, seconds, Python and numpy versions, CPU count

Times from run.py are in its nominal-speed seconds (see
perfbench/README.md); the tier-1 time is wall clock.  Exit code 0 when
every benchmark output checked out and the suite passed, 1 otherwise.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEED, SECONDS = 1, 35


def run_benchmark(trace):
    """{workload: run.py's result} of one `--workload all` run."""
    cmd = [sys.executable, str(RUN), "--workload", "all", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    *report, last = proc.stdout.strip().splitlines() or [""]
    print("\n".join(report), file=sys.stderr)
    # run.py exits 1 with its results when an output failed its check,
    # and 1 without them when a worker failed
    if proc.returncode in (0, 1):
        try:
            return json.loads(last)
        except json.JSONDecodeError:
            pass
    sys.exit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
             f"{proc.stderr}")


def metric_values(results):
    return {name: {key: m["value"] for key, m in r["metrics"].items()}
            for name, r in results.items()}


def check_counts(results):
    return {name: {key: r[key] for key in ("correct", "attempted", "failed")}
            for name, r in results.items()}


def time_tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 3), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def src_lines():
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((ROOT / "src" / "cycliccurves").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    plain = run_benchmark(0)
    traced = run_benchmark(1)
    record = {
        "end_to_end": metric_values(plain),
        "per_layer": metric_values(traced),
        "checks": {"trace0": check_counts(plain),
                   "trace1": check_counts(traced)},
        "tier1": time_tier1(),
        "src_lines": src_lines(),
        "settings": {"seed": SEED, "seconds": SECONDS,
                     "python": platform.python_version(),
                     "numpy": numpy.__version__, "cpus": os.cpu_count()},
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    ok = all(c["correct"] for run in record["checks"].values()
             for c in run.values())
    return 0 if ok and record["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
