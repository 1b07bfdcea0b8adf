"""Record the benchmark, tier-1 suite time and source size in one file.

    python3 scripts/bench.py --out BENCH_11.json
    python3 scripts/bench.py --out BENCH_13.json --against HEAD~1 \
        --pairs zeta-tower=10 --pairs verify-cli=3

Runs `perfbench/run.py --workload all --trace 0` for the end-to-end
medians of every workload, then one `--trace 1` run for the per-layer
metrics, then times the tier-1 suite as CI runs it (`python -m pytest
-q --continue-on-collection-errors -W error::RuntimeWarning` with `src`
on the path) and counts the lines of `src/cycliccurves/*.py` as
`wc -l` does.  Every run uses run.py's default seed 1 and 35 s per
workload.  The output holds:

    end_to_end   {workload: {metric: value}}, medians over the passes
    per_layer    {workload: {metric: value}}, medians over traced passes
    checks       {run: {workload: {correct, attempted, failed}}}
    tier1        {wall_s, exit_code, summary}
    src_lines    {file: lines, ..., "total": lines}
    settings     seed, seconds, Python and numpy versions, CPU count

Two BENCH files recorded on different days need not compare: the load
other tenants put on a shared machine moves every time.  `--against
REV` therefore also runs REV's committed tree, unpacked by `git
archive` into a temporary directory that is removed afterwards, beside
this one: for each `--pairs NAME=N` (3 pairs of every workload when none
is given), N pairs of `run.py --workload NAME --trace 0` runs, pair i
with seed i + 1 on both sides and the side that runs first switching
from pair to pair.  Their end-to-end metrics go under

    against      {rev, pairs: {workload: [{seed, first, parent, change,
                  parent_failed, change_failed}]},
                  summary: {workload: {metric: {parent, change,
                  parent_iqr, better}}}}

with the medians of each side, the interquartile range of the parent's
runs, and the number of pairs in which the change ran lower.

Times from run.py are in its nominal-speed seconds (see
perfbench/README.md); the tier-1 time is wall clock.  Exit code 0 when
every benchmark output checked out and the suite passed, 1 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS = 1, 35


def run_benchmark(trace, workload="all", seed=SEED, tree=ROOT):
    """run.py's result for one workload, or {workload: result} for all,
    from the checkout at `tree`."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
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


def alternate(rev, pairs):
    """The `against` record: pairs of runs of REV's tree and this one."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    record = {"rev": sha, "pairs": {}, "summary": {}}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", sha],
                                 cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        for workload, count in pairs:
            runs = []
            for i in range(count):
                sides = [("parent", parent), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                run = {"seed": SEED + i, "first": sides[0][0]}
                for side, tree in sides:
                    result = run_benchmark(0, workload, SEED + i, tree)
                    run[side] = {key: m["value"]
                                 for key, m in result["metrics"].items()}
                    run[f"{side}_failed"] = result["failed"]
                runs.append(run)
            record["pairs"][workload] = runs
            record["summary"][workload] = {key: {
                "parent": statistics.median(r["parent"][key] for r in runs),
                "change": statistics.median(r["change"][key] for r in runs),
                "parent_iqr": iqr([r["parent"][key] for r in runs]),
                "better": sum(r["change"][key] < r["parent"][key] for r in runs),
            } for key in runs[0]["parent"]}
    return record


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def pair_spec(text):
    name, _, count = text.partition("=")
    return name, int(count)


def time_tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-W", "error::RuntimeWarning"],
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
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's committed tree beside this one")
    parser.add_argument("--pairs", metavar="NAME=N", type=pair_spec,
                        action="append",
                        help="N alternated pairs of workload NAME")
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
    if args.against:
        record["against"] = alternate(args.against, args.pairs or [
            (name, 3) for name in record["end_to_end"]])
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    ok = all(c["correct"] for run in record["checks"].values()
             for c in run.values()) and not any(
        run[f"{side}_failed"] for runs in record.get(
            "against", {"pairs": {}})["pairs"].values()
        for run in runs for side in ("parent", "change"))
    return 0 if ok and record["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
