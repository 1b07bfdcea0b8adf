"""Benchmark for the cycliccurves package: zeta towers, CLI verify calls
and classification sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload zeta-tower --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run it from any directory of a source checkout; the package is imported
from `src/`.  Each pass of a workload is one fresh interpreter
(`worker.py`), so the package's caches start empty as they do for a CLI
user; passes run one at a time, single-threaded, until `--seconds` have
elapsed.  Times are read from `speedclock.SpeedClock`, in seconds at a
nominal interpreter speed, so that the machine's own speed changes do
not show as changes of the package.  `--trace 0` reports the end-to-end
metrics (medians over the passes); `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones.  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics.  Exit code 0 when every output checked out, 1 when one did not,
2 when the package source is missing.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 120
REFERENCE_TIMEOUT_S = 600
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# layers a workload should never reach; a call there fails the traced run
PREDICTED_IDLE = {
    "zeta-tower": ("cli.main", "classify.classify", "classify.classify_raw",
                   "classify.verify_sasaki_bound",
                   "classify.enumerate_signatures", "ramification.rh_genus",
                   "families.genus"),
    "verify-cli": ("fforacle.zeta_genus", "classify.classify",
                   "classify.classify_raw", "classify.verify_sasaki_bound",
                   "classify.enumerate_signatures", "ramification.rh_genus",
                   "families.genus"),
    "classify-sweep": ("fforacle.field", "fforacle.count_places",
                       "fforacle.zeta_genus", "fforacle.affine_points",
                       "fforacle.verify_automorphism", "cli.main"),
}


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "build_s": "s", "rss_mb": "MB",
            "ns_per_element": "ns", "ns_per_point": "ns", "bytes_out": "B",
            "overhead_ratio": "ratio"}.get(last, "count")


class WorkerFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_CAPS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, timeout):
    """Run worker.py; return the seconds until its first output line,
    that line, and the lines after it."""
    cmd = [sys.executable, str(WORKER), *args]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        try:
            ready = select.select([proc.stdout], [], [], timeout)[0]
            first = proc.stdout.readline() if ready else ""
            setup = perf_counter() - start
            rest, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerFailed(f"{' '.join(args)}: timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    return setup, first.strip(), rest.strip().splitlines()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cycliccurves").rglob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_path(name):
    """Reference data for the checks, computed once per source version
    (the brute-force counts take about a minute) and kept under out/."""
    if workloads.WORKLOADS[name].reference is None:
        return None
    path = OUT / f"reference-{name}-{source_digest()}.json"
    if not path.is_file():
        OUT.mkdir(exist_ok=True)
        for stale in OUT.glob(f"reference-{name}-*.json"):
            stale.unlink()
        run_worker(["--reference", name, str(path)], REFERENCE_TIMEOUT_S)
    return path


def run_passes(name, seed, seconds, trace):
    """Run passes until the next one would end after `seconds`, and at
    least MIN_PASSES of each kind (untraced, and traced with `trace`)."""
    ref = reference_path(name)
    spans = OUT / f"spans-{name}.jsonl"
    if trace:
        OUT.mkdir(exist_ok=True)
    passes = {False: [], True: []}
    start = perf_counter()
    while True:
        done = len(passes[False]) + len(passes[True])
        elapsed = perf_counter() - start
        if (done and elapsed + elapsed / done > seconds
                and len(passes[False]) >= MIN_PASSES
                and (not trace or len(passes[True]) >= MIN_PASSES)):
            return passes
        traced = trace and done % 2 == 1
        args = [name, str(seed), "1" if traced else "0",
                str(ref) if ref else "-", str(spans)]
        setup, first, lines = run_worker(args, PASS_TIMEOUT_S)
        if first != "READY" or not lines:
            raise WorkerFailed(f"{' '.join(args)}: no result")
        result = json.loads(lines[-1])
        result["raw_setup_s"] = setup
        result["setup_s"] = setup * result["setup_scale"]
        passes[traced].append(result)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(untraced):
    """Medians over the passes.  The passes of a run share one job list,
    so each call's latency is first taken as its median over the passes,
    and the call percentiles are taken over those medians."""
    def med(key):
        return statistics.median(p[key] for p in untraced)
    calls = [statistics.median(job)
             for job in zip(*(p["latencies_s"] for p in untraced))]
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "call_p50_ms": percentile(calls, 50) * 1e3,
        "call_p90_ms": percentile(calls, 90) * 1e3,
        "peak_rss_mb": med("peak_rss_mb"),
    }


def measure(name, seed, seconds, trace):
    passes = run_passes(name, seed, seconds, trace)
    everything = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    problems = []
    if trace:
        traced = [p["layers"] for p in passes[True]]
        metrics = tracing.median_metrics(traced)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in passes[True])
            / statistics.median(p["wall_s"] for p in passes[False]))
        problems = [f"{layer} predicted idle on {name} but called "
                    f"{metrics[layer + '.calls']} times"
                    for layer in PREDICTED_IDLE[name]
                    if metrics[layer + ".calls"]]
        units = {key: layer_unit(key) for key in metrics}
        samples = f"median of {len(traced)} traced passes"
    else:
        metrics = end_to_end(passes[False])
        units = dict(END_TO_END)
        samples = (f"median of {len(passes[False])} passes, "
                   f"{len(passes[False][0]['latencies_s'])} calls each; "
                   "times in nominal-speed seconds")

    print(f"== {name} (seed {seed}, {samples})")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}")
    for key in ("raw_setup_s", "raw_wall_s"):
        value = statistics.median(p[key] for p in passes[False])
        print(f"  {key:40s} {value:14.6g} s (wall clock, not scaled)")
    print(f"  {'error_rate':40s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} jobs)")
    for problem in (failures + problems)[:20]:
        print(f"  FAIL {problem}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cycliccurves" / "__init__.py").is_file():
        print(f"error: package source missing under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except WorkerFailed as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
