"""One cold pass of a workload, run by `run.py` in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE [REFERENCE [SPANS]]
    python3 perfbench/worker.py --reference WORKLOAD OUT

A pass imports the package from `src/`, generates the workload's inputs
from the seed, prints `READY` (the parent stops its set-up clock there),
runs the job list once under a `SpeedClock`, and then, outside the timed
region, checks every output.  Its last output line is one JSON object:
scaled and raw wall time, scaled per-job latencies, the speed scale
that converts the parent's set-up time, peak RSS, failures and, when
traced, the per-layer aggregates.  `--reference` computes the reference data that
the checks compare against and writes it to OUT.
"""

import gc
import importlib
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speedclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("fforacle", "classify", "cli", "families")


def load_package():
    src = ROOT / "src"
    if not (src / "cycliccurves" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    pkg = SimpleNamespace(**{name: importlib.import_module(f"cycliccurves.{name}")
                             for name in MODULES})
    for module in vars(pkg).values():
        if not Path(module.__file__).resolve().is_relative_to(src):
            sys.exit(f"error: {module.__name__} imported from outside {src}")
    return pkg


def run_pass(name, seed, traced, reference_path, spans_path):
    pkg = load_package()
    workload = workloads.WORKLOADS[name]
    jobs = workload.make_jobs(random.Random(seed), pkg)
    print("READY", flush=True)
    # the warm-up probes right after set-up give the scale for set-up time
    clock = speedclock.SpeedClock()
    setup_scale = clock.scale
    tracer = tracing.Tracer(clock.now) if traced else None
    if tracer:
        tracer.install(vars(pkg))

    outputs, latencies = [], []
    raw_wall = 0.0
    clock.start()
    for i, job in enumerate(jobs):
        if workload.collect:
            gc.collect()
        if tracer:
            tracer.job = i
        t0, raw_t0 = clock.now(), perf_counter()
        try:
            out = workload.run(pkg, job)
        except Exception as exc:  # a failed job is counted, not fatal
            out = exc
        latencies.append(clock.now() - t0)
        raw_wall += perf_counter() - raw_t0
        outputs.append(out)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    reference = (json.loads(Path(reference_path).read_text())
                 if reference_path else None)
    failures = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            try:
                problem = workload.check(pkg, job, out, reference)
            except Exception as exc:  # an output of unexpected shape
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{job}: {problem}")

    result = {"wall_s": sum(latencies), "raw_wall_s": raw_wall,
              "setup_scale": setup_scale, "latencies_s": latencies,
              "peak_rss_mb": peak_rss_mb, "attempted": len(jobs),
              "failures": failures}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.aggregate())
        if spans_path:
            tracer.dump(spans_path)
    print(json.dumps(result))


def make_reference(name, out_path):
    pkg = load_package()
    data = workloads.WORKLOADS[name].reference(pkg)
    tmp = Path(f"{out_path}.tmp")
    tmp.write_text(json.dumps(data, sort_keys=True))
    tmp.replace(out_path)


def main(argv):
    if argv[0] == "--reference":
        make_reference(argv[1], argv[2])
        return
    name, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    reference = argv[3] if len(argv) > 3 and argv[3] != "-" else None
    spans = argv[4] if len(argv) > 4 else None
    run_pass(name, seed, traced, reference, spans)


if __name__ == "__main__":
    main(sys.argv[1:])
