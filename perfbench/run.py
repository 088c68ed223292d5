"""Benchmark of mxt on the paper layout, end to end and, traced, per module.

    python3 perfbench/run.py --workload train-paper-32 --seed 1 --seconds 38 --trace 0

Run it from the root of a source checkout: the program is imported from
./src, and metric names and units come from ./BENCHMARK.json. The workloads
are in workloads.py and the span wrappers in tracing.py; predictions.json
says which per-layer metric should move which end-to-end metric, on which
workload.

The run sets the workload up SETUP_REPEATS times and runs its closed loop
for --seconds. With --trace 0 it prints the end-to-end metrics, each a
median over the set-ups or the operations of the run. With --trace 1 that
run is traced, and the same number of operations is run once more
untraced; it prints the per-layer metrics of the traced run, and
trace.overhead_s is the traced wall time minus the untraced one. It fails
unless both runs give bit-identical outputs and every per-layer metric
expected on the workload got a sample. The last line of standard
output is the result as one JSON object; the line before it holds the
environment and informational outputs, which are also written, with the
spans of a traced run, under perfbench/out/.

Exit status: 0 with a result; 2 without one (no source tree, or no
operation succeeded).
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-up is short next to the loop, so it is repeated and its median reported
SETUP_REPEATS = 15


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mxt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _source_sha(),
    }


def run_phase(wl, seconds, ops, tracer):
    """Set up, run the loop and check outputs; returns (set-up times, wall)."""
    from tracing import OTHER, SETUP
    from workloads import Budget

    def mark(op):
        if tracer is not None:
            tracer.op = op

    wl.reset()
    t0 = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        mark(SETUP)
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    cpu0, loop0 = time.process_time(), time.perf_counter()
    wl.run(Budget(seconds, ops, wl.min_ops), mark)
    wall = time.perf_counter() - t0
    wl.info.update(loop_wall_s=time.perf_counter() - loop0, loop_cpu_s=time.process_time() - cpu0)
    mark(OTHER)
    wl.check()
    return setups, wall


def _expected_nonzero(name: str, workload: str, table: list) -> bool:
    """Whether predictions.json expects samples of `name` on `workload`;
    entries name a metric or a dotted prefix of it, the longest one wins."""
    best = None
    for entry in table:
        m = entry["metric"]
        if (name == m or name.startswith(m + ".")) and (best is None or len(m) > len(best["metric"])):
            best = entry
    if best is None:
        raise KeyError(f"predictions.json has no entry for {name}")
    return workload not in best["zero_on"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mxt", "__init__.py")):
        print(f"perfbench: no mxt source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    from mxt import tensor
    from workloads import PAPER, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as f:
        predictions = json.load(f)

    env = environment()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        tracer = tracing.Tracer(PAPER["base_channels"]) if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            setups, wall = run_phase(wl, args.seconds, None, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted, failed, errors = wl.attempted, len(wl.failed_ops), list(wl.errors)
        if not wl.items:
            print(f"perfbench: no operation succeeded: {errors}", file=sys.stderr)
            return 2
        end_to_end = None if args.trace else wl.end_to_end()
        info = dict(wl.info, wall_s=wall, setup_runs_s=setups, ops=wl.loop_ops,
                    latencies_s=wl.latencies,
                    global_tape_nodes=len(tensor.active_tape()))
        if not args.trace:
            metrics = {"setup_s": statistics.median(setups),
                       "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       **end_to_end}
            listed = spec["end_to_end"]
        else:
            ops, traced_digests = wl.loop_ops, wl.digests
            metrics, samples = tracer.metrics(ops, SETUP_REPEATS)
            # the same operations untraced; the traced run came first and also
            # paid the process's warm-up, so the overhead includes it
            _, plain_wall = run_phase(wl, None, ops, None)
            attempted, failed, errors = (attempted + wl.attempted, failed + len(wl.failed_ops),
                                         errors + wl.errors)
            metrics["trace.overhead_s"] = wall - plain_wall
            info.update(untraced_wall_s=plain_wall, trace_overhead_share=wall / plain_wall - 1)
            if wl.digests != traced_digests:
                errors.append("traced outputs differ from the untraced run")
            missing = [n for n in samples if samples[n] == 0
                       and _expected_nonzero(n, args.workload, predictions["layers"])]
            if missing:
                errors.append(f"no samples for expected metrics {missing}")
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.dump(spans, tracer.spans[0][1] if tracer.spans else 0.0)
            info["spans_file"] = os.path.relpath(spans, ROOT)
            listed = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0 and len(errors) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "info": info, "errors": errors}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(dict(record, result=result), f, indent=1, default=str)
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
