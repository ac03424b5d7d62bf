"""Benchmark of ttrnn: training, evaluation and prediction, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload small-train --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run does one untraced and one traced
round and reports the per-layer metrics, self times and tracing overhead.
The line before it records the machine, the settings and the workload
properties.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread for this process and every child: on a 2-core machine the
# thread count alone moved a GEMM-bound evaluation 5.6x, which would swamp
# any change to a layer.  Set before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_BEYOND_TAIL = 10
INTERPRETER_SAMPLES = 5

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def machine(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "platform": platform.platform(),
    }


def tail(samples):
    """(percentile, value): the highest percentile with 10 samples beyond it.

    That is p = 100 * (n - 10) / n, rounded down: p50 at 20 samples, p66 at
    30.  Below 20 samples it would fall under the median, so the maximum
    (p100) stands in.
    """
    import numpy as np

    n = len(samples)
    if n == 0:
        return 0, 0.0
    p = 100 * (n - MIN_BEYOND_TAIL) // n if n >= 2 * MIN_BEYOND_TAIL else 100
    return p, float(np.percentile(samples, p))


def end_to_end(ledger, kinds, setup_times) -> dict:
    roles = {"dense": kinds[0], "tt": kinds[1]}
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    m = {"setup_s": (statistics.median(setup_times), "s")}
    for role, kind in roles.items():
        ex = ledger.train_ex_per_s.get(kind, [])
        m["train_ex_per_s." + role] = (statistics.median(ex) if ex else 0.0, "ex/s")
        m["test_macro_f1." + role] = (ledger.f1.get(kind, 0.0), "f1")
        n, s = sum(ledger.eval_examples.get(kind, [])), sum(ledger.eval_s.get(kind, []))
        m["eval_ex_per_s." + role] = (n / s if s else 0.0, "ex/s")
        lat = ledger.predict_ms.get(kind, [])
        m["predict_ms.p50." + role] = (statistics.median(lat) if lat else 0.0, "ms")
        m["predict_ms.tail." + role] = (tail(lat)[1], "ms")
    m["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return m


def overhead(plain, traced, kinds) -> dict:
    """Traced minus untraced time of the same round, as a share of untraced."""

    def share(a, b):
        return (b - a) / a if a else 0.0

    out = {}
    for role, kind in zip(("dense", "tt"), kinds):
        out["train_s." + role] = share(sum(plain.train_s.get(kind, [])), sum(traced.train_s.get(kind, [])))
    out["eval_s"] = share(
        sum(sum(v) for v in plain.eval_s.values()), sum(sum(v) for v in traced.eval_s.values())
    )
    p = [x for v in plain.predict_ms.values() for x in v]
    t = [x for v in traced.predict_ms.values() for x in v]
    out["predict_ms"] = share(statistics.median(p), statistics.median(t)) if p and t else 0.0
    return out


def interpreter_ms(env) -> float:
    times = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ttrnn", "__init__.py")):
        print("perfbench: no ttrnn sources at %s; run from the repository root" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    import numpy as np

    import corpus
    import spans
    import ttrnn
    import workloads

    if not os.path.abspath(ttrnn.__file__).startswith(src + os.sep):
        print("perfbench: imported ttrnn from %s, not %s" % (ttrnn.__file__, src), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    child_env = dict(os.environ, PYTHONPATH=src, TTRNN_LOG="quiet", **THREAD_ENV)
    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, "run-%d" % os.getpid())
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)

    tracer = spans.Tracer()
    setup_ledger, plain, traced = workloads.Ledger(), workloads.Ledger(), workloads.Ledger()
    try:
        fingerprints = corpus.reference_fingerprints()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            state = workloads.setup(w, args.seed, workdir, setup_ledger, tracer)
            setup_times.append(time.perf_counter() - t0)

        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            t0 = time.perf_counter()
            workloads.run_round(w, state, args.seed, rounds, child_env, plain, tracer)
            rounds += 1
            if args.trace or time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
        if args.trace:
            tracer.install()
            tracer.active = True
            workloads.run_round(w, state, args.seed, rounds, child_env, traced, tracer)
            tracer.active = False
            tracer.uninstall()
            rounds += 1
        props = workloads.properties(w, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = {}
    ledgers = (setup_ledger, plain, traced)
    for ledger in ledgers:
        for op, counts in ledger.ops.items():
            total = ops.setdefault(op, {"attempted": 0, "succeeded": 0, "failed": 0})
            for k, v in counts.items():
                total[k] += v
    attempted = sum(c["attempted"] for c in ops.values())
    failed = sum(c["failed"] for c in ops.values())
    inputs_ok = fingerprints == corpus.REFERENCE_FINGERPRINTS

    if args.trace:
        layer = spans.layer_metrics(tracer, props, interpreter_ms(child_env), overhead(plain, traced, w.kinds))
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layer.items()}
        table = spans.span_table(tracer)
    else:
        e2e = end_to_end(setup_ledger.merged(plain), w.kinds, setup_times)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in e2e.items()}
        table = None
    finite = all(math.isfinite(m["value"]) for m in metrics.values())

    base = "%s-seed%d-trace%d-%d" % (w.name, args.seed, args.trace, os.getpid())
    info = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "git_commit": git_commit(root),
        "machine": machine(np),
        "blas_threads": {"this_process": THREAD_ENV, "each_child": {k: child_env[k] for k in THREAD_ENV}},
        "ops": ops,
        "setup_s": setup_times,
        "predict_samples": {k: len(v) for k, v in plain.predict_ms.items()},
        "predict_tail_percentile": {k: tail(v)[0] for k, v in plain.predict_ms.items()},
        "properties": props,
        "reference_fingerprints": fingerprints,
        "reference_fingerprints_match": inputs_ok,
        "errors": [e for ledger in ledgers for e in ledger.errors][:20],
    }
    if table is not None:
        spans_path = os.path.join(out_dir, "results", base + "-spans.npz")
        tracer.dump(spans_path)
        info["spans_file"] = os.path.relpath(spans_path, root)
        info["self_time_s"] = [[k, round(v["self_s"], 6), v["calls"]] for k, v in
                               sorted(table.items(), key=lambda kv: -kv[1]["self_s"])]
    with open(os.path.join(out_dir, "results", base + ".json"), "w", encoding="utf-8") as f:
        json.dump({"info": info, "metrics": metrics}, f, indent=1, sort_keys=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and inputs_ok and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
