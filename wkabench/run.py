"""Benchmark for the wka package: one workload per process, one closed loop.

Usage (from the root of the repository):

    python3 wkabench/run.py --workload catalog --seed 1 --seconds 12 --trace 0

The package is imported from ``src/`` of the same checkout.  After set-up
(import, input construction, one untimed warm-up pass) the workload runs
whole passes for about ``--seconds`` seconds.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run repeats the passes with every public function of the
package wrapped, and reports the per-layer metrics instead.  Every output is
checked; the exit code is 1 when any is wrong and 2 on a usage or set-up
error.  Metric names and units come from ``BENCHMARK.json`` at the root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".wkabench"
SETUP_REPEATS = 3
# layers recorded by the benchmark itself rather than by wrapping a function
BENCH_SPANS = {"constructors.build", "cli.build", "cli.dual", "cli.verify",
               "cli.report", "cli.derive"}
STAT_FIELDS = ("calls", "total_s", "self_s")


def fail(message: str) -> int:
    print(f"wkabench: {message}", file=sys.stderr)
    return 2


def blas_record() -> dict:
    """BLAS library and thread count of the loaded numpy."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                record["threads"] = fn()
                return record
    return record


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(wka) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "wka": getattr(wka, "__version__", None),
        "git_commit": git_commit(),
    }


def quantile(values, q: float) -> float:
    """Inclusive quantile, so small samples stay within their range."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def timed_pass(workload) -> tuple:
    t0 = time.perf_counter()
    ops = workload.run_pass()
    return time.perf_counter() - t0, ops


def measure(workload, seconds: float) -> list:
    """Whole passes for about ``seconds``: [(wall, ops)].

    At least ``workload.min_passes``; past that, another pass starts only if
    it would end less than half a pass after ``seconds``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(timed_pass(workload))
        typical = statistics.median(wall for wall, _ in passes)
        if (len(passes) >= workload.min_passes
                and time.perf_counter() - start + typical / 2 >= seconds):
            return passes


def op_latencies(passes) -> dict:
    """Each operation's latencies over the passes, in ms."""
    out = {}
    for _, ops in passes:
        for op in ops:
            out.setdefault(op.label, []).append(op.seconds * 1e3)
    return out


def end_to_end(setup_s, passes) -> dict:
    from workloads import peak_rss_mb

    latencies = [op.seconds * 1e3 for _, ops in passes for op in ops]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in passes),
        "peak_rss_mb": peak_rss_mb(),
        "member_p50_ms": statistics.median(latencies),
        "member_p90_ms": quantile(latencies, 0.9),
    }


def per_layer(names, tracer, workload, traced, untraced) -> dict:
    n = len(traced)
    values = dict(workload.per_layer([ops for _, ops in traced]))
    values["tracing.overhead_s"] = (
        statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in untraced)
    )
    values["weakkac.max_residual"] = tracer.counters.get("weakkac.max_residual", 0.0)
    for name in names:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field in STAT_FIELDS:
            values[name] = getattr(tracer.layer(layer), field) / n
        else:
            values[name] = tracer.counters.get(name, 0) / n
    return values


def hooks() -> dict:
    """Counters taken at layer boundaries, outside the timed interval."""
    from workloads import coproduct_nnz

    def saved(tracer, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        tracer.count("storage.bytes_written", os.path.getsize(path))

    def loaded(tracer, args, kwargs, result):
        path = kwargs.get("path", args[0] if args else None)
        tracer.count("storage.bytes_read", os.path.getsize(path))

    def dualized(tracer, args, kwargs, result):
        tracer.count("duality.dual_nnz", coproduct_nnz(result))

    def verified(tracer, args, kwargs, result):
        worst = tracer.counters.get("weakkac.max_residual", 0.0)
        tracer.counters["weakkac.max_residual"] = max(worst, result.max_residual)

    return {
        "storage.save_wka": saved,
        "storage.load_wka": loaded,
        "duality.dual": dualized,
        "weakkac.verify_weak_kac": verified,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wka benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if not (ROOT / "src" / "wka" / "__init__.py").is_file():
        return fail("src/wka not found: run from a checkout of the wka repository")

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        names = ", ".join(w["name"] for w in spec["workloads"])
        return fail(f"unknown workload {args.workload!r}: one of {names}")

    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workdir) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (read from its installed bytecode, as any user does)

    # Look for bytecode only in the empty work directory and write none, so
    # src/wka is compiled from source whether or not a __pycache__ exists.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(workdir / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    import wka
    import wka.cli
    import_s = time.perf_counter() - t0
    if Path(wka.__file__).resolve().parent != ROOT / "src" / "wka":
        return fail(f"imported wka from {wka.__file__}, not from this checkout")

    from tracer import Tracer  # the script's directory leads sys.path
    from workloads import WORKLOADS, sha256_file

    tracer = Tracer()
    workload = WORKLOADS[args.workload](wka, tracer, args.seed, str(workdir))
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup_inputs()
        builds.append(time.perf_counter() - t)
    t = time.perf_counter()
    warmup = workload.run_pass(warmup=True)
    setup_s = import_s + statistics.median(builds) + time.perf_counter() - t

    untraced = measure(workload, args.seconds)
    traced = []
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        listed = {
            n.rpartition(".")[0] for n in names if n.rpartition(".")[2] in STAT_FIELDS
        } - BENCH_SPANS
        tracer.install("wka", listed=listed, hooks=hooks())
        tracer.recording = True
        workload.setup_inputs()  # so constructors.build covers set-up
        traced = [timed_pass(workload)]  # call counts repeat exactly
        tracer.recording = False
    notes = workload.notes([ops for _, ops in untraced])
    inputs = {name: sha256_file(p) for name, p in workload.input_files.items()}

    every = warmup + [op for _, ops in untraced + traced for op in ops]
    failed = [op for op in every if not op.ok]
    correct = not failed
    for op in failed:
        print(f"FAILED {op.label}: {op.error}", file=sys.stderr)
    reference = [op.verdict for op in untraced[0][1]]
    for _, ops in traced:
        if [op.verdict for op in ops] != reference:
            correct = False
            print("FAILED traced verdicts differ from untraced verdicts", file=sys.stderr)

    if args.trace:
        kind = "per_layer"
        values = per_layer(names, tracer, workload, traced, untraced)
    else:
        kind = "end_to_end"
        values = end_to_end(setup_s, untraced)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(wka),
        "input_sha256": inputs,
        "passes": len(untraced),
        "pass_walls_s": [wall for wall, _ in untraced],
        "traced_passes": len(traced),
        "traced_pass_walls_s": [wall for wall, _ in traced],
        "op_ms": op_latencies(untraced),
        "ops": len(every),
        "samples_per_latency": sum(len(ops) for _, ops in untraced),
        "fail_frac": len(failed) / len(every),
        "absent_layers": tracer.absent,
        "notes": notes,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(RESULTS / f"{stem}-spans.json")

    for key in ("environment", "input_sha256", "absent_layers", "notes"):
        print(f"# {key}: {json.dumps(record[key])}")
    print(f"# {args.workload} seed {args.seed}: {record['passes']} timed passes, "
          f"{record['traced_passes']} traced passes, {record['samples_per_latency']} "
          f"latency samples, {len(every)} ops, fail_frac {record['fail_frac']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
