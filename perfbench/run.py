"""dsmflow benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run measures end-to-end metrics; with
`--trace 1` it wraps every layer of the package and reports per-layer
self times and exact work counts per operation, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it repeat
every metric with its unit and sample count, and the run's environment.
Full reports and span files go to `.perfbench_work/`.
"""

import os

# Single-threaded numerics: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc's malloc moves its mmap and trim thresholds as a process frees
# memory, so whether a 160 KB array (a 20001-point grid) gets fresh,
# page-faulting memory or reuses the heap depends on the process's
# history: the same sweep operation took 39,000 page faults in one process
# and 92,000 in the next, a quarter of its time in the kernel. Fixed
# thresholds keep such arrays on a heap that is not trimmed, as in a
# warmed-up process, and make every run alike.
import ctypes  # noqa: E402

try:
    _libc = ctypes.CDLL("libc.so.6")
    MALLOC_FIXED = bool(_libc.mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD
                        and _libc.mallopt(-3, 32 << 20))  # M_MMAP_THRESHOLD
except (OSError, AttributeError):
    MALLOC_FIXED = False

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# setup_s is the median of several timed set-ups, each a fresh interpreter
# importing dsmflow plus the workload's set-up. They come in SETUP_ROUNDS
# rounds spread over the run, one before the operations start and one at
# each further share of the measuring time, and each round repeats the
# set-up until SETUP_ROUND_SECONDS have passed. Each set-up is timed next
# to the host-speed reference (speed.py) and reported at the reference
# host's speed. Cheap set-ups (0.2 s, mostly the import) get thirty or so
# tries, the sweep's 4-second set-up five.
SETUP_ROUNDS = 5
SETUP_ROUND_SECONDS = 1.0


def import_program():
    """Import dsmflow from this checkout's `src/`, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import dsmflow
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dsmflow from {SRC}: {exc}")
    if not Path(dsmflow.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: dsmflow imported from {dsmflow.__file__}, not {SRC}")
    return dsmflow


dsmflow = import_program()

import layer_metrics  # noqa: E402
import speed  # noqa: E402
from spans import NO_OP, SETUP_OP, Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402


def environment(seed: int) -> dict:
    import numpy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "caches": {},
        "commit": "unknown",
        "seed": seed,
        "threads": os.environ["OMP_NUM_THREADS"],
        "malloc_fixed": MALLOC_FIXED,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        env["commit"] = ref
    return env


def time_import() -> float:
    """Wall time of a fresh interpreter importing dsmflow."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dsmflow"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def setup_round(cls, seed: int, workdir: Path) -> tuple[object, list[float], list[float]]:
    """Set the workload up until SETUP_ROUND_SECONDS have passed, timing each
    set-up; returns the last workload set up, the wall times and the times
    at the reference host's speed."""
    times, norm = [], []
    ref = speed.reference()
    while sum(times) < SETUP_ROUND_SECONDS:
        t_import = time_import()
        workload = cls(seed, workdir)
        t0 = time.perf_counter()
        workload.setup()
        times.append(t_import + time.perf_counter() - t0)
        after = speed.reference()
        norm.append(speed.normalise(times[-1], (ref + after) / 2.0))
        ref = after
    return workload, times, norm


def run_ops(workload, seconds: float, first: int = 0, min_ops: int = 0,
            tracer: Tracer | None = None) -> list[OpResult]:
    """Closed loop: start operations first, first + 1, ... until `seconds`
    have passed and at least `min_ops` have run. The host-speed reference
    runs between operations."""
    results = []
    deadline = time.perf_counter() + seconds
    i = first
    ref = speed.reference()
    while len(results) < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            res = workload.op(i)
        except Exception:
            res = OpResult(time.perf_counter() - t0, "exception", ok=False, solved=False,
                           detail=traceback.format_exc(limit=3))
        if tracer is not None:
            tracer.op = NO_OP
        after = speed.reference()
        res.ref_s = (ref + after) / 2.0
        ref = after
        if not res.ok:
            print(f"op {i} ({res.kind}) failed: {res.detail}", file=sys.stderr)
        results.append(res)
        i += 1
    return results


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method, of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cycle_latency(results: list[OpResult], cycle: int, stat, wall: bool = False) -> float:
    """Time of one cycle of the operation mix with each operation at
    `stat` (median or mean) of the latencies its kind reached in the
    run, at the reference host's speed or, with `wall`, as measured."""
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.seconds if wall else r.norm_s)
    per_kind = {kind: stat(lat) for kind, lat in by_kind.items()}
    return sum(per_kind[r.kind] for r in results[:cycle])


def end_to_end(results: list[OpResult], cycle: int, setups: list[float],
               setups_norm: list[float]) -> dict:
    lat = [r.norm_s for r in results]
    errs = [r.oracle_err for r in results if r.oracle_err is not None]
    n = len(results)
    per_kind = f"of {n} ops, per kind, over a cycle of {cycle}"
    norm = "at reference speed"
    return {
        "cycle_p50_s": (cycle_latency(results, cycle, statistics.median), "s",
                        f"median {per_kind}, {norm}"),
        "ops_per_s": (cycle / cycle_latency(results, cycle, statistics.fmean), "1/s",
                      f"a cycle over its time at the mean {per_kind}, {norm}"),
        "cycle_p50_wall_s": (cycle_latency(results, cycle, statistics.median, wall=True), "s",
                             f"median {per_kind}, wall time"),
        "op_p50_s": (statistics.median(lat), "s", f"{n} samples, {norm}"),
        "op_p90_s": (quantile(lat, 90), "s", f"{n} samples, {norm}"),
        "host.reference_s": (statistics.median(r.ref_s for r in results), "s",
                             f"median over {n} ops; {speed.NOMINAL_S} s at reference speed"),
        "setup_s": (statistics.median(setups_norm), "s",
                    f"median of {len(setups)} set-ups in {SETUP_ROUNDS} rounds, {norm}"),
        "setup_wall_s": (statistics.median(setups), "s",
                         f"median of {len(setups)} set-ups, wall time"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss"),
        "solved_ratio": (sum(r.solved for r in results) / n, "ratio", f"of {n} ops"),
        "failed_ratio": (sum(not r.ok for r in results) / n, "ratio", f"of {n} ops"),
        "oracle_err_max": (max(errs) if errs else None, "H1",
                           f"max over {len(errs)} converged ops"),
    }


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emit(metrics: dict, section: str, results: list[OpResult], extra_ok: bool,
         report: dict, report_path: Path) -> None:
    for name, (value, unit, basis) in metrics.items():
        shown = "n/a" if value is None else repr(value)
        print(f"metric {name} = {shown} {unit} ({basis})")
    declared = declared_metrics(section)
    missing = [name for name in declared if metrics.get(name, (None,))[0] is None]
    wrong_unit = [name for name, unit in declared.items()
                  if name in metrics and metrics[name][1] != unit]
    failed = sum(not r.ok for r in results)
    correct = failed == 0 and extra_ok and not missing and not wrong_unit
    if missing or wrong_unit:
        print(f"perfbench: metrics missing {missing}, with wrong units {wrong_unit}",
              file=sys.stderr)
    report.update(correct=correct, attempted=len(results), failed=failed,
                  metrics={k: {"value": v, "unit": u, "basis": b}
                           for k, (v, u, b) in metrics.items()},
                  ops=[{"kind": r.kind, "seconds": r.seconds, "ref_s": r.ref_s, "ok": r.ok,
                        "solved": r.solved, "oracle_err": r.oracle_err, "detail": r.detail}
                       for r in results])
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared if name in metrics},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    env = environment(args.seed)
    # One CPU for the run and the interpreters it starts, so that each
    # set-up and operation runs where the host-speed reference next to it
    # ran; unpinned, the timed imports spread about three times as wide.
    env["cpu_pinned"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu_pinned"]})
    print("env " + json.dumps(env, sort_keys=True))
    # Relative paths keep the CLI's reports, which embed their output paths,
    # the same size wherever the checkout lives.
    os.chdir(ROOT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK.relative_to(ROOT) / f"{stem}-outputs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env}
    try:
        if not args.trace:
            setups, setups_norm, results = [], [], []
            for r in range(SETUP_ROUNDS):
                workload, times, norm = setup_round(cls, args.seed, workdir)
                setups += times
                setups_norm += norm
                last = r == SETUP_ROUNDS - 1
                results += run_ops(workload, args.seconds / SETUP_ROUNDS, len(results),
                                   cls.cycle - len(results) if last else 0)
            metrics = end_to_end(results, cls.cycle, setups, setups_norm)
            report["setup_runs_s"] = setups
            report["setup_runs_norm_s"] = setups_norm
            emit(metrics, "end_to_end", results, True, report, WORK / f"{stem}.json")
            return 0

        # Traced run: time operations 0..k-1 untraced for half the budget,
        # then install the wrappers, set up again under tracing and rerun
        # the same operations. The gap between the two passes is the
        # tracing overhead.
        workload = cls(args.seed, workdir)
        workload.setup()
        plain = run_ops(workload, args.seconds / 2.0, min_ops=cls.cycle)
        tracer = Tracer()
        tracer.install()
        tracer.op = SETUP_OP
        workload = cls(args.seed, workdir)
        workload.setup()
        tracer.op = NO_OP
        traced = run_ops(workload, 0.0, min_ops=len(plain), tracer=tracer)
        per_op = tracer.per_op()
        tracer.save(WORK / f"{stem}.spans.npz")
        metrics, zero_calls = layer_metrics.compute(per_op, args.workload, len(traced),
                                                    cls.cycle)
        p50_plain = cycle_latency(plain, cls.cycle, statistics.median)
        p50_traced = cycle_latency(traced, cls.cycle, statistics.median)
        basis = f"median of the same {len(plain)} ops, per kind, at reference speed"
        metrics["trace.overhead"] = (p50_traced / p50_plain - 1.0, "ratio",
                                     f"traced over untraced cycle_p50_s, {basis}")
        metrics["trace.cycle_p50_s_untraced"] = (p50_plain, "s", basis)
        metrics["trace.cycle_p50_s_traced"] = (p50_traced, "s", basis)
        if zero_calls:
            print(f"perfbench: no calls recorded for {zero_calls}", file=sys.stderr)
        report["per_op"] = {str(op): rec for op, rec in sorted(per_op.items())}
        report["count_ops"] = cls.cycle
        emit(metrics, "per_layer", plain + traced, not zero_calls, report,
             WORK / f"{stem}.json")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
