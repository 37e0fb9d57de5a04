"""Run one seeded workload of the relucirc benchmark and print its metrics.

    python3 bench/run.py --workload universal-small --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the library is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones, with operation times in multiples of a fixed reference computation
timed next to each operation; with --trace 1 they are the per-layer ones, taken from spans recorded
around the library's public functions, and the spans are written to
bench/out/.  The line before it carries the machine, the versions and the
run's counts.  See bench/README.md.
"""
import os

# one BLAS thread: the spectral norm's matrix products must not fan out
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUPS = 5  # set-ups per run; setup_s is their median


def reference():
    """A fixed pure-Python computation of the library's kind: Fraction and
    integer arithmetic, a dict and a sort.  It is timed between operations,
    and each operation's time is reported in multiples of it."""
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 151):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    return acc, sorted(counts.items())


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def _process_age_s() -> float:
    """Seconds since this process started, from /proc (clock-tick resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def import_library():
    """Import relucirc from ./src afresh, dropping any copy already loaded,
    so that each set-up pays for the import and starts with empty caches."""
    for name in [m for m in sys.modules if m == "relucirc" or m.startswith("relucirc.")]:
        del sys.modules[name]
    rc = importlib.import_module("relucirc")
    importlib.import_module("relucirc.cli")
    if os.path.dirname(os.path.abspath(rc.__file__)) != os.path.join(SRC, "relucirc"):
        sys.exit(f"error: relucirc was imported from {rc.__file__}, not from {SRC}")
    return rc


def _run_op(op, tracer, failures: list) -> tuple[float | None, object]:
    """(seconds, result) of one operation; seconds is None when it raised."""
    spans = tracer.op(op.slot) if tracer is not None else contextlib.nullcontext()
    try:
        with spans:
            start = time.perf_counter()
            result = op.run()
            return time.perf_counter() - start, result
    except Exception:
        failures.append(f"{op.slot}: {traceback.format_exc()}")
        return None, None


def _check(op, result, errors: list, tracer=None) -> None:
    """Check an operation's result; in a traced run, run its probe first."""
    try:
        if tracer is not None and op.probe is not None:
            with tracer.op(op.slot, probe=True):
                op.probe(result)
        op.check(result)
    except Exception as exc:  # a check that raises for any reason marks the run incorrect
        errors.append(f"{op.slot}: {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase, in wall-clock seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "relucirc", "__init__.py")):
        print(f"error: no relucirc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy

    from tracer import Tracer
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, "work")
    os.makedirs(workdir, exist_ok=True)

    failures: list[str] = []
    errors: list[str] = []
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        rc = import_library()
        workload = WORKLOADS[args.workload](rc, args.seed, workdir)
        for op in workload.round(-1):  # warm-up round: fills the library's caches
            time_reference()
            _, result = _run_op(op, None, failures)
            if result is not None:
                _check(op, result, errors)
        setup_times.append(time.perf_counter() - start)
    if failures:  # a warm-up failure is a fault of the set-up, not an operation
        print(*failures, sep="\n", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    first_op_age = _process_age_s()

    # An operation's cost is its wall time over the mean of the reference
    # times just before and just after it.  The machine's speed drifts by a
    # third over minutes, and the three times drift together.
    durations: list[float] = []
    costs: list[float] = []
    slot_costs: dict[str, list[float]] = {}
    refs: list[float] = []
    round_costs: list[float] = []
    attempted = failed = rounds = 0
    check_s = 0.0
    phase_start = time.perf_counter()
    # whole rounds until --seconds of wall time have passed
    while time.perf_counter() - phase_start < args.seconds:
        round_cost = 0.0
        for op in workload.round(rounds):
            attempted += 1
            before = time_reference()
            elapsed, result = _run_op(op, tracer, failures)
            after = time_reference()
            refs += (before, after)
            if elapsed is None:
                failed += 1
                continue
            cost = elapsed / ((before + after) / 2)
            durations.append(elapsed)
            costs.append(cost)
            slot_costs.setdefault(op.slot, []).append(cost)
            round_cost += cost
            start = time.perf_counter()
            _check(op, result, errors, tracer)
            check_s += time.perf_counter() - start
        round_costs.append(round_cost)
        rounds += 1
    phase_s = time.perf_counter() - phase_start

    for message in (failures + errors)[:10]:
        print(message, file=sys.stderr)

    def p90(values):
        return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else 0.0

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        # the median round's rate: a burst of load moves a few rounds, not the median
        "ops_per_kref": 1e3 * len(costs) / rounds / statistics.median(round_costs) if costs else 0.0,
        "op_p50_ref": statistics.median(costs) if costs else 0.0,
        "op_p90_ref": p90(costs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # the same in wall-clock units, which follow the machine's speed
    wall_clock = {
        "reference_ms": statistics.median(refs) * 1e3 if refs else 0.0,
        "ops_per_s": len(durations) / sum(durations) if durations else 0.0,
        "op_p50_ms": statistics.median(durations) * 1e3 if durations else 0.0,
        "op_p90_ms": p90(durations) * 1e3,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "check_errors": len(errors),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_to_first_op_s": first_op_age,
        "phase_s": phase_s,
        "check_s": check_s,
        "setup_runs_s": setup_times,
        "end_to_end": end_to_end,
        "wall_clock": wall_clock,
        "slot_p50_ref": {slot: statistics.median(c) for slot, c in slot_costs.items()},
        "notes": workload.notes,
    }
    if tracer is None:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    else:
        # per round, so that runs of different lengths compare
        metrics = {
            m["name"]: {
                "value": (tracer.times if m["unit"] == "s/round" else tracer.counts)[m["name"]] / rounds,
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds})
        info["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
