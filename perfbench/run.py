"""Run one solv3d benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reach_grid --seed 1 --seconds 25 --trace 0

Workloads: reach_grid, trajectory, cli_session (see workloads.py and
README.md). With ``--trace 0`` the run measures the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` it repeats the workload's first round
untraced and traced, in process, and reports per-layer calls and self times
per round plus the tracing overhead. Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Timed quantities are
reported at reference speed (see ``workloads.REFERENCE_S``), with the wall-time
values beside them as informational lines.

The program is imported from ``src/`` next to this directory; the run exits
with status 2 and no result when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# one thread everywhere, so the numbers measure the program and not the scheduler
PINNED_ENV = {
    "SOLV3D_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 5
MIN_OPS = 11  # a tail needs ten samples beyond it
WORKLOAD_NAMES = ("reach_grid", "trajectory", "cli_session")
clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="smallest input sizes (used by selftest.py)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "threads_env": {k: os.environ[k] for k in sorted(PINNED_ENV)},
    }


# -- set-up ------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: import, generate inputs, warm up, then report and exit."""
    t0 = clock()
    import solv3d.cli  # noqa: F401  (the CLI's own import, timed on its own)

    print(f"import_s {clock() - t0!r}", flush=True)
    import workloads

    work_dir = fresh_dir(os.path.join(OUT, f"{args.workload}-seed{args.seed}-probe{os.getpid()}"))
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir, small=args.small)
    wl.warm_up()
    print("ready", flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float], list[float]]:
    """Set-up seconds (fresh interpreter to first timed op) at reference speed
    and in wall time, and import seconds."""
    from workloads import WORKLOADS, in_reference_seconds

    reference = WORKLOADS[args.workload].reference
    setups, walls, imports = [], [], []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.small:
        argv.append("--small")
    for _ in range(SETUP_PROBES):
        ref_before = reference()
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        ready = None
        for line in proc.stdout:
            if line.startswith("import_s "):
                imports.append(float(line.split()[1]))
            elif line.strip() == "ready":
                ready = clock() - t0
        proc.stdout.close()
        if proc.wait() != 0 or ready is None:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        walls.append(ready)
        setups.append(in_reference_seconds(ready, ref_before, reference()))
    return setups, walls, imports


# -- measured runs -------------------------------------------------------------


def run_untraced(wl, rec, seconds: float) -> tuple[list[list], list]:
    """Whole rounds for about ``seconds``, then the workload's closing operations.

    Another round starts while the time spent plus half a round stays below
    ``seconds``, so the measured time is the whole number of rounds nearest
    to it; at least one round and MIN_OPS operations run.
    """
    rounds: list[list] = []
    start = clock()
    while True:
        t0 = clock()
        rounds.append(wl.round(rec, len(rounds)))
        now = clock()
        if sum(map(len, rounds)) >= MIN_OPS and now - start + 0.5 * (now - t0) >= seconds:
            return rounds, wl.finish(rec)


def round_rate(rounds: list[list], per_label: dict[str, list[float]]) -> float:
    """Work of round 0 over the time round 0 takes when every operation takes
    the median of the times its label took in the run."""
    from workloads import median

    return sum(op.work for op in rounds[0]) / sum(median(per_label[op.label])
                                                  for op in rounds[0])


def run_traced(wl, rec, seconds: float) -> tuple[dict, dict]:
    """(untraced, traced) pairs of round 0 for about ``seconds``, by the rule
    of ``run_untraced``."""
    import tracing

    def spent():
        """Operation time so far, at reference speed."""
        return sum(map(sum, rec.costs.values()))

    tracer = tracing.Tracer()
    stats: Counter = Counter()
    plain = traced = 0.0
    rounds = 0
    start = clock()
    while True:
        t_pair = clock()
        t0 = spent()
        wl.traced_round(rec)
        plain += spent() - t0
        tracer.install()
        try:
            t0 = spent()
            wl.traced_round(rec, stats)
            traced += spent() - t0
        finally:
            tracer.uninstall()
        rounds += 1
        now = clock()
        if now - start + 0.5 * (now - t_pair) >= seconds:
            break
    tracer.dump(os.path.join(OUT, f"spans-{wl.name}.npz"))

    totals = tracer.layer_totals()
    values = {}
    for name, unit in tracing.metric_names():
        key, _, field = name.rpartition(".")
        if key in totals and field in ("calls", "self_s"):
            value = totals[key][0 if field == "calls" else 1]
        elif name in tracer.counters:
            value = tracer.counters[name]
        else:
            value = stats.get(name, 0)
        values[name] = (value / rounds, unit)
    points = tracer.counters["reach.arc_points"]
    cells = tracer.counters["reach.forward_cells"] + tracer.counters["reach.backward_cells"]
    values["reach.cells_per_kpoint"] = (1000.0 * cells / points if points else 0.0,
                                        "cells/kpoint")
    values["trace.spans"] = (len(tracer.fid) / rounds, "count")
    values["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    notes = {"rounds": rounds, "untraced_round_s": plain / rounds,
             "traced_round_s": traced / rounds}
    return values, notes


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)  # before numpy loads, and inherited by children
    # one core for this process and its children, so that the reference runs
    # see the speed of the core the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "solv3d", "__init__.py")):
        print(f"run.py: no solv3d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    if args.setup_probe:
        return setup_probe(args)

    setups, setup_walls, imports = measure_setup(args)
    import solv3d
    import workloads
    from workloads import median, tail, tail_note

    if not os.path.abspath(solv3d.__file__).startswith(SRC + os.sep):
        print(f"run.py: solv3d imported from {solv3d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = fresh_dir(os.path.join(OUT, tag))
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir, small=args.small)
    wl.warm_up()
    rec = workloads.Recorder(wl.reference)

    if args.trace:
        metrics, notes = run_traced(wl, rec, args.seconds)
        metrics["cli.import_s"] = (median(imports), "s")
        info = {}
    else:
        rounds, extra = run_untraced(wl, rec, args.seconds)
        ops = [op for r in rounds for op in r]
        times = [op.seconds for op in ops]
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            + getattr(wl, "child_rss_kib", 0)
        metrics = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
            "work_per_s": (round_rate(rounds, rec.costs), "1/s"),
        }
        info = {
            "setup_wall_s": (median(setup_walls), "s", "setup_s in wall time"),
            "work_per_wall_s": (round_rate(rounds, rec.times), "1/s",
                                "work_per_s in wall time"),
            "reference_s": (median(rec.reference_runs), "s",
                            f"median of {len(rec.reference_runs)} reference runs"),
            "op_s_p50": (median(times), "s", f"median of {len(times)} operations"),
            "op_s_tail": (tail(times)[0], "s", tail_note(times)),
            "cli_import_s": (median(imports), "s", f"median of {len(imports)} fresh imports"),
            **wl.details(ops, extra),
        }
        notes = {"rounds": len(rounds), "setup_samples": setups,
                 "setup_wall_samples": setup_walls, "import_samples": imports}
    t0 = clock()
    rec.run_checks()
    notes["checks_s"] = clock() - t0
    if not args.trace:
        metrics["ops_ok_frac"] = (1.0 - rec.failed / max(1, rec.attempted), "ratio")

    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "notes": notes,
              "failures": rec.messages, **result,
              "info": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in info.items()},
              "op_seconds": {label: {"count": len(ts), "median": median(ts)}
                             for label, ts in rec.times.items() if ts}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    m = record["machine"]
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, commit {m['commit']}")
    print(f"{args.workload} seed {args.seed}: {rec.attempted} operations, "
          f"{rec.failed} failed; " + ", ".join(f"{k} {v}" for k, v in notes.items()
                                               if not isinstance(v, list)))
    for message in rec.messages:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for name, (value, unit, note) in info.items():
        print(f"  ({name} = {value!r} {unit}; {note})")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
