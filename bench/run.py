"""Benchmark of the kohmoto toolkit: certified spectra workloads in a closed
loop (one caller, no think time).

    python3 bench/run.py --workload bands_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One workload per process.  The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics from a traced run with --trace 1.
`--workload all` runs every workload, untraced then traced, each in its own
process, and prints one table.  Exit codes: 0 success, 1 a wrong output,
2 the program could not be loaded, 3 the tracing self-check failed.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: the workloads have one caller and small
# matrices, so BLAS threads only add contention and noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
WORKLOAD_NAMES = ("bands_sweep", "defect_optimality", "butterfly_fast")


def die(msg: str, code: int) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_program():
    """Import kohmoto from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kohmoto
    except ImportError as exc:
        die(f"cannot import kohmoto from {ROOT / 'src'}: {exc}", 2)
    if not Path(kohmoto.__file__).resolve().is_relative_to(ROOT / "src"):
        die(f"kohmoto was imported from {kohmoto.__file__}, not from this checkout", 2)
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first task being ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        die(f"setup probe failed (exit {code})", 2)
    return t1 - t0


def setup_time(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES probes, each scaled to reference speed by
    the calibration samples taken around it."""
    import speed

    calibrations, probes = [speed.sample()], []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(workload, seed))
        calibrations.append(speed.sample())
    return statistics.median(t * f for t, f in zip(probes, speed.factors(calibrations)))


class Loop:
    """Runs whole rounds of a workload until the timed task work reaches
    `seconds`; outputs are checked between tasks, outside the timed region.

    With `scaled`, the calibration kernel runs after every task (and once
    before the first), its time counts towards `seconds`, and task times
    are scaled to reference speed (see speed.py).  Traced runs are not
    scaled, so that their times add up to the spans' self times."""

    def __init__(self, wl, ref, tracer=None, scaled=False):
        self.wl, self.ref, self.tracer, self.scaled = wl, ref, tracer, scaled
        self.times = []  # time of each task that passed its check
        self.wall_times = []  # the same tasks' unscaled wall times
        self.round_times = []  # unscaled
        self.calibrations = []
        self.attempted = self.failed = self.wrong = 0
        self.rows = self.rows_failed = 0
        self.errors = []

    def run(self, rounds, seconds: float) -> None:
        from kohmoto import spectra

        import checks
        import speed

        walls, passed = [], []  # per attempted task
        spent = 0.0
        if self.scaled:
            self.calibrations.append(speed.sample())
        for rnd in rounds:
            round_start = sum(walls)
            for item in rnd:
                spectra.clear_memos()  # each task stands for its own CLI call
                self.attempted += 1
                error = None
                t0 = perf_counter()
                try:
                    out = self._task(item)
                except Exception as exc:  # a task that raises is a failed operation
                    error = exc
                walls.append(perf_counter() - t0)
                passed.append(False)
                spent += walls[-1]
                if self.scaled:
                    self.calibrations.append(speed.sample())
                    spent += self.calibrations[-1]
                if error is not None:
                    self.failed += 1
                    self.errors.append(f"{item}: {type(error).__name__}: {error}")
                    continue
                try:
                    res = self.wl.check(item, out, self.ref)
                except checks.WrongOutput as exc:
                    self.wrong += 1
                    self.errors.append(f"wrong output: {exc}")
                    continue
                passed[-1] = True
                if res is not None:
                    self.rows += res[0]
                    self.rows_failed += res[1]
            self.round_times.append(sum(walls) - round_start)
            if spent >= seconds:
                break
        else:
            print(f"note: all {len(rounds)} generated rounds ran before {seconds} s", file=sys.stderr)
        factors = speed.factors(self.calibrations) if self.scaled else [1.0] * len(walls)
        scaled = [w * f for w, f in zip(walls, factors)]
        self.times = [t for t, ok in zip(scaled, passed) if ok]
        self.wall_times = [w for w, ok in zip(walls, passed) if ok]
        self.measured = sum(scaled)

    def _task(self, item):
        tr = self.tracer
        if tr is None:
            return self.wl.task(item)
        tr.active = True
        tr.task += 1
        tr.enter("bench.task")
        try:
            return self.wl.task(item)
        finally:
            tr.exit()
            tr.active = False


def tail(times: list[float]) -> tuple[float, float]:
    """Task time at the highest percentile with at least ten tasks beyond
    it, and that percentile."""
    xs = sorted(times)
    i = max(0, len(xs) - 11)
    return xs[i], 100.0 * (i + 1) / len(xs)


def failed_frac(loop: Loop) -> tuple[float, int, str]:
    if loop.rows:
        return loop.rows_failed / loop.rows, loop.rows, "butterfly rows"
    return loop.failed / loop.attempted, loop.attempted, "tasks"


def run_workload(args, wl) -> int:
    import checks
    import speed

    rounds = wl.rounds(random.Random(args.seed))
    if not args.trace:
        setup = setup_time(wl.name, args.seed)
    ref = checks.load_reference()
    env = environment(args.seed)
    info = {"workload": wl.name, "seconds": args.seconds, "env": env}

    if args.trace:
        import tracer as tracing

        # The first round untraced (a zero time budget stops after one
        # round), to compare with the same round traced.
        plain = Loop(wl, ref)
        plain.run(rounds, 0.0)
        tr = tracing.Tracer()
        undo = tracing.install(tr)
        try:
            loop = Loop(wl, ref, tr)
            loop.run(rounds, args.seconds)
        finally:
            tracing.uninstall(undo)
        missing = tracing.missing_calls(tr, wl.name)
        traced_wall = loop.measured
        self_total = sum(tr.self_s.values())
        metrics = tracing.layer_metrics(tr, loop.rows, loop.rows_failed)
        metrics["bench.tracing_overhead_s"] = (loop.round_times[0] - plain.round_times[0], "s")
        metrics["bench.traced_wall_s"] = (traced_wall, "s")
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")
        info["self_time_sum_s"] = self_total
        if missing:
            print(f"trace self-check: no calls recorded for {', '.join(missing)}", file=sys.stderr)
        if abs(self_total - traced_wall) > 0.01 * traced_wall + 1e-3:
            print(f"trace self-check: self times sum to {self_total:.4f} s, traced wall {traced_wall:.4f} s", file=sys.stderr)
            missing = missing or ["accounting"]
        if missing:
            return 3
    else:
        loop = Loop(wl, ref, scaled=True)
        loop.run(rounds, args.seconds)
        t_tail, pct = tail(loop.times) if loop.times else (0.0, 0.0)
        metrics = {
            "setup_s": (setup, "s"),
            "tasks_per_s": (len(loop.times) / loop.measured, "1/s"),
            "task_p50_s": (statistics.median(loop.times) if loop.times else 0.0, "s"),
            "task_tail_s": (t_tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info["task_tail_percentile"] = pct
        info["tasks_timed"] = len(loop.times)
        info["calibration_s"] = {"reference": speed.REFERENCE_S, "median": statistics.median(loop.calibrations),
                                 "min": min(loop.calibrations), "max": max(loop.calibrations)}
        info["wall_task_p50_s"] = statistics.median(loop.wall_times) if loop.wall_times else 0.0

    frac, ops, what = failed_frac(loop)
    info.update(
        attempted=loop.attempted,
        failed=loop.failed,
        wrong=loop.wrong,
        failed_frac=frac,
        failed_frac_of=f"{ops} {what}",
        measured_s=loop.measured,
        rounds=len(loop.round_times),
        errors=loop.errors[:20],
    )
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {loop.attempted} tasks in "
          f"{len(loop.round_times)} rounds, {loop.measured:.2f} s timed, "
          f"{loop.failed} failed, {loop.wrong} wrong")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "task_tail_s":
            extra = f"  (p{info['task_tail_percentile']:.1f} of {info['tasks_timed']} tasks)"
        print(f"  {name:38s} {value:14.6g} {unit}{extra}")
    print(f"  {'failed_frac':38s} {frac:14.6g}  ({ops} {what})")
    for err in loop.errors[:5]:
        print(f"  ! {err}")
    print("info " + json.dumps(info))
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if loop.wrong == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    table, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith(("info ", "{"))), flush=True)
            if proc.returncode:
                status = status or proc.returncode
                continue
            info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
            result = json.loads(lines[-1])
            table.setdefault(name, {})[f"trace{trace}"] = {"result": result, "info": info}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": table}, fh, indent=1)
            fh.write("\n")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the collected results here as JSON")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="recompute reference.json (only at a commit whose outputs are trusted)")
    args = ap.parse_args()
    if args.workload == "all" and not (args.record_reference or args.probe):
        return run_all(args)
    wl_mod = load_program()
    if args.probe:
        wl_mod.WORKLOADS[args.workload].rounds(random.Random(args.seed))
        print("ready", flush=True)
        return 0
    if args.record_reference:
        import checks

        ref = wl_mod.record_reference(lambda msg: print(msg, file=sys.stderr, flush=True))
        with open(checks.REFERENCE_PATH, "w") as fh:
            json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        return 0
    return run_workload(args, wl_mod.WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
