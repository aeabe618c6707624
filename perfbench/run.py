"""sparsim benchmark: host time of the simulator on two workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload simulate-matrix --seed 0 --seconds 55 --trace 0

One client drives ``sparsim.cli.main(argv)`` in-process as a closed loop,
one verb call at a time, over a fixed cycle of ops whose configs and trace
files are made from ``--seed`` at set-up (see workloads.py).  Whole cycles
repeat until ``--seconds`` have passed and at least MIN_CYCLES cycles ran.
Every report is checked; an op fails on a nonzero exit code, on any stderr
output, on a failed check, or when its report differs from the same op's
report in the first cycle.

``--trace 0`` prints the end-to-end metrics (host time).  ``--trace 1``
alternates untraced cycles with cycles run under span recorders (spans.py)
and prints per-layer metrics and the tracing overhead.  The last stdout
line is the JSON result.

BLAS is pinned to one thread and ``--threads`` is never passed: the blocks
are 128 x 384, where BLAS threads only add noise on a small host, and the
sweep thread pool may change or go away; host time then measures the
simulator's own code on one core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import LAYERS, EngineTimer, SpanRecorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, parse_report  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench_work"
SPAN_DIR = ".perfbench_out"
SETUP_SAMPLES = 9  # the run's own set-up plus SETUP_SAMPLES - 1 fresh processes
# With >= 11 cycles the tail op (10 ops beyond it) is always an instance of
# the slowest op of the cycle, whatever the exact cycle count.
MIN_CYCLES = 11
HARD_STOP_S = 120.0  # stop adding cycles here, so a very slow commit still exits in time
TAIL_BEYOND = 10


class SetupError(RuntimeError):
    pass


def import_cli():
    """Import sparsim from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sparsim", "cli.py")):
        raise SetupError(f"no sparsim sources under {src}")
    sys.path.insert(0, src)
    import sparsim.cli
    if not os.path.abspath(sparsim.cli.__file__).startswith(src + os.sep):
        raise SetupError(f"imported sparsim from {sparsim.cli.__file__}, not {src}")
    return sparsim.cli


def timed_setup(workload: str, seed: int, workdir: str):
    """Import sparsim and make the workload's inputs; returns (cli, ops, seconds)."""
    t0 = perf_counter()
    cli = import_cli()
    ops = make_ops(cli, workload, seed, workdir)
    return cli, ops, perf_counter() - t0


def make_ops(cli, workload: str, seed: int, workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with redirect_stderr(io.StringIO()) as err:
        ops = WORKLOADS[workload](cli, seed, workdir)
    if err.getvalue():
        raise SetupError(f"set-up wrote to stderr: {err.getvalue().strip()}")
    return ops


def probe_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, import included."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def report_hash(rep: dict) -> str:
    rep = {k: v for k, v in rep.items() if k != "timestamp"}
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


class Loop:
    """Closed loop over the op cycle, with per-op checks."""

    def __init__(self, cli, ops, timer=None):
        self.cli, self.ops, self.timer = cli, ops, timer
        self.latencies = []
        self.engine = []  # (engine seconds, engine tokens) per op, with a timer
        self.attempted = self.failed = 0
        self.problems = []
        self.first_hashes = None

    def run_cycles(self, min_cycles: int, seconds: float, between=None) -> int:
        """Whole cycles until both limits are met; returns the cycle count.
        ``between(elapsed seconds)`` runs after each cycle, outside its timing."""
        start = perf_counter()
        cycles = 0
        while cycles < min_cycles or perf_counter() - start < seconds:
            if cycles and perf_counter() - start >= HARD_STOP_S:
                break
            self.run_cycle()
            cycles += 1
            if between:
                between(perf_counter() - start)
        return cycles

    def run_cycle(self) -> None:
        done, hashes = {}, []
        for i, op in enumerate(self.ops):
            problems, rep = self.run_op(op, done)
            h = report_hash(rep) if rep is not None else None
            hashes.append(h)
            if self.first_hashes is not None and h != self.first_hashes[i]:
                problems.append("report differs from the first cycle's")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.name}: {p}" for p in problems[:3])
        if self.first_hashes is None:
            self.first_hashes = hashes

    def run_op(self, op, done):
        if os.path.exists(op.out):
            os.unlink(op.out)
        err = io.StringIO()
        rc, problems = None, []
        timer = self.timer
        engine0 = (timer.seconds, timer.tokens) if timer else None
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except (Exception, SystemExit) as e:  # an op that raises counts as failed
            problems.append(f"raised {type(e).__name__}: {e}")
        self.latencies.append(perf_counter() - t0)
        if timer:
            self.engine.append((timer.seconds - engine0[0], timer.tokens - engine0[1]))
        if rc != 0:
            problems.append(f"exit code {rc}")
        if err.getvalue():
            problems.append(f"stderr: {err.getvalue().strip()[:200]}")
        rep = None
        try:
            with open(op.out) as f:
                rep = parse_report(f.read())
            done[op.name] = rep
            problems.extend(op.check(rep, done))
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"report unreadable or malformed: {type(e).__name__}: {e}")
        return problems, rep

    def digest(self) -> str:
        return hashlib.sha256("\n".join(map(str, self.first_hashes)).encode()).hexdigest()


def timed_cycle(loop: Loop) -> float:
    """Host seconds of one cycle's ops."""
    before = len(loop.latencies)
    loop.run_cycle()
    return sum(loop.latencies[before:])


def quiet_latencies(values, cycle_len: int):
    """Each op of the cycle at the fastest tenth of its instances (the 10th
    percentile over the cycles).  Another tenant of the host only ever adds
    time, and its load drifts over tens of seconds, so the fast end of each
    op's instances is the steadiest estimate of the op's own cost; a median
    moves with the share of the run the host was busy."""
    out = []
    for i in range(cycle_len):
        xs = values[i::cycle_len]
        # one cycle only when HARD_STOP_S cut the run short
        out.append(xs[0] if len(xs) == 1
                   else statistics.quantiles(xs, n=10, method="inclusive")[0])
    return out


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def emit(args, loop: Loop, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"error_rate {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.6g} ratio (failed ops / attempted ops)")
    print(f"digest {args.workload} seed={args.seed} sha256={loop.digest()}")
    for p in loop.problems[:10]:
        print(f"FAILED {p}")
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)


def run_untraced(args, cli, ops, own_setup_s: float) -> None:
    setup = [own_setup_s]

    def probe_when_due(elapsed: float) -> None:
        # The set-up probes are spread evenly over the run, between cycles, so
        # that their median sees the same drift in host speed as the cycles.
        if (len(setup) < SETUP_SAMPLES
                and elapsed >= (len(setup) - 1) * args.seconds / (SETUP_SAMPLES - 1)):
            setup.append(probe_setup_s(args.workload, args.seed))

    timer = EngineTimer()
    restore = timer.install()
    loop = Loop(cli, ops, timer)
    try:
        cycles = loop.run_cycles(MIN_CYCLES, args.seconds, probe_when_due)
    finally:
        restore()
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe_setup_s(args.workload, args.seed))
    lat, n = loop.latencies, len(ops)
    tail_s, tail_pct = tail(lat)
    engine_s = sum(quiet_latencies([s for s, _ in loop.engine], n))
    quiet = quiet_latencies(lat, n)
    engine_tokens = sum(t for _, t in loop.engine[:n])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / sum(quiet), "ops/s"),
        "op_p50_ms": (statistics.median(quiet) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "host_ms_per_token": (engine_s * 1e3 / max(engine_tokens, 1), "ms/token"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    print(f"workload={args.workload} seed={args.seed} cycles={cycles} "
          f"ops={len(lat)} cycle_len={n} engine_tokens_per_cycle={engine_tokens}")
    print("ops_per_s, op_p50_ms and host_ms_per_token use each op's 10th "
          "percentile over the cycles: summed over the cycle's ops, or their median")
    print(f"op_tail_ms is p{tail_pct:.2f} over {len(lat)} ops "
          f"({TAIL_BEYOND} ops beyond it); setup_s is the median of "
          f"{len(setup)} set-ups: {', '.join(f'{s:.4f}' for s in setup)}")
    emit(args, loop, metrics)


def run_traced(args, cli) -> None:
    """Untraced and traced cycles alternate, so a drift in host speed
    reaches both halves of each pair alike."""
    rec = SpanRecorder()
    restore = rec.install()
    try:
        ops = make_ops(cli, args.workload, args.seed, os.path.join(WORK_DIR, args.workload))
    finally:
        restore()
    loop = Loop(cli, ops)
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        untraced.append(timed_cycle(loop))
        rec.set_bucket(len(traced))
        restore = rec.install()
        try:
            traced.append(timed_cycle(loop))
        finally:
            restore()
    cycles = len(traced)
    rec.write(os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))

    metrics, missing = layer_metrics(rec, cycles)
    untraced_s = statistics.median(untraced)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / untraced_s, "ratio")

    inside = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print(f"workload={args.workload} seed={args.seed} cycles={cycles} "
          f"ops_per_cycle={len(ops)} spans={len(rec.spans)}")
    print("per-layer values cover one set-up plus one op cycle; times are "
          f"averaged over {cycles} traced cycles")
    for layer in LAYERS:
        if layer in missing:
            print(f"layer {layer}: missing (no function of it was entered)")
        else:
            share = metrics[f"{layer}.self_s"][0] / inside
            print(f"layer {layer}: self {share:.1%} of the time spent in sparsim "
                  f"({inside:.4f} s)")
    print("waiting time: none to report; one client runs one op at a time and "
          "nothing in the program is concurrent")
    print(f"layers_missing={','.join(missing) or 'none'} (their metrics read 0 below "
          "only because the result line needs a number)")
    emit(args, loop, metrics)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        if args.setup_probe:
            workdir = os.path.join(WORK_DIR, f"probe-{args.workload}")
            try:
                _, _, seconds = timed_setup(args.workload, args.seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": seconds}))
            return 0
        workdir = os.path.join(WORK_DIR, args.workload)
        try:
            if args.trace:
                run_traced(args, import_cli())
            else:
                run_untraced(args, *timed_setup(args.workload, args.seed, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
                os.rmdir(WORK_DIR)
    except (SetupError, subprocess.SubprocessError) as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
