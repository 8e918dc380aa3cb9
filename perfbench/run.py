#!/usr/bin/env python3
"""brickwall benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload geo_pipeline --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the program is imported from
./src.  A run sets up and warms up, then it replays the workload's deck of
tasks (workloads.py, a pure function of workload and seed) in rounds, one
task at a time and each round in a new order, until --seconds of task time
and at least MIN_ROUNDS rounds have passed.  Every output of every round is
checked against references.json and the exact wall invariants, outside the
timed region.  setup_s is the median of eleven fresh interpreters timed until
set up, one before each round and the rest after the last.
peak_rss_mb is the peak resident memory of a fresh process that sets up and
runs each input of the deck once, without the gate (for cli_session, of
the largest `brickwall` process).

Host speed: on a shared machine the CPU's speed swings by 15-70% for
seconds at a time.  A fixed calibration loop runs just before and just
after each timed execution, and every time is reported at the reference
speed, at which the loop takes CALIBRATION_S: seconds x CALIBRATION_S /
(mean time of the two loops).  The run and every process it starts are
pinned to one CPU, so the loops measure the CPU the task runs on.  task_s_p50 and task_s_tail are the median
and the tail of all executions of the run; the tail is the highest of
p50/p75/p90/p95/p99 with at least ten executions beyond it in the shortest
run (MIN_ROUNDS rounds), so it is fixed by the deck size.  Unscaled medians
are logged beside the metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the deck once
with every public brickwall function wrapped (tracer.py), each task once
traced and once untraced, and reports the per-layer metrics, the trace
overhead and the baseline rows of ROADMAP.md; spans are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 11         # fresh interpreters timed for setup_s
# rounds every run makes, whatever --seconds is; a geo_pipeline round takes
# 1-2 s, the others 4-12 s
MIN_ROUNDS = {"geo_pipeline": 3, "block_grid": 2, "mc_sweep": 2,
              "cli_session": 3}
CALIBRATION_S = 0.001     # time of calibration() at the reference speed

END_TO_END = {"task_s_p50": "s", "task_s_tail": "s", "bricks_per_s": "bricks/s",
              "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "fraction"}

LAYER_TIMES = (
    "generate.iterate", "generate.check_no_overlap", "generate.iterate_block",
    "generate.render_grid", "generate.format_pattern", "svg.to_svg",
    "joints.vertical_joints", "joints.check_prop2", "stats.sample_vmax",
    "spectral.matrix", "spectral.pf_eigenvalue", "spectral.brick_frequencies",
    "spectral.count_bricks", "spectral.count_realizations", "rules.parse_rule",
)
COUNTS = ("generate.bricks", "generate.steps", "joints.joints", "svg.bytes",
          "stats.trials", "rng.draws")
CALLS = ("joints.has_crossing", "rules.parse_rule")
SUBCOMMANDS = ("generate", "analyze", "validate", "spectrum", "count", "sample")
BASELINE_ROWS = ("iterate_sigma3_n8", "check_no_overlap_n8", "vertical_joints_n8",
                 "to_svg_n8", "format_pattern_n8", "ptm_skewed_n9",
                 "sample_vmax_n4x200", "sample_vmax_n5x50")
KNOWN_FAILURE = ["count", "--rule", "random_self_similar", "--seed-brick", "B22",
                 "-n", "8"]


def per_layer_units():
    units = {f"{name}.s": "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in COUNTS})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units["generate.steps_useful_ratio"] = "ratio"
    units["cli.process_start_s"] = "s"
    units["cli.import_s"] = "s"
    units.update({f"cli.{sub}.s": "s" for sub in SUBCOMMANDS})
    units["trace.overhead_frac"] = "fraction"
    units.update({f"baseline.{row}.s": "s" for row in BASELINE_ROWS})
    return units


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def log(message):
    print(message, flush=True)


# ---------------------------------------------------------------------------
# host speed

def calibration(rounds=3000):
    """Seconds taken by a fixed loop of dict and Fraction arithmetic, the
    kind of pure-Python work the program does."""
    start = time.perf_counter()
    table, total = {}, Fraction(0)
    for i in range(rounds):
        key = i * 7919 % 211
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            total += Fraction(i, 7)
    sorted(table.items())
    return time.perf_counter() - start


def at_reference_speed(seconds, before, after):
    """`seconds` measured between calibration loops that took `before` and
    `after`, scaled to the reference speed."""
    return seconds * 2 * CALIBRATION_S / (before + after)


# ---------------------------------------------------------------------------
# set-up

def setup(workload):
    """Import the program, parse the workload's rules and warm up."""
    import workloads
    if workload == "cli_session":
        import brickwall.cli  # noqa: F401  what each CLI process imports
    rules = workloads.load_rules(workload)
    for task in workloads.WARMUP[workload]:
        workloads.run_task(task, rules)
    return rules


def setup_probe(workload, seed):
    """Seconds, at the reference speed, from spawning a fresh interpreter
    until it is set up."""
    before = calibration()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"], stdout=subprocess.PIPE, text=True, env=child_env())
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return at_reference_speed(elapsed, before, calibration())


def peak_probe(workload, seed):
    """Peak resident MB of a fresh process that sets up and runs each input
    of the deck once, ungated."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--peak-only"], env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("peak probe failed")
    return usage.ru_maxrss / 1024


def run_inputs_once(workload, seed):
    """The body of the peak probe."""
    import workloads
    rules = setup(workload)
    inputs = {workloads.task_key(t): t for t in workloads.deck(workload, seed)}
    for task in inputs.values():
        workloads.run_task(task, rules)


# ---------------------------------------------------------------------------
# task execution

class Run:
    """Times and verdicts of every execution of the deck's tasks."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.times = []       # seconds at the reference speed
        self.raw = []         # seconds as measured
        self.bricks = 0       # bricks of the executions that passed the gate
        self.attempted = 0
        self.failed = 0

    def record(self, i, seconds, raw, ok, reason, bricks):
        self.attempted += 1
        self.times.append(seconds)
        self.raw.append(raw)
        if ok:
            self.bricks += bricks
        else:
            self.failed += 1
            if self.failed <= 5:
                log(f"FAILED {json.dumps(self.tasks[i])}: {reason}")


def timed(call, tracer=None):
    """Run call() once from a collected heap, timed between two calibration
    loops, with the tracer installed if one is given; returns (seconds at
    the reference speed, seconds as measured, result, error)."""
    gc.collect()
    before = calibration()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as e:  # a failed task is counted, never fatal
        result, error = None, f"{type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return at_reference_speed(elapsed, before, calibration()), elapsed, result, error


def execute_inprocess(task, rules, refs, tracer=None):
    """Time one in-process task, then gate it; returns (seconds, raw
    seconds, ok, reason, bricks)."""
    import workloads
    seconds, raw, result, error = timed(lambda: workloads.run_task(task, rules),
                                        tracer)
    if error:
        return seconds, raw, False, error, 0
    return (seconds, raw, *workloads.gate(task, result, rules,
                                          refs.get(workloads.task_key(task))))


def execute_cli_inprocess(task, refs, workdir, tracer=None):
    """cli.main in this process, timed, then gated like a CLI process."""
    import workloads
    seconds, raw, result, error = timed(
        lambda: workloads.run_cli_inprocess(task, workdir), tracer)
    if error:
        return seconds, raw, False, error, 0
    return (seconds, raw, *workloads.gate_cli(task, *result,
                                              refs.get(workloads.task_key(task))))


def execute_cli_child(task, refs, workdir, peak):
    """One `brickwall` process, timed from spawn to exit; `peak` collects
    each child's peak resident memory."""
    import workloads
    stdout_path = os.path.join(workdir, "stdout.txt")
    before = calibration()
    with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "brickwall.cli",
                                 *task["argv"]], cwd=workdir, env=child_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    seconds = at_reference_speed(elapsed, before, calibration())
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak.append(usage.ru_maxrss / 1024)
    with open(stdout_path, "rb") as fh:
        stdout = fh.read()
    return (seconds, elapsed,
            *workloads.gate_cli(task, proc.returncode, stdout,
                                workloads.read_out(task, workdir),
                                refs.get(workloads.task_key(task))))


def tail_percentile(n):
    """Highest of p50..p99 with at least ten of n samples beyond it."""
    return max(q for q in (50, 75, 90, 95, 99) if n * (100 - q) >= 1000)


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(workload, seed, seconds, refs, workdir):
    import workloads
    tasks = workloads.deck(workload, seed)
    rules = setup(workload)
    run, peak, probes, rounds, busy = Run(tasks), [], [], 0, 0.0
    if workload != "cli_session":
        peak.append(peak_probe(workload, seed))
    while busy < seconds or rounds < MIN_ROUNDS[workload]:
        # set-up probes are spread over the run, one before each round
        probes.append(setup_probe(workload, seed))
        order = list(range(len(tasks)))
        random.Random(f"{workload}/{seed}/{rounds}").shuffle(order)
        for i in order:
            if workload == "cli_session":
                outcome = execute_cli_child(tasks[i], refs, workdir, peak)
            else:
                outcome = execute_inprocess(tasks[i], rules, refs)
            run.record(i, *outcome)
            busy += outcome[1]
        rounds += 1
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed))
    q = tail_percentile(len(tasks) * MIN_ROUNDS[workload])
    metrics = {
        "task_s_p50": statistics.median(run.times),
        "task_s_tail": statistics.quantiles(run.times, n=100,
                                            method="inclusive")[q - 1],
        "bricks_per_s": run.bricks / sum(run.times),
        "peak_rss_mb": max(peak),
        "success_rate": 1 - run.failed / run.attempted,
        "setup_s": statistics.median(probes),
    }
    n = len(run.times)
    log(f"{workload}: {len(tasks)} tasks x {rounds} rounds, {busy:.2f} s of task"
        f" time; task_s_tail is p{q} of {n} executions"
        f" ({n - int(n * q / 100)} beyond it)")
    log(f"unscaled: task median {statistics.median(run.raw):.4f} s,"
        f" {run.bricks / sum(run.raw):.6g} bricks/s")
    log(f"setup_s probes: {', '.join(f'{t:.3f}' for t in probes)}")
    if workload == "cli_session":
        probe_known_failure(workdir)
    return run, metrics


def probe_known_failure(workdir):
    """Report, outside the timed workload, whether `count -n 8` still dies on
    Python's integer-to-string digit limit."""
    result = subprocess.run([sys.executable, "-m", "brickwall.cli", *KNOWN_FAILURE],
                            cwd=workdir, env=child_env(), capture_output=True,
                            text=True, timeout=120)
    verdict = ("still fails" if result.returncode != 0 else "now passes")
    log(f"known failure probe: brickwall {' '.join(KNOWN_FAILURE)} -> exit"
        f" {result.returncode} ({verdict}) {result.stderr.strip()[:100]}")


def requested_steps(task):
    """Substitution steps the task's requested walls need."""
    if task["kind"] in ("geo", "block", "random"):
        return task["n"]
    if task["kind"] == "sample":
        return task["n"] * task["trials"]
    argv = task["argv"]
    n = int(argv[argv.index("-n") + 1]) if "-n" in argv else 0
    if argv[0] in ("generate", "analyze"):
        return n
    if argv[0] == "sample":
        return n * int(argv[argv.index("--trials") + 1])
    return 0


def run_traced(workload, seed, refs, workdir):
    import workloads
    from tracer import Tracer
    tasks = workloads.deck(workload, seed)
    rules = setup(workload)
    tracer, run = Tracer(), Run(tasks)
    ratios, requested, subcommand = [], 0, {}

    def execute(task, tracer):
        if task["kind"] == "cli":
            return execute_cli_inprocess(task, refs, workdir, tracer)
        return execute_inprocess(task, rules, refs, tracer)

    for i, task in enumerate(tasks):
        tracer.task_id = i
        if task["kind"] == "cli":
            subcommand[i] = task["argv"][0]
        # alternate which of the pair runs first
        if i % 2:
            traced = execute(task, tracer)
            plain = execute(task, None)
        else:
            plain = execute(task, None)
            traced = execute(task, tracer)
        run.record(i, *traced)
        run.record(i, *plain)
        ratios.append(traced[0] / plain[0])
        requested += requested_steps(task)

    counts = {name: tracer.counts[name] for name in COUNTS}
    counts.update({f"{name}.calls": tracer.calls(name) for name in CALLS})
    tracer.task_id = "baseline"
    baseline = baseline_rows(workload, tracer)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))

    metrics = dict.fromkeys(per_layer_units(), 0)
    task_spans = [(name, task, s) for name, task, s in tracer.self_times()
                  if task != "baseline"]
    for name, task, self_s in task_spans:
        if f"{name}.s" in metrics:
            metrics[f"{name}.s"] += self_s
        if name.startswith("cli."):
            metrics[f"cli.{subcommand[task]}.s"] += self_s
    metrics.update(counts)
    metrics["generate.steps_useful_ratio"] = (
        requested / counts["generate.steps"] if counts["generate.steps"] else 0)
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    metrics.update({f"baseline.{row}.s": s for row, s in baseline.items()})
    if workload == "cli_session":
        metrics["cli.process_start_s"], metrics["cli.import_s"] = process_costs()
    log(f"{workload} traced: {len(tasks)} tasks, each run traced and untraced;"
        f" {len(tracer.spans)} spans; trace overhead"
        f" {metrics['trace.overhead_frac']:+.2%} (median traced/untraced)")
    return run, metrics


def baseline_rows(workload, tracer, repeats=3):
    """ROADMAP's hand-timed baseline rows, each the median of `repeats`
    traced calls of the public function."""
    import brickwall as bw
    calls = {}
    if workload == "geo_pipeline":
        rule = bw.builtin("sigma3")
        pattern = bw.iterate(rule, "B22", 8)
        calls = {
            "iterate_sigma3_n8": lambda: bw.iterate(rule, "B22", 8),
            "check_no_overlap_n8": lambda: bw.check_no_overlap(pattern.bricks),
            "vertical_joints_n8": lambda: bw.vertical_joints(pattern),
            "to_svg_n8": lambda: bw.to_svg(pattern, rule=rule),
            "format_pattern_n8": lambda: bw.format_pattern(pattern),
        }
    elif workload == "block_grid":
        rule = bw.builtin("ptm_skewed")
        calls = {"ptm_skewed_n9": lambda: bw.generate_pattern(rule, "0", 9)}
    elif workload == "mc_sweep":
        rule, half = bw.builtin("random_pp"), Fraction(1, 2)
        calls = {
            "sample_vmax_n4x200": lambda: bw.sample_vmax(rule, "B22", 4, half,
                                                         trials=200),
            "sample_vmax_n5x50": lambda: bw.sample_vmax(rule, "B22", 5, half,
                                                        trials=50),
        }
    rows = {}
    with tracer:
        for row, call in calls.items():
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            rows[row] = statistics.median(times)
    return rows


def process_costs(repeats=5):
    """Median bare interpreter start, and median import time of the CLI
    module measured inside a fresh interpreter."""
    starts, imports = [], []
    code = ("import time; t = time.perf_counter(); import brickwall.cli;"
            " print(time.perf_counter() - t)")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             check=True, capture_output=True, text=True).stdout
        imports.append(float(out))
    return statistics.median(starts), statistics.median(imports)


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.py, or 'all' to run each in"
                         " its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (set-up probe)")
    ap.add_argument("--peak-only", action="store_true",
                    help="set up, run each input of the deck once, ungated,"
                         " and exit (peak memory probe)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "brickwall", "__init__.py")):
        print(f"error: no brickwall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace", str(args.trace)]
                                ).returncode for workload in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload)
        print("ready", flush=True)
        return 0
    if args.peak_only:
        run_inputs_once(args.workload, args.seed)
        return 0
    import brickwall
    if not os.path.abspath(brickwall.__file__).startswith(SRC + os.sep):
        print(f"error: brickwall imported from {brickwall.__file__}", file=sys.stderr)
        return 2

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    workloads.prepare_workdir(workdir)
    try:
        if args.trace:
            run, metrics = run_traced(args.workload, args.seed, refs, workdir)
            units = per_layer_units()
        else:
            run, metrics = run_untraced(args.workload, args.seed, args.seconds,
                                        refs, workdir)
            units = END_TO_END
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    for name, unit in units.items():
        log(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
