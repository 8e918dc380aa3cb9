"""Workload definitions: task lists, task execution and the output gate.

A task is a plain dict of the inputs the program receives (rule, seed
brick, depth, rng seed, p, output format, or a CLI argument list).  The
deck of a run is a pure function of (workload, seed): each workload has a
fixed table of task shapes, so every seed gives the same mix of costs, and
the seed picks every cost-neutral input (ptm seed letter, rng seeds and
Monte-Carlo base seeds from a fixed pool, p, CLI text or JSON output) and
the order of the tasks.  A choice is drawn for each copy of a table entry,
so the cost of the inputs a seed picks evens out over the copies.
geo_pipeline's rules are deterministic, so there the seed sets only the
order.  Every input a seed can pick has a reference output in
references.json, recorded from the seed commit of the program, so every
output is checked exactly.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import brickwall as bw

WORKLOADS = ("geo_pipeline", "block_grid", "mc_sweep", "cli_session")

# rng seeds and Monte-Carlo base seeds are drawn from this fixed pool, so
# every input a seed can produce has a recorded reference
_POOL_RNG = random.Random("perfbench-seed-pool")
SEED_POOL = tuple(_POOL_RNG.getrandbits(64) for _ in range(32))
P_VALUES = tuple(f"{k}/10" for k in range(11))
SAMPLE_TRIALS = {4: 16, 5: 4}      # trials per sample_vmax task, by depth

# the rule of the cli_session `validate` file: valid, loaded from disk
SWAP_RULE = """\
rule swap
engine geometric
expansion 2 2
brick A 1 1
brick B 2 1
image A { B @ 0 0 ; B @ 0 1 }
image B { A @ 0 0 ; A @ 1 0 ; A @ 2 0 ; A @ 3 0 ; A @ 0 1 ; A @ 1 1 ; A @ 2 1 ; A @ 3 1 }
end
"""

# (rule, seed brick, depth, format or an even number of copies).  A number
# splits the entry evenly between SVG and text, so every seed gives the
# same mix of costs; a brick of None lets the seed pick the ptm letter
# (letters 0 and 1 give complementary grids of equal cost).  One heavy
# entry per deck sets peak memory.  The copies are counted so that the
# median and the tail percentile fall inside a group of tasks of equal
# cost, not on the boundary between two groups: in BLOCK_DECK the median
# is a depth-7 ptm SVG and p75 a depth-7 ptm_skewed SVG.
GEO_DECK = (
    ("sigma3", "B22", 8, "txt"), ("rows23", "B21", 5, "txt"),
    ("sigma3", "B21", 7, 2), ("sigma3", "B11", 7, 2),
    ("sigma3", "B22", 6, 4), ("rows23", "B11", 5, 8),
    ("sigma3", "B21", 6, 8), ("sigma3", "B22", 5, 14),
)
BLOCK_DECK = (
    ("ptm", None, 9, "txt"), ("ptm", None, 8, "txt"),
    ("ptm_skewed", None, 8, 2),
    ("ptm", None, 7, 8), ("ptm_skewed", None, 7, 20),
)
RANDOM_DECK = (("B22", 6), ("B12", 6), ("B22", 5), ("B12", 5))

# (command, copies in deck): one brickwall process per copy; {name} fields
# are drawn from CLI_CHOICES.  Fourteen of the forty commands cost 0.23 s or
# more and the rest about 0.15 s, so the median and p90 fall inside groups
# of equal cost, not on a boundary between them.
CLI_DECK = (
    ("analyze --rule sigma3 --seed-brick B22 -n 5 {json}", 4),
    ("analyze --rule sigma3 --seed-brick B22 -n 6 {json}", 6),
    ("analyze --rule sigma3 --seed-brick B22 -n 7", 2),
    ("generate --rule sigma3 --seed-brick B22 -n 6 --out wall.svg", 6),
    ("generate --rule random_self_similar --seed-brick B22 -n 5"
     " --rng-seed {seed} --out wall.txt", 4),
    ("spectrum --rule {spectrum_rule}", 4),
    ("spectrum --rule random_pp -p {p}", 4),
    ("count --rule random_self_similar --seed-brick B22 -n {count_n}", 3),
    ("validate --rule swap.rule", 3),
    ("sample --rule random_pp --seed-brick B22 -n 4 -p {p} --trials 20"
     " --rng-seed {seed}", 4),
)
CLI_CHOICES = {
    "json": ("", "--json"),
    "seed": tuple(str(s) for s in SEED_POOL),
    "spectrum_rule": ("sigma3", "rows23", "ptm"),
    "p": P_VALUES[1:-1],
    "count_n": ("3", "4", "5", "6", "7"),
}

# untimed tasks run once during set-up
WARMUP = {
    "geo_pipeline": [
        {"kind": "geo", "rule": "sigma3", "brick": "B22", "n": 5, "fmt": "svg"},
        {"kind": "geo", "rule": "rows23", "brick": "B11", "n": 5, "fmt": "txt"}],
    "block_grid": [
        {"kind": "block", "rule": "ptm", "brick": "0", "n": 7, "fmt": "svg"},
        {"kind": "block", "rule": "ptm_skewed", "brick": "1", "n": 7,
         "fmt": "txt"}],
    "mc_sweep": [
        {"kind": "sample", "rule": "random_pp", "brick": "B22", "n": 4,
         "p": "1/2", "trials": 16, "seed": 0},
        {"kind": "random", "rule": "random_self_similar", "brick": "B22",
         "n": 5, "seed": 0}],
    "cli_session": [],
}

RULES = {
    "geo_pipeline": ("sigma3", "rows23"),
    "block_grid": ("ptm", "ptm_skewed"),
    "mc_sweep": ("random_pp", "random_self_similar"),
    "cli_session": ("sigma3", "rows23", "ptm", "random_pp",
                    "random_self_similar"),
}


def _shape_tasks(table, kind, choose):
    """Tasks of a GEO_DECK or BLOCK_DECK table."""
    tasks = []
    for rule, brick, n, spec in table:
        for fmt in [spec] if isinstance(spec, str) else ["svg", "txt"] * (spec // 2):
            tasks.append({"kind": kind, "rule": rule,
                          "brick": brick if brick is not None else choose("01"),
                          "n": n, "fmt": fmt})
    return tasks


def _mc_tasks(choose, copies=(4, 3)):
    """A sweep of p for each depth and RANDOM_DECK, `copies` tasks per
    entry, each with its own seed."""
    tasks = []
    for n, trials in SAMPLE_TRIALS.items():
        for p in P_VALUES:
            tasks += [{"kind": "sample", "rule": "random_pp", "brick": "B22",
                       "n": n, "p": p, "trials": trials,
                       "seed": choose(SEED_POOL)} for _ in range(copies[0])]
    for brick, n in RANDOM_DECK:
        tasks += [{"kind": "random", "rule": "random_self_similar",
                   "brick": brick, "n": n, "seed": choose(SEED_POOL)}
                  for _ in range(copies[1])]
    return tasks


def cli_task(template, **fields):
    argv = template.format(**fields).split()
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {"kind": "cli", "argv": argv, "out": out}


def _cli_fields(template):
    return [name for name in CLI_CHOICES if "{" + name + "}" in template]


def _cli_tasks(choose):
    tasks = []
    for template, copies in CLI_DECK:
        for _ in range(copies):
            tasks.append(cli_task(template, **{name: choose(CLI_CHOICES[name])
                                               for name in _cli_fields(template)}))
    return tasks


def deck(workload, seed):
    """The task list of a run: a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "geo_pipeline":
        tasks = _shape_tasks(GEO_DECK, "geo", rng.choice)
    elif workload == "block_grid":
        tasks = _shape_tasks(BLOCK_DECK, "block", rng.choice)
    elif workload == "mc_sweep":
        tasks = _mc_tasks(rng.choice)
    elif workload == "cli_session":
        tasks = _cli_tasks(rng.choice)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(tasks)
    return tasks


def all_inputs(workload):
    """Every task any seed can produce for the workload."""
    tasks = []
    if workload in ("geo_pipeline", "block_grid"):
        table = GEO_DECK if workload == "geo_pipeline" else BLOCK_DECK
        kind = "geo" if workload == "geo_pipeline" else "block"
        for letter in "01":
            tasks += _shape_tasks(table, kind, lambda options: letter)
    elif workload == "mc_sweep":
        for seed in SEED_POOL:
            tasks += _mc_tasks(lambda options: seed, copies=(1, 1))
    else:
        for template, _ in CLI_DECK:
            names = _cli_fields(template)
            for values in itertools.product(*(CLI_CHOICES[n] for n in names)):
                tasks.append(cli_task(template, **dict(zip(names, values))))
    return list({task_key(task): task for task in tasks}.values())


def task_key(task) -> str:
    return json.dumps(task, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_rules(workload):
    return {name: bw.builtin(name) for name in RULES[workload]}


# ---------------------------------------------------------------------------
# execution: the timed part of a task.  Returns what the gate checks.

def run_task(task, rules):
    kind = task["kind"]
    if kind == "geo":
        rule = rules[task["rule"]]
        pattern = bw.iterate(rule, task["brick"], task["n"])
        report = bw.report_with_crossings(bw.vertical_joints(pattern), rule)
        text = (bw.to_svg(pattern, rule=rule) if task["fmt"] == "svg"
                else bw.format_pattern(pattern))
        return {"pattern": pattern, "text": text, "v_max": report.v_max,
                "joints": len(report.joints),
                "crossings": "".join("1" if c else "0"
                                     for c in report.crossings.values())}
    if kind == "block":
        rule = rules[task["rule"]]
        grid = bw.iterate_block(rule, task["brick"], task["n"])
        pattern = bw.render_grid(rule, grid)
        report = bw.vertical_joints(pattern)
        text = (bw.to_svg(pattern, rule=rule) if task["fmt"] == "svg"
                else bw.format_pattern(pattern))
        return {"pattern": pattern, "text": text, "v_max": report.v_max,
                "joints": len(report.joints)}
    if kind == "sample":
        stats = bw.sample_vmax(rules[task["rule"]], task["brick"], task["n"],
                               Fraction(task["p"]), trials=task["trials"],
                               base_seed=task["seed"])
        return {"samples": list(stats.samples)}
    if kind == "random":
        pattern = bw.iterate(rules[task["rule"]], task["brick"], task["n"],
                             rng_seed=task["seed"])
        report = bw.vertical_joints(pattern)
        return {"pattern": pattern, "v_max": report.v_max,
                "joints": len(report.joints)}
    raise ValueError(f"unknown task kind {kind!r}")


def run_cli_inprocess(task, workdir):
    """cli.main in this process, in `workdir`; returns exit code, stdout and
    the bytes of the output file."""
    from brickwall import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(task["argv"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), read_out(task, workdir)


def read_out(task, workdir):
    path = task["out"] and os.path.join(workdir, task["out"])
    if not path or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def prepare_workdir(workdir):
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "swap.rule"), "w", encoding="utf-8") as fh:
        fh.write(SWAP_RULE)


# ---------------------------------------------------------------------------
# gate: runs outside the timed region and returns (ok, reason, bricks)

def facts(task, result, rules):
    """The recorded facts of a task result, as stored in references.json."""
    if task["kind"] == "sample":
        return {"samples": digest(repr(result["samples"]))}
    doc = {"v_max": result["v_max"], "joints": result["joints"],
           "bricks": len(result["pattern"])}
    if "text" in result:
        doc["text"] = digest(result["text"])
    else:
        doc["text"] = digest(bw.format_pattern(result["pattern"]))
    if "crossings" in result:
        doc["crossings"] = result["crossings"]
    return doc


def check_pattern(task, pattern, rule):
    """Exact structural checks of a generated wall; None when it passes."""
    n = task["n"]
    expected = bw.count_bricks(rule, task["brick"], n)
    if len(pattern) != expected:
        return f"{len(pattern)} bricks, count_bricks says {expected}"
    if rule.engine == "block":
        # every letter is one grid cell and the seed is one cell
        cells = len(pattern)
        if cells != rule.expansion ** n:
            return f"{cells} cells, expected {rule.expansion ** n}"
    else:
        area = sum(b.width * b.height for b in pattern.bricks)
        seed_area = rule.get_type(task["brick"]).area
        if area != rule.expansion ** n * seed_area:
            return f"area {area}, expected {rule.expansion ** n * seed_area}"
    try:
        bw.check_no_overlap(pattern.bricks)
    except bw.OverlapError as e:
        return f"overlap: {e}"
    return None


def gate(task, result, rules, reference):
    """Check one in-process result against its reference and the exact
    structural invariants; returns (ok, reason, bricks checked)."""
    if reference is None:
        return False, "no reference for this input", 0
    got = facts(task, result, rules)
    result.pop("text", None)  # free the rendering before the sweep
    for name, value in got.items():
        if reference.get(name) != value:
            return False, f"{name}: {value!r} != {reference.get(name)!r}", 0
    if "pattern" in result:
        problem = check_pattern(task, result["pattern"], rules[task["rule"]])
        if problem:
            return False, problem, 0
    return True, "", reference["bricks"]


def gate_cli(task, code, stdout, out_bytes, reference):
    if reference is None:
        return False, "no reference for this input", 0
    if code != reference["exit"]:
        return False, f"exit {code}, expected {reference['exit']}", 0
    if digest(stdout) != reference["stdout"]:
        return False, "stdout differs from the reference", 0
    # a command without --out has no file, and its reference file is None
    got = None if out_bytes is None else digest(out_bytes)
    if got != reference["file"]:
        return False, f"output file {task['out']} differs from the reference", 0
    return True, "", reference["bricks"]
