"""Tests of the benchmark itself: workload generation, references, tracer.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import brickwall  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _cost_shape(task):
    """What sets a task's cost; the seed may change everything else."""
    if task["kind"] == "cli":
        return ("cli", task["argv"][0], task["argv"][2])
    if task["kind"] in ("sample", "random"):
        return (task["kind"], task["brick"], task["n"], task.get("p"))
    return (task["kind"], task["rule"], task["n"], task["fmt"])


def test_deck_is_a_pure_function_of_workload_and_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.deck(workload, 7) == workloads.deck(workload, 7)


def test_another_seed_gives_another_mix_of_equal_cost_shape():
    for workload in workloads.WORKLOADS:
        first, second = workloads.deck(workload, 1), workloads.deck(workload, 2)
        assert first != second
        if workload != "geo_pipeline":  # deterministic rules: order only
            assert sorted(map(workloads.task_key, first)) != \
                sorted(map(workloads.task_key, second))
        if workload != "cli_session":  # cli picks json/text per seed
            assert (Counter(map(_cost_shape, first))
                    == Counter(map(_cost_shape, second)))


def test_deck_sizes_fix_the_tail_percentile():
    for workload in workloads.WORKLOADS:
        n = len(workloads.deck(workload, 0)) * run.MIN_ROUNDS[workload]
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10, workload
    assert [run.tail_percentile(n) for n in (20, 40, 100, 200, 1000)] == \
        [50, 75, 90, 95, 99]


def test_every_input_a_seed_can_draw_has_a_reference():
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    for workload in workloads.WORKLOADS:
        recorded = {workloads.task_key(t) for t in workloads.all_inputs(workload)}
        assert recorded <= refs.keys()
        for seed in range(25):
            for task in workloads.deck(workload, seed):
                assert workloads.task_key(task) in recorded


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_trace_counts_analyze_n7(tmp_path):
    workloads.prepare_workdir(str(tmp_path))
    task = workloads.cli_task("analyze --rule sigma3 --seed-brick B22 -n 7")
    with Tracer() as tracer:
        code, stdout, _ = workloads.run_cli_inprocess(task, str(tmp_path))
    assert code == 0 and b"34077 bricks" in stdout
    assert tracer.counts["generate.steps"] == 35
    assert tracer.calls("joints.has_crossing") == 6
    assert tracer.calls("cli.main") == 1


def test_tracer_restores_the_program():
    originals = (brickwall.iterate, brickwall.generate.check_no_overlap,
                 brickwall.stats.iterate, brickwall.rng.SplitMix64.next_u64)
    tracer = Tracer()
    with tracer:
        assert brickwall.generate.check_no_overlap is not originals[1]
        brickwall.sample_vmax(brickwall.builtin("random_pp"), "B22", 2, "1/2",
                              trials=3)
    assert (brickwall.iterate, brickwall.generate.check_no_overlap,
            brickwall.stats.iterate, brickwall.rng.SplitMix64.next_u64) == originals
    # sample_vmax -> iterate -> check_no_overlap per level, inside the trace
    assert tracer.calls("generate.iterate") == 3
    assert tracer.calls("generate.check_no_overlap") == 6
    assert tracer.counts["stats.trials"] == 3
    assert tracer.counts["rng.draws"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    # (id, name, start, end, parent, task): a(0..10) > b(1..4) > c(2..3), d(5..9)
    tracer.spans = [(2, "c", 2, 3, 1, 0), (1, "b", 1, 4, 0, 0),
                    (3, "d", 5, 9, 0, 0), (0, "a", 0, 10, None, 0)]
    assert {n: s for n, _, s in tracer.self_times()} == \
        {"a": 3, "b": 2, "c": 1, "d": 4}


def test_gate_cli_fails_a_missing_output_file(tmp_path):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    workloads.prepare_workdir(str(tmp_path))
    task = workloads.cli_task(
        "generate --rule sigma3 --seed-brick B22 -n 6 --out wall.svg")
    reference = refs[workloads.task_key(task)]
    code, stdout, out_bytes = workloads.run_cli_inprocess(task, str(tmp_path))
    assert out_bytes is not None
    assert workloads.gate_cli(task, code, stdout, out_bytes, reference)[0]
    ok, reason, _ = workloads.gate_cli(task, code, stdout, None, reference)
    assert not ok and "wall.svg" in reason


def test_time_is_scaled_by_the_calibration_loops():
    assert run.at_reference_speed(0.2, run.CALIBRATION_S, run.CALIBRATION_S) \
        == 0.2
    # a host running at half speed doubles both the task and the loops
    assert run.at_reference_speed(0.4, 2 * run.CALIBRATION_S,
                                  2 * run.CALIBRATION_S) == 0.2
