#!/usr/bin/env python3
"""Record references.json: the expected output of every task any seed can
produce, computed by the program in ./src.

    python3 perfbench/record_references.py

Run it on the commit whose outputs are the contract (the outputs are
byte-identical across correct versions of the program).  Deck tasks are
expected to exit 0; the known `count -n 8` failure is not in any deck.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import brickwall as bw  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def cli_bricks(task):
    """Bricks of the walls a CLI command was asked for."""
    argv = task["argv"]
    if argv[0] not in ("generate", "analyze"):
        return 0
    rule = bw.builtin(argv[argv.index("--rule") + 1])
    return bw.count_bricks(rule, argv[argv.index("--seed-brick") + 1],
                           int(argv[argv.index("-n") + 1]))


def record(workload, workdir):
    rules = workloads.load_rules(workload)
    refs = {}
    for task in workloads.all_inputs(workload):
        key = workloads.task_key(task)
        if task["kind"] == "cli":
            with Tracer() as tracer:
                code, stdout, out_bytes = workloads.run_cli_inprocess(task, workdir)
            if code != 0:
                raise SystemExit(f"deck command failed: {key}")
            bricks = (tracer.counts["generate.bricks"] if task["argv"][0] == "sample"
                      else cli_bricks(task))
            refs[key] = {"exit": code, "stdout": workloads.digest(stdout),
                         "file": out_bytes and workloads.digest(out_bytes),
                         "bricks": bricks}
            continue
        with Tracer() as tracer:
            result = workloads.run_task(task, rules)
        doc = workloads.facts(task, result, rules)
        if "pattern" in result:
            problem = workloads.check_pattern(task, result["pattern"],
                                              rules[task["rule"]])
            if problem:
                raise SystemExit(f"{key}: {problem}")
        else:
            doc["bricks"] = tracer.counts["generate.bricks"]
        refs[key] = doc
    return refs


def main():
    workdir = os.path.join(HERE, "out", "record")
    workloads.prepare_workdir(workdir)
    refs = {}
    for workload in workloads.WORKLOADS:
        refs.update(record(workload, workdir))
        print(f"{workload}: {len(refs)} references so far", flush=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
