#!/usr/bin/env python3
"""Smoke-scale self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at minimal input (--smoke),
untraced and traced, through perfbench/run.py. Each run must pass the
oracle and determinism gate with no failed operation and report every
metric BENCHMARK.json names for its mode, with the listed unit, as a finite
number. The traced runs must also keep the predictions that hold by
construction: no dropped trace event, no channel retry, and an idle control
plane on the workloads that run without checkpoints, health probes or
reconfiguration. Exits non-zero on the first problem.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATIC_WORKLOADS = ("ysb-agg", "nb8-join")
CONTROL_PLANE = (
    "cpu.replication_cycles_per_record", "checkpoint.rounds",
    "checkpoint.bytes_per_record", "elastic.handoff_share",
    "elastic.partitions_moved", "elastic.state_bytes_moved",
    "recovery.replay_ratio", "health.probes_sent",
    "health.probe_miss_ratio", "health.false_positives",
)


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "default", "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def check(workload, trace, defs, result):
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert list(metrics) == [d["name"] for d in defs], f"{where}: metric names"
    for d in defs:
        m = metrics[d["name"]]
        assert m["unit"] == d["unit"], f"{where}: unit of {d['name']}"
        v = m["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {d['name']} = {v}"
    if not trace:
        for d in defs:
            assert metrics[d["name"]]["value"] > 0, f"{where}: {d['name']} is not positive"
        return
    assert metrics["obs.trace_dropped"]["value"] == 0, f"{where}: trace dropped events"
    assert metrics["channel.retries"]["value"] == 0, f"{where}: channel retries"
    if workload in STATIC_WORKLOADS:
        for name in CONTROL_PLANE:
            assert metrics[name]["value"] == 0, f"{where}: {name} is not zero"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, defs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check(w["name"], trace, defs, run(w["name"], trace))
            print(f"ok {w['name']} trace={trace}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"FAIL {err}", file=sys.stderr)
        sys.exit(1)
