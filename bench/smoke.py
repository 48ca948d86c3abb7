"""Smoke test of the benchmark at tiny sizes.

Every metric that BENCHMARK.json names is printed with its unit, the output
checks run, and the exit code follows their verdict. The file name does not
match pytest's test-file pattern, so the repository's own test run leaves it
out; name it to run it:

    python3 -m pytest bench/smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_checks_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] > 0
    assert (proc.returncode == 0) == (result["correct"] and result["failed"] == 0)
    with open(os.path.join(HERE, "out", f"{workload}-seed3-trace{trace}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["env"]["nproc"] >= 1 and record["env"]["threads"]
    if workload == "toy-pipeline":
        # 150 utterances and 2 epochs train too little to meet C6 (about 15 %
        # target accuracy), so only the wiring is checked here.
        assert len(record["fingerprint"]) == 64
    else:
        assert result["correct"], proc.stdout + proc.stderr
    if trace:
        m = result["metrics"]
        assert m["trace.traced_wall_s"]["value"] > 0 and m["trace.untraced_wall_s"]["value"] > 0
        layer = {"toy-pipeline": "ctc.log_loss.calls", "align-long": "ctc.viterbi.calls",
                 "segment-text": "textseg.segment_word.unseen_calls"}[workload]
        assert m[layer]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, "segment-text", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["encoder.utterance_grads", 0.0, 10.0, -1, None],
        ["ctc.log_loss", 1.0, 4.0, 0, {"cells": 30}],
        ["ctc.log_loss", 5.0, 6.0, -1, {"cells": 10}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["encoder.utterance_grads.self_s"] == 7.0
    assert m["ctc.log_loss.s"] == 4.0
    assert m["ctc.log_loss.holdout_s"] == 1.0
    assert m["ctc.log_loss.calls"] == 2 and m["ctc.log_loss.cells"] == 40
    assert m["ctc.log_loss.ns_per_cell"] == 4.0 * 1e9 / 40
    assert m["ctc.viterbi.ns_per_cell"] == 0.0


def test_times_scale_to_reference_speed():
    # Kernel at twice its nominal time on both sides: the machine ran at
    # half speed, so a 3 s section counts as 1.5 s at reference speed.
    slow = 2 * calibrate.NOMINAL_S
    assert calibrate.at_reference_speed(3.0, slow, slow) == 1.5
    assert calibrate.at_reference_speed(3.0, calibrate.NOMINAL_S, calibrate.NOMINAL_S) == 3.0
    assert calibrate.reference() > 0
