"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gen
import hostclock
import run

COMMON = ("setup_s", "latency_p50_s", "latency_tail_s", "ops_per_s", "failed_frac",
          "peak_rss_mb")
COMMANDS = {"corpus-suite": ("suite_s",),
            "pointed-probes": ("serre_s", "character_s", "upsilon_s", "adjshift_s"),
            "validate-gate": ("nat_s", "validate_s")}


def bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        workload_col, name, _value, unit = line.split()[:4]
        assert workload_col == workload
        table[name] = unit
    return code, table, json.loads(lines[-1])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_generated_instances_validate(tmp_path, monkeypatch, n):
    monkeypatch.syspath_prepend(str(run.SRC))
    cli = run.import_modend()["cli"]
    path, answers = gen.emit(tmp_path, n, seed=11, ops=[["validate"]])
    report = json.loads(cli.run(["validate"], cli.load([path])).dumps())
    assert report["status"] == answers["validate"]["status"] == "ok"
    assert report["result"] == answers["validate"]["result"]


def test_generator_is_seeded():
    assert gen.instance(6, 5) == gen.instance(6, 5)
    assert gen.instance(6, 5) != gen.instance(6, 6)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(capsys, workload):
    code, table, result = bench(capsys, workload, trace=0)
    assert code == 0
    for name in COMMON + COMMANDS[workload]:
        assert table[name] == run.unit(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_trace_prints_every_layer_metric(capsys, workload):
    code, table, result = bench(capsys, workload, trace=1)
    assert code == 0
    assert set(table) == set(run.PER_LAYER)
    assert all(table[name] == run.unit(name) for name in table)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    # self times partition the traced op time
    assert metrics["trace.layer_sum_s"] == pytest.approx(metrics["trace.op_s"], rel=1e-9)
    assert metrics["endengine.systems_built"] >= 1
    assert 0 < metrics["blocks.cache_hit_frac"] < 1


def test_perturbed_f_symbol_counts_as_failed(capsys, monkeypatch):
    original = gen.instance

    def perturbed(n, seed):
        doc = original(n, seed)
        entry = doc["categories"][gen.names(n)["category"]]["f_symbols"][0]
        entry["value"] = str(2 * Fraction(entry["value"]))
        return doc

    monkeypatch.setattr(gen, "instance", perturbed)
    code, table, result = bench(capsys, "pointed-probes", trace=0)
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 5
    assert table["failed_frac"] == "ratio"


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 21)]) == (20.0, "max")
    assert run.tail([float(v) for v in range(1, 201)]) == (190.0, "p95")
    assert run.tail([float(v) for v in range(1, 10001)]) == (9990.0, "p99.9")


def test_host_clock_rescales_by_probe_speed_and_drops_handler_time():
    clock = hostclock.HostClock()
    ref = hostclock.REF_PROBE_S
    # three probes at twice the reference time: the host ran at half speed
    clock.starts = [1.0, 2.0, 3.0]
    clock.ends = [1.1, 2.1, 3.1]
    clock.probes = [2 * ref] * 3
    # 4 s of wall clock, 0.3 s of it in the handler
    assert clock.seconds(0.5, 4.5) == pytest.approx(3.7 / 2)
    assert clock.seconds(1.5, 1.9) == pytest.approx(0.2)
    assert hostclock.HostClock().seconds(0.0, 2.0) == 2.0


def test_host_clock_samples_while_installed():
    with hostclock.HostClock() as clock:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    count = len(clock.probes)
    assert count >= 3
    assert len(clock.starts) == len(clock.ends) == count
    time.sleep(0.1)
    assert len(clock.probes) == count


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "corpus-suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
