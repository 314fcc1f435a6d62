"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(capsys, argv) -> dict:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "detail" in json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _modules():
    g, package = run.load_gobsec()
    return g, dict({layer: getattr(g, layer) for layer in LAYERS}, gobsec=package)


def test_workload_names_match():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metric_names_and_units(capsys, monkeypatch, workload):
    monkeypatch.setattr(workloads.CorpusPrni, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metric_names_and_units(capsys, monkeypatch):
    monkeypatch.setattr(workloads.Typing, "UNIT_SAMPLES", 5)
    monkeypatch.setattr(workloads.Typing, "UNIT_GOALS", 50)
    result = _result(capsys, ["--workload", "typing", "--seed", "3", "--seconds", "1", "--trace", "1"])
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["interp.evaluate_calls"]["value"] == 0


def test_seed_changes_inputs(monkeypatch):
    monkeypatch.setattr(workloads.FuzzEval, "BLOCK", 50)
    monkeypatch.setattr(workloads.Typing, "SAMPLES", 50)
    g, _ = run.load_gobsec()

    def inputs(cls, seed):
        w = cls(g, seed)
        if cls is workloads.CorpusPrni:
            return [next(w.seeds) for _ in range(5)]
        if cls is workloads.FuzzEval:
            return w.term_seeds
        return [repr(t) for t in w.samples], w.goals

    for cls in workloads.WORKLOADS.values():
        assert inputs(cls, 1) == inputs(cls, 1), cls.name
        assert inputs(cls, 1) != inputs(cls, 2), cls.name


def test_tracer_removes_its_wrappers():
    g, modules = _modules()
    originals = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    evaluate = g.interp.evaluate
    tracer = Tracer(modules)
    tracer.install()
    try:
        assert g.prni.evaluate is not evaluate and g.interp.evaluate is not evaluate
        assert g.cli.evaluate is g.prni.evaluate  # importers share the wrapper
        _, term, _ = g.interp.gen_welltyped(7)
        out = g.interp.evaluate(term, 10_000)
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    after = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    assert after == originals
    metrics, _ = tracer.metrics()
    assert metrics["interp.evaluate_calls"] >= 1
    assert metrics["interp.contractions"] >= out.steps


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail([float(i) for i in range(100)]) == (90, 89.0, 10)
    p, value, beyond = workloads.tail([float(i) for i in range(88)])
    assert (p, beyond) == (88, 10) and value == 77.0
    assert workloads.tail([float(i) for i in range(10_000)])[0] == 99
    assert workloads.tail([1.0, 2.0]) == (100, 2.0, 0)


def test_fuzz_check_rejects_a_wrong_step_count():
    g, _ = run.load_gobsec()
    w = workloads.FuzzEval.__new__(workloads.FuzzEval)
    w.g, w.term_seeds = g, [7]
    _, term, _ = g.interp.gen_welltyped(7)
    out = g.interp.evaluate(term, workloads.FuzzEval.FUEL)
    kind, steps, value = workloads.outcome_key(out)
    w.reference = {7: (kind, steps, value)}
    assert w._check(0, out)
    w.reference = {7: (kind, steps + 1, value)}
    assert not w._check(0, out)


def test_exit_status_is_1_when_an_output_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.FuzzEval, "_check", lambda self, k, outcome: False)
    assert run.main(["--workload", "fuzz-eval", "--seed", "3", "--seconds", "0.2", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_closed_program_counts_one_pair():
    g, _ = run.load_gobsec()
    w = workloads.CorpusPrni(g, 1)
    assert w.pairs_run["omega.gobsec"] == 1
    assert w.pairs_run["list_cons.gobsec"] == workloads.CorpusPrni.PAIRS
    assert "leak_high.gobsec" not in w.pairs_run  # insecure: not a secure verdict


def test_spans_are_divided_by_the_reference_times_around_them():
    host = workloads.HostSpeed()
    host.times, host.samples = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
    # Windows [0.4, 1.6] and [0.6, 3.5] hold the samples at 1 and at 1, 2, 3.
    assert host.in_ref([(0.9, 0.2), (1.1, 1.9)]) == [0.1, 1.9 / 4.0]
