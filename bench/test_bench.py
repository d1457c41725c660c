"""Checks of the benchmark itself, on the seconds-long `smoke` workload.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer, layer_bindings, layer_metrics, per_call_ms  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    """The package, the first smoke input, and the config."""
    mt, inputs, config = setup(WORKLOADS["smoke"], seed=0)
    return mt, inputs[0], config


def traced_step(mt, cloud, config):
    tracer = Tracer()
    with tracer.attached(layer_bindings(mt)):
        step = run.run_step(mt, cloud, config, tracer=tracer)
    return step, tracer


def test_self_plus_child_time_is_span_duration(smoke):
    _step, tracer = traced_step(*smoke)
    children = [[] for _ in tracer.spans]
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent].append(span)
    names = {span.name for span in tracer.spans}
    assert {"pipeline.run_test", "whitney_sections.minimize_section",
            "asdf_bundle.solve_base_point.mesh", "asdf_bundle.solve_base_point.loss",
            "whitney_sections.mfin_distance"} <= names
    for span, self_s, kids in zip(tracer.spans, tracer.self_times(), children):
        assert self_s >= 0.0
        assert self_s + sum(k.duration for k in kids) == pytest.approx(span.duration,
                                                                     abs=1e-9)


def test_wrappers_are_gone_after_a_traced_run(smoke):
    mt = smoke[0]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _name, _obs in layer_bindings(mt)]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.attached(layer_bindings(mt)):
            assert all(getattr(m, a) is not f for m, a, f in originals)
            raise RuntimeError("leave the traced block by an error")
    traced_step(*smoke)
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_traced_run_matches_untraced_and_counts_repeat(smoke):
    untraced = run.run_step(*smoke)
    (first, t1), (second, t2) = traced_step(*smoke), traced_step(*smoke)
    assert run.outcome(first) == run.outcome(untraced) == run.outcome(second)
    m1, m2 = layer_metrics(t1), layer_metrics(t2)
    counts = [k for k in m1 if run.unit_of(k) == "count"]
    assert counts and {k: m1[k] for k in counts} == {k: m2[k] for k in counts}


def test_tail_is_highest_percentile_with_ten_calls_beyond():
    row = per_call_ms([i / 1e3 for i in range(1, 1001)])
    assert (row["tail_pct"], row["tail_ms"]) == (99.0, pytest.approx(990.0))
    assert per_call_ms([0.001] * 15)["tail_pct"] == 50.0


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    proc = run_bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "0",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sphere-d2", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    workload = WORKLOADS["smoke"]
    _mt, first, _config = setup(workload, seed=4)
    _mt, again, _config = setup(workload, seed=4)
    _mt, other, _config = setup(workload, seed=5)
    assert len(first) == workload.inputs
    for a, b, c in zip(first, again, other):
        assert (a.points == b.points).all()
        assert not (a.points == c.points).all()
