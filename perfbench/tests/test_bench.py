"""Self-tests of the benchmark: checks, spans and the metric lists.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import tracemalloc

import pytest

import tracing
import workloads
from worker import Runner

# Span self-times must add up to the op's wall time measured around the
# root span, up to the cost of opening and closing that span.
SELF_TIME_TOLERANCE_S = 1e-3


@pytest.fixture(scope="module")
def fingerprint():
    return workloads.load_fingerprint()


def test_wrong_fingerprint_fails_the_op(fingerprint, tmp_path):
    runner = Runner("verify_mixed", workloads.DEFAULT_SEED, tmp_path,
                    fingerprint)
    runner.run_once()
    assert (runner.attempted, runner.failed) == (1, 0)

    wrong = copy.deepcopy(fingerprint)
    wrong["workloads"]["verify_mixed"]["outputs"]["verify.stdout"] = "0" * 64
    runner = Runner("verify_mixed", workloads.DEFAULT_SEED, tmp_path, wrong)
    runner.run_once()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "verify.stdout hash differs" in runner.problems[0]


def test_wrong_statistics_fail_the_op_at_any_seed(fingerprint, tmp_path):
    wrong = copy.deepcopy(fingerprint)
    wrong["workloads"]["verify_mixed"]["stats"]["iterations_ok"] = 23
    runner = Runner("verify_mixed", 7, tmp_path, wrong)
    runner.run_once()
    assert runner.failed == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_op_matches_untraced_and_self_times_add_up(
        workload, fingerprint, tmp_path):
    runner = Runner(workload, workloads.DEFAULT_SEED, tmp_path, fingerprint)
    runner.run_once()
    untraced = runner.last

    recorder = tracing.SpanRecorder()
    originals = [_owner_attr(spec, attr) for _, sites, _, _ in tracing.LAYERS
                 for spec, attr in sites]
    with recorder.installed():
        wall, _ = runner.run_once(recorder, 0)
    assert [_owner_attr(spec, attr) for _, sites, _, _ in tracing.LAYERS
            for spec, attr in sites] == originals
    assert not tracemalloc.is_tracing()

    assert runner.failed == 0, runner.problems
    assert runner.last == untraced
    spans = recorder.spans
    assert all(s["op"] == 0 and "end" in s for s in spans)
    assert sum(s["self_s"] for s in spans) == pytest.approx(
        wall, abs=SELF_TIME_TOLERANCE_S)
    metrics = tracing.layer_metrics(spans)
    assert set(metrics) == set(tracing.LAYER_UNITS)


def test_traced_layers_attribute_the_work(fingerprint, tmp_path):
    runner = Runner("calibrate", workloads.DEFAULT_SEED, tmp_path, fingerprint)
    recorder = tracing.SpanRecorder()
    with recorder.installed():
        runner.run_once(recorder, 0)
    metrics = tracing.layer_metrics(recorder.spans)
    assert metrics["calibration.engine_updates"] == 286
    assert metrics["engines.update.calls"] == 286
    assert metrics["rcu.apply_full_table.calls"] == 2 * 286
    assert metrics["rcu.search_batch.keys"] == 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**tracing.LAYER_UNITS, "trace.overhead_pct": "%"}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_ms_p50", "op_cpu_ms_p50", "peak_rss_mb"]


def _owner_attr(spec, attr):
    return tracing._owner(spec).__dict__[attr]
