"""The benchmark's hooks into the library must all still work.

``perfbench/tracing.py`` lists in ``LAYERS`` every (owner, attribute) it
replaces by a timing wrapper, and looks each one up in ``owner.__dict__``.
A refactor that renames or drops one of them breaks the traced benchmark
run, so this suite checks the list against the library of this checkout.
``perfbench/workloads.py`` builds its run configs through the library's
config validation; stricter validation must not reject them, or every
benchmark op fails.  One traced op of each workload must match the recorded
fingerprint and yield its layer metrics, as a ``--trace 1`` run needs: the
tracer's counter hooks read the wrapped calls' return values.  Both files
are loaded from disk and only read.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
SITES = [(spec, attr) for _, sites, _, _ in tracing.LAYERS
         for spec, attr in sites]


@pytest.mark.parametrize("spec, attr", SITES,
                         ids=[f"{spec}.{attr}" for spec, attr in SITES])
def test_traced_name_resolves(spec, attr):
    owner = tracing._owner(spec)
    module = owner if inspect.ismodule(owner) else sys.modules[owner.__module__]
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    assert callable(owner.__dict__[attr])


def test_workload_configs_build(tmp_path):
    flagship = workloads._flagship_config(1)
    assert flagship.seed == 1 and not flagship.record_events
    trace = workloads._flagship_config(
        1, verify_oracle=False, record_events=True,
        trace_path=str(tmp_path / "trace-{arch}.jsonl"))
    assert trace.record_events and not trace.verify_oracle
    assert trace.architectures == workloads.ARCHS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_traced_op_matches_the_fingerprint(name, tmp_path):
    seed = workloads.DEFAULT_SEED
    op = workloads.prepare(name, seed, tmp_path)
    recorder = tracing.SpanRecorder()
    with recorder.installed(), recorder.op(0):
        output = op()
    got = workloads.digest(name, output)
    assert workloads.check(name, seed, got, workloads.load_fingerprint()) == []
    metrics = tracing.layer_metrics(recorder.spans)
    assert metrics.keys() == tracing.LAYER_UNITS.keys()
