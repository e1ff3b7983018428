"""The benchmark's tracer wraps library names; they must all still exist.

``perfbench/tracing.py`` lists in ``LAYERS`` every (owner, attribute) it
replaces by a timing wrapper, and looks each one up in ``owner.__dict__``.
A refactor that renames or drops one of them breaks the traced benchmark
run, so this suite checks the list against the library of this checkout.
The tracer is loaded from its file and only read.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = [(spec, attr) for _, sites, _, _ in tracing.LAYERS
         for spec, attr in sites]


@pytest.mark.parametrize("spec, attr", SITES,
                         ids=[f"{spec}.{attr}" for spec, attr in SITES])
def test_traced_name_resolves(spec, attr):
    owner = tracing._owner(spec)
    module = owner if inspect.ismodule(owner) else sys.modules[owner.__module__]
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src")
    assert callable(owner.__dict__[attr])
