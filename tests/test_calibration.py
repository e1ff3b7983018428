import functools
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcam_sim import calibration
from rcam_sim.bus import (ETA_RESOLUTION, OVERHEAD_RESOLUTION,
                          calibrated_bus, update_io_efficiency)
from rcam_sim.calibration import (DEFAULT_CALIBRATED_ETA,
                                  DEFAULT_CALIBRATED_OVERHEAD, DEFAULT_TARGETS,
                                  ETA_GRID, OVERHEAD_GRID, S1_ANCHOR,
                                  STREAM_ANCHOR, CalibrationResult, calibrate)
from rcam_sim.engines import timing
from rcam_sim.erase_store import EraseStore
from rcam_sim.geometry import geometry_for
from rcam_sim.rcu import RcamArray

from cam_helpers import count_bus_builds, refuse_schedules


@pytest.fixture(scope="module")
def default_fit():
    return calibrate()


def test_fit_lands_near_expected_knobs(default_fit):
    assert default_fit.stream_efficiency == pytest.approx(0.976, abs=0.01)
    assert default_fit.burst_overhead_cycles == pytest.approx(1.9, abs=0.1)
    # the shipped defaults are this fit
    assert default_fit.stream_efficiency == DEFAULT_CALIBRATED_ETA
    assert default_fit.burst_overhead_cycles == DEFAULT_CALIBRATED_OVERHEAD


def test_fit_reproduces_measured_efficiencies(default_fit):
    sims = default_fit.simulated
    assert sims["s1"] == pytest.approx(0.101, abs=0.015)
    assert sims["s2"] == pytest.approx(0.498, abs=0.015)
    assert sims["s3"] == pytest.approx(0.968, abs=0.015)
    assert 9.0 <= sims["s3"] / sims["s1"] <= 10.2


def test_residuals_are_reported_not_hidden(default_fit):
    assert set(default_fit.residuals) == {"s1", "s2", "s3"}
    assert default_fit.max_residual == max(default_fit.residuals.values())
    assert default_fit.max_residual > 0  # targets are not exactly attainable
    d = default_fit.to_dict()
    assert d["residuals"] == default_fit.residuals
    assert d["targets"] == {"s1": 0.101, "s2": 0.498, "s3": 0.968}


def _file_sha(fit):
    """SHA-256 of the file that `calibrate --out` writes for ``fit``."""
    text = json.dumps(fit.to_dict(), indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


DEFAULT_FIT_SHA = (
    "82e92698d4d2a5ae9910c1b3cc7b7c1a6cc66448239bc60d34fd7812c9672318")


def test_default_fit_is_pinned(default_fit):
    assert _file_sha(default_fit) == DEFAULT_FIT_SHA


def test_fit_runs_no_functional_pass(monkeypatch):
    # payload values never change timing, so the fit writes no table
    def refuse(*args, **kwargs):
        raise AssertionError("calibrate ran a functional pass")

    monkeypatch.setattr(RcamArray, "apply_full_table", refuse)
    monkeypatch.setattr(EraseStore, "store_words", refuse)
    monkeypatch.setattr(calibration, "generate_payload", refuse)
    assert _file_sha(calibrate()) == DEFAULT_FIT_SHA


def test_fit_builds_no_schedule(monkeypatch):
    # every total comes from the closed forms of engines.cycle_total
    refuse_schedules(monkeypatch, "timing")
    assert _file_sha(calibrate()) == DEFAULT_FIT_SHA


def test_the_fit_simulates_only_grid_points(monkeypatch):
    # one bus per grid point, simulating that point's integers, then the
    # fitted bus, whose knobs the result prints
    builds = count_bus_builds(monkeypatch)
    fit = calibrate()
    grid = ([(ETA_RESOLUTION, o) for o in OVERHEAD_GRID]
            + [(e, 0) for e in ETA_GRID])
    assert sorted((b.eta_units, b.overhead_units) for b in builds[:-1]) \
        == sorted(grid)
    assert (builds[-1].stream_efficiency, builds[-1].burst_overhead_cycles) \
        == (fit.stream_efficiency, fit.burst_overhead_cycles)


def test_the_grids_are_the_float_grids_they_replace():
    # every integer grid point prints as the double that stepping the
    # knob's (low, high, step) in floats, rounded to 10 places, gives, so
    # fits and calibration files keep their bytes
    def stepped(lo, step, count):
        return [round(lo + i * step, 10) for i in range(count)]

    assert [e / ETA_RESOLUTION for e in ETA_GRID] == stepped(0.90, 0.001, 101)
    assert [o / OVERHEAD_RESOLUTION for o in OVERHEAD_GRID] == stepped(
        0.0, 0.05, 81)


def test_perfect_targets_fit_ideal_knobs():
    result = calibrate({"s1": 1.0, "s2": 1.0, "s3": 1.0})
    assert result.stream_efficiency == 1.0
    assert result.burst_overhead_cycles == 0.0
    # ideal-bus ceilings: 12.5% / 50% / ~100%
    assert result.residuals["s1"] == pytest.approx(0.875)
    assert result.residuals["s2"] == pytest.approx(0.5)
    assert result.residuals["s3"] == pytest.approx(0.0005, abs=0.001)


def test_infeasible_targets_rejected():
    with pytest.raises(ValueError, match="must lie in"):
        calibrate({**DEFAULT_TARGETS, "s3": 1.2})
    with pytest.raises(ValueError, match="must lie in"):
        calibrate({**DEFAULT_TARGETS, "s2": 0.0})
    with pytest.raises(ValueError, match="exactly s1, s2 and s3"):
        calibrate({**DEFAULT_TARGETS, "s4": 0.5})
    with pytest.raises(ValueError, match="exactly s1, s2 and s3"):
        calibrate({})
    # a partial target set is rejected, not fitted to the named targets
    with pytest.raises(ValueError, match="exactly s1, s2 and s3"):
        calibrate({"s1": 0.101})


# -- the nested-loop grid search, kept as an oracle for the array fit -------

@functools.lru_cache(maxsize=None)
def _simulated_efficiency(arch: str, bus) -> float:
    # cached: the efficiencies do not depend on the targets
    depth, width = S1_ANCHOR if arch == "s1" else STREAM_ANCHOR
    geometry = geometry_for(arch, depth, width, bus.bus_width_b)
    return update_io_efficiency(geometry.table_bits,
                                timing(geometry, bus).total_cycles, bus)


def _loop_fit(targets: dict[str, float]) -> CalibrationResult:
    # through the float API: one bus per grid point, as a user would build it
    etas = [e / ETA_RESOLUTION for e in ETA_GRID]
    overheads = [o / OVERHEAD_RESOLUTION for o in OVERHEAD_GRID]
    s1_errs = {}
    for oh in overheads:
        sim = _simulated_efficiency("s1", calibrated_bus(1.0, oh))
        s1_errs[oh] = abs(sim - targets["s1"]) / targets["s1"]

    best = None
    for eta in etas:
        bus = calibrated_bus(eta, 0.0)
        stream_errs = [abs(_simulated_efficiency(a, bus) - targets[a])
                       / targets[a] for a in ("s2", "s3")]
        for oh in overheads:
            errs = stream_errs + [s1_errs[oh]]
            key = (max(errs), sum(errs))
            if best is None or key < best[0]:
                best = (key, eta, oh)

    _, eta, overhead = best
    bus = calibrated_bus(eta, overhead)
    simulated = {arch: _simulated_efficiency(arch, bus)
                 for arch in sorted(targets)}
    residuals = {arch: abs(simulated[arch] - targets[arch]) / targets[arch]
                 for arch in simulated}
    return CalibrationResult(
        stream_efficiency=eta, burst_overhead_cycles=overhead,
        simulated=simulated, targets={a: targets[a] for a in sorted(targets)},
        residuals=residuals, max_residual=max(residuals.values()))


def test_loop_oracle_gives_the_pinned_fit():
    assert _file_sha(_loop_fit(DEFAULT_TARGETS)) == DEFAULT_FIT_SHA


# Targets in (0, 1], mixed with values that force ties in the maximum error:
# at an s1 target of 1.0 or 1e-6, s1's error pins the maximum, so every eta
# ties and the error sum decides; the ideal-bus ceilings give exact zeros.
_TARGET = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([1.0, 0.5, 0.125, 0.101, 0.498, 0.968, 1e-6]))


# At targets near 1e-309 the error sums overflow to inf: Python floats do
# so silently, numpy with a RuntimeWarning, and both pick the same cell.
@pytest.mark.filterwarnings("ignore:overflow encountered in add")
@settings(max_examples=40, deadline=None)
@given(s1=_TARGET, s2=_TARGET, s3=_TARGET)
@example(s1=1.0, s2=1.0, s3=1.0)
@example(s1=1e-6, s2=0.498, s3=0.968)
@example(s1=0.101, s2=1.0, s3=1.0)
@example(s1=0.125, s2=0.5, s3=1.0)
@example(s1=5e-324, s2=5e-324, s3=0.5)
@example(s1=1e-309, s2=9.5e-309, s3=1.8e-308)
def test_array_fit_matches_the_loop_search(s1, s2, s3):
    targets = {"s1": s1, "s2": s2, "s3": s3}
    assert calibrate(targets).to_dict() == _loop_fit(targets).to_dict()
