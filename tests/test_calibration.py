import hashlib
import json

import pytest

from rcam_sim.calibration import (DEFAULT_CALIBRATED_ETA,
                                  DEFAULT_CALIBRATED_OVERHEAD, calibrate)


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


def test_default_fit_is_pinned(default_fit):
    # SHA-256 of the file that `calibrate --out` writes for the default fit.
    text = json.dumps(default_fit.to_dict(), indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "82e92698d4d2a5ae9910c1b3cc7b7c1a6cc66448239bc60d34fd7812c9672318")


def test_perfect_targets_fit_ideal_knobs():
    result = calibrate({"s1": 1.0, "s2": 1.0, "s3": 1.0})
    assert result.stream_efficiency == 1.0
    assert result.burst_overhead_cycles == 0.0
    # ideal-bus ceilings: 12.5% / 50% / ~100%
    assert result.residuals["s1"] == pytest.approx(0.875)
    assert result.residuals["s2"] == pytest.approx(0.5)
    assert result.residuals["s3"] == pytest.approx(0.0005, abs=0.001)


def test_single_target_matches_closed_form():
    # s1 alone: per-beat period = 2*(B/W) + overhead, so the best overhead is
    # the grid point nearest 1/eff - 8 = 1.901
    result = calibrate({"s1": 0.101})
    assert result.burst_overhead_cycles == pytest.approx(1.90)
    assert set(result.residuals) == {"s1"}
    assert result.residuals["s1"] < 0.001


def test_infeasible_targets_rejected():
    with pytest.raises(ValueError):
        calibrate({"s3": 1.2})
    with pytest.raises(ValueError):
        calibrate({"s2": 0.0})
    with pytest.raises(ValueError):
        calibrate({"s4": 0.5})
    with pytest.raises(ValueError):
        calibrate({})
