"""Golden width-sweep reports.

The benchmark fingerprint pins the flagship run, not the sweep.  These
hashes pin the whole JSON and CSV sweep report (16 verified keys per
geometry) on the ideal bus and on the calibrated bus with its shipped
knobs.  The reports are produced through the ``sweep`` subcommand, whose
interface does not depend on how the library builds the sweep.
"""

import hashlib

import pytest

from rcam_sim.cli import main

GOLDEN = {
    ("ideal", "json"):
        "05778dfe8180d34ce8cee7483f41510038376a043fc31ebdee5aee3fba6b784d",
    ("ideal", "csv"):
        "35add913fc376a10ab59b4bb0cb15143e8d7113892d635671637911d6c6c8e19",
    ("calibrated", "json"):
        "bc5a6c202c04d1d58a994849204c6868544fd4c3d435f5d374acfa70a0066a77",
    ("calibrated", "csv"):
        "35e4de88dc27c356e8fed81f6cecbd88e561fc5e85fa5cefeb96499af12dcd12",
}


@pytest.mark.parametrize("bus, fmt", sorted(GOLDEN))
def test_sweep_report_is_pinned(tmp_path, capsys, bus, fmt):
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", "--bus", bus, "--keys", "16", "--format", fmt,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(bus, fmt)]
