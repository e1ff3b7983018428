"""Record the behaviour fingerprint the benchmark checks every op against.

    python3 perfbench/record_fingerprint.py

Runs each workload's op once at the default seed and writes the output
hashes and simulated statistics to ``perfbench/fingerprint.json``.  A change
that only speeds up the simulator must leave that file as it is; re-record
it only when the simulated behaviour is meant to change, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from worker import import_library

HERE = Path(__file__).resolve().parent


def record() -> dict:
    import_library()
    seed = workloads.DEFAULT_SEED
    result = {"default_seed": seed, "workloads": {}}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for name in workloads.WORKLOADS:
            op = workloads.prepare(name, seed, Path(scratch))
            result["workloads"][name] = workloads.digest(name, op())
    return result


def main() -> int:
    fingerprint = record()
    workloads.FINGERPRINT_PATH.write_text(
        json.dumps(fingerprint, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"fingerprint written to {workloads.FINGERPRINT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
