"""Record each workload's headline at the default seed into reference.json.

The output check compares default-seed runs against these values within
their standard errors.  Run from the root of a source checkout:

    PYTHONPATH=src python3 bench/record_reference.py

Record once, at a commit whose kernel is trusted; a later change that
consumes random numbers differently must pass the check, not re-record.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    recorded = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            prepared = workloads.Prepared(workload, workloads.DEFAULT_SEED, False, Path(tmp))
            result = prepared.run()
            recorded[name] = workloads.headline(prepared, result)
            print(name, "recorded", flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
