"""Regenerate reference.json, the rows every benchmark run checks once.

    python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change placements or
loads beyond their reported truncation bounds, and say so in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as tmp:
        reference = workloads.reference_outputs(Path(tmp))
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
