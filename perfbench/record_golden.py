"""Record ``golden.json``: each workload's output at its pinned seed.

Run from the root of a checkout, on the code whose outputs are the reference:

    python3 perfbench/record_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    golden = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name, seed in workloads.PINNED_SEEDS.items():
            workload = workloads.make(name, seed, workdir, golden=None)
            workload.setup()
            golden[name] = workload.snapshot(workload.call())
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
