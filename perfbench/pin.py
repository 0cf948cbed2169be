"""Rewrite pinned.json from the program as it is now.

  python3 perfbench/pin.py

Run it only when a change of the program's numbers is intended and
explained; the benchmark's correctness gate compares against this file.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import checkout

if __name__ == "__main__":
    checkout.use_source_tree()
    import workloads

    pinned = {}
    checkout.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=checkout.WORK) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            pinned[name] = cls(workloads.GATE_SEED, Path(tmp)).gate()
    target = Path(__file__).resolve().parent / "pinned.json"
    target.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
