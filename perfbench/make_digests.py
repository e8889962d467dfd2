#!/usr/bin/env python3
"""Regenerate ``perfbench/digests.json``: the reference engine's statistics
digests for every workload at the default seed, so runs at that seed
skip the reference computation.

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    digests = {
        name: workload.with_seed(workloads.DEFAULT_SEED).reference_digests()
        for name, workload in workloads.WORKLOADS.items()
    }
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
