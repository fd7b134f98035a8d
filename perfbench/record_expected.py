"""Record the output digests the benchmark's correctness gate compares against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_expected.py

Scans: the SHA-256 of every rendered CSV and JSON.  Query workloads: for
seeds 0..SEEDS-1, the digest of the returned fields of the first CHECKED
queries.  Writes perfbench/expected.json.
"""

from __future__ import annotations

import json
import sys

from run import SRC, load_cyclorank

SEEDS = 32


def main() -> int:
    sys.path.insert(0, str(SRC))
    from bench_workloads import EXPECTED_PATH, WORKLOADS

    cr = load_cyclorank()
    out: dict[str, dict[str, str]] = {}
    for name in ("rank3_scan", "alpha_scan"):
        wl = WORKLOADS[name](cr, 0, {})
        wl.record(0, wl.op(0), None)
        out[name] = dict(sorted(wl.observed.items()))
    for name in ("point_queries", "invariants"):
        out[name] = {}
        for seed in range(SEEDS):
            wl = WORKLOADS[name](cr, seed, {})
            for i in range(wl.CHECKED):
                wl.record(i, wl.op(i), None)
            out[name][str(seed)] = wl.digest()
    EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
