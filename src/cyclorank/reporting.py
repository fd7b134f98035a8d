"""Structured CSV/JSON serialization of one report or one scan summary.

The CSV of a per-prime report is one header and one row, in the fixed column
order

    N,p,class_mod_p2,A,B,rank3,alpha,lower,upper

with empty cells for fields that do not apply (A, B, rank3 are p = 3 only).
Scan summaries serialize as a cumulative long-format checkpoint table (rank-3)
or the final alpha histogram with its rank windows (alpha); both read the one
per-class histogram ScanSummary.hist and its hit predicate.  JSON mirrors the
field names of the report types, except that scan JSON has the fixed keys of
_SCAN_JSON_KEYS.  Output is byte-deterministic for a given report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Union

from .rank import RankReport, rank_window
from .scan import ScanSummary

REPORT_HEADER = "N,p,class_mod_p2,A,B,rank3,alpha,lower,upper"

Emittable = Union[RankReport, ScanSummary]


def _opt(x: object) -> str:
    return "" if x is None else str(x)


def report_row(r: RankReport) -> str:
    a = r.rep.A if r.rep else None
    b = r.rep.B if r.rep else None
    cells = (r.n, r.p, r.target_class.residue_mod_p2, a, b, r.exact_rank3,
             r.alpha, r.lower, r.upper)
    return ",".join(_opt(c) for c in cells)


def _summary_csv(s: ScanSummary) -> str:
    if s.kind == "rank3":
        # Checkpoint rows aggregate the scanned classes; final per-class rows
        # follow at threshold = limit.
        rows = [("all", cp) for cp in s.checkpoints] + [(c, s.tally((c,))) for c in s.classes]
        lines = ["class,threshold,total,rank2,density"]
        lines += [f"{c},{cp.threshold},{cp.total},{cp.hits},{cp.density:.6f}" for c, cp in rows]
        return "\n".join(lines) + "\n"
    # Alpha summaries tabulate the final histogram with the implied rank window;
    # convergence checkpoints are available through the JSON form.
    lines = ["class,threshold,alpha,lower,upper,count"]
    for c in s.classes:
        for a, count in sorted(s.hist[c].items()):
            lo, hi = rank_window(s.p, a)
            lines.append(f"{c},{s.limit},{a},{lo},{hi},{count}")
    return "\n".join(lines) + "\n"


# The published scan JSON layout: the derived per-kind views, not the fields.
_SCAN_JSON_KEYS = ("kind", "p", "limit", "class_modulus", "classes", "totals", "rank2",
                   "alpha_hist", "checkpoints")


def _jsonable(obj: object) -> object:
    if isinstance(obj, dict):
        # str keys, so that to_json's sort_keys orders them as text (10 before 9)
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, ScanSummary):
        return {name: _jsonable(getattr(obj, name)) for name in _SCAN_JSON_KEYS}
    if hasattr(obj, "__dataclass_fields__"):
        return {
            name: _jsonable(getattr(obj, name))
            for name in obj.__dataclass_fields__  # type: ignore[attr-defined]
        }
    return obj


def to_json(obj: object) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def render(obj: Emittable, fmt: str) -> str:
    if fmt == "json":
        return to_json(obj)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, ScanSummary):
        return _summary_csv(obj)
    return f"{REPORT_HEADER}\n{report_row(obj)}\n"


def emit(obj: Emittable, fmt: str = "csv", sink: str | Path = "-") -> int:
    """Serialize obj to the file sink ('-' means stdout); returns bytes written."""
    text = render(obj, fmt)
    if sink == "-":
        sys.stdout.write(text)
    else:
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return len(text.encode("utf-8"))
