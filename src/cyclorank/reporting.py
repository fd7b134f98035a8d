"""Structured CSV/JSON serialization of reports and scan summaries.

Per-prime CSV rows use the fixed column order

    N,p,class_mod_p2,A,B,rank3,alpha,lower,upper

with empty cells for fields that do not apply (A, B, rank3 are p = 3 only).
Scan summaries serialize as a cumulative long-format checkpoint table; JSON
mirrors the field names of the report types.  Output is byte-deterministic
for a given report.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path
from typing import IO, Iterable, Union

from .rank import RankReport, rank_window
from .scan import ScanSummary
from .validation import ValidationReport

REPORT_HEADER = "N,p,class_mod_p2,A,B,rank3,alpha,lower,upper"

Emittable = Union[RankReport, Iterable[RankReport], ScanSummary, ValidationReport]


def _opt(x: object) -> str:
    return "" if x is None else str(x)


def report_row(r: RankReport) -> str:
    a = r.rep.A if r.rep else None
    b = r.rep.B if r.rep else None
    cells = (r.n, r.p, r.target_class.residue_mod_p2, a, b, r.exact_rank3,
             r.alpha, r.lower, r.upper)
    return ",".join(_opt(c) for c in cells)


def _report_csv(reports: Iterable[RankReport]) -> str:
    lines = [REPORT_HEADER]
    lines.extend(report_row(r) for r in reports)
    return "\n".join(lines) + "\n"


def _summary_csv(s: ScanSummary) -> str:
    if s.kind == "rank3":
        # Checkpoint rows aggregate the scanned classes; final per-class rows
        # follow at threshold = limit.
        lines = ["class,threshold,total,rank2,density"]
        for cp in s.checkpoints:
            lines.append(f"all,{cp.threshold},{cp.total},{cp.hits},{cp.density:.6f}")
        for c in s.classes:
            total = s.totals.get(c, 0)
            hits = (s.rank2 or {}).get(c, 0)
            dens = hits / total if total else 0.0
            lines.append(f"{c},{s.limit},{total},{hits},{dens:.6f}")
        return "\n".join(lines) + "\n"
    # Alpha summaries tabulate the final histogram with the implied rank window;
    # convergence checkpoints are available through the JSON form.
    lines = ["class,threshold,alpha,lower,upper,count"]
    for c in s.classes:
        for a, count in sorted((s.alpha_hist or {}).get(c, {}).items()):
            lo, hi = rank_window(s.p, a)
            lines.append(f"{c},{s.limit},{a},{lo},{hi},{count}")
    return "\n".join(lines) + "\n"


def _jsonable(obj: object) -> object:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {
            name: _jsonable(getattr(obj, name))
            for name in obj.__dataclass_fields__  # type: ignore[attr-defined]
        }
    return obj


def to_json(obj: object) -> str:
    payload = _jsonable(list(obj) if _is_report_iter(obj) else obj)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _is_report_iter(obj: object) -> bool:
    return not isinstance(obj, (RankReport, ScanSummary, ValidationReport)) and isinstance(
        obj, Iterable
    )


def render(obj: Emittable, fmt: str) -> str:
    if fmt == "json":
        return to_json(obj)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, ScanSummary):
        return _summary_csv(obj)
    if isinstance(obj, RankReport):
        return _report_csv([obj])
    if isinstance(obj, ValidationReport):
        raise ValueError("validation reports serialize as JSON only")
    return _report_csv(obj)


def emit(obj: Emittable, fmt: str = "csv", sink: Union[str, Path, IO[str]] = "-") -> int:
    """Serialize obj to sink ('-' means stdout); returns bytes written."""
    text = render(obj, fmt)
    data = text.encode("utf-8")
    if sink == "-":
        sys.stdout.write(text)
    elif isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sink.write(text)
    return len(data)
