"""Ingestion of external class-group truth tables for cross-validation.

The table format is UTF-8 CSV with LF line endings, header `N,p,rank` or
`N,p,rank,rank_f`, integer fields only, every row with the header's field
count, and `#`-prefixed comment lines (used to record the provenance of the
data).  Every row is read through one
bounds(N, p) report, so a row gets the answer the CLI's bounds command gives.
For p = 3 rows the observed rank is compared against the report's exact rank
(its rank-3 methods must agree, or bounds raises); for p >= 5 rows it is
checked against the [lower, upper] window, and when rank_f is supplied the
regular-prime relation rank >= 2*rank_f + (p-7)/2 is checked as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from .errors import DomainError, TruthTableError
from .rank import bounds

_HEADERS = ("N,p,rank", "N,p,rank,rank_f")


@dataclass(frozen=True)
class TruthRow:
    """One externally computed rank record."""

    n: int
    p: int
    rank: int
    rank_f: int | None = None
    line: int = 0


@dataclass(frozen=True)
class Mismatch:
    n: int
    p: int
    line: int
    expected: str  # exact prediction, or a bound the observation violated
    observed: int


@dataclass
class ValidationReport:
    """Outcome of checking a truth table against the criteria and bounds."""

    rows_checked: int = 0
    rank3_rows: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    bound_violations: list[Mismatch] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def matches(self) -> int:
        """p = 3 rows whose exact rank is the observed one."""
        return self.rank3_rows - len(self.mismatches)

    @property
    def bounds_rows(self) -> int:
        """p >= 5 rows, checked against their window."""
        return self.rows_checked - self.rank3_rows

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.bound_violations


def parse_truth_table(path: Union[str, Path]) -> list[TruthRow]:
    """Parse rows; malformed content raises with the offending line number."""
    rows: list[TruthRow] = []
    width = 0  # the header's field count, once it is read
    with open(path, "rb") as fh:  # decoded per line, so a bad byte is reported with its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise TruthTableError(f"line {lineno}: not valid UTF-8") from None
            if not line or line.startswith("#"):
                continue
            if not width:
                if line not in _HEADERS:
                    raise TruthTableError(
                        f"line {lineno}: expected header one of {_HEADERS}, got {line!r}"
                    )
                width = line.count(",") + 1
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise TruthTableError(
                    f"line {lineno}: expected {width} fields as in the header, got {len(parts)}"
                )
            try:
                values = [int(s) for s in parts]
            except ValueError as exc:
                raise TruthTableError(f"line {lineno}: non-integer field ({exc})") from None
            rank_f = values[3] if len(values) == 4 else None
            rows.append(TruthRow(values[0], values[1], values[2], rank_f, line=lineno))
    if not width:
        raise TruthTableError("line 1: missing header")
    return rows


def validate_rows(rows: list[TruthRow]) -> ValidationReport:
    report = ValidationReport()
    for row in rows:
        try:  # the (N, p) contract is checked once, by the gate inside bounds
            rb = bounds(row.n, row.p)
        except DomainError as exc:
            report.skipped.append((row.line, str(exc)))
            continue
        if row.rank < 1:
            report.skipped.append((row.line, f"rank {row.rank} below the genus-theory floor"))
            continue
        report.rows_checked += 1
        if row.p == 3:
            report.rank3_rows += 1
            if rb.exact_rank3 != row.rank:
                report.mismatches.append(
                    Mismatch(row.n, row.p, row.line, str(rb.exact_rank3), row.rank)
                )
            continue
        if not rb.lower <= row.rank <= rb.upper:
            report.bound_violations.append(
                Mismatch(row.n, row.p, row.line, f"[{rb.lower},{rb.upper}]", row.rank)
            )
        if row.rank_f is not None:
            floor = 2 * row.rank_f + (row.p - 7) // 2
            if row.rank < floor:
                report.bound_violations.append(
                    Mismatch(row.n, row.p, row.line, f">={floor} (from rank_f)", row.rank)
                )
    return report


def ingest_truth(path: Union[str, Path]) -> ValidationReport:
    """Parse and validate a truth table file."""
    return validate_rows(parse_truth_table(path))
