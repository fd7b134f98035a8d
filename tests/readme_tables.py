"""README's tables, parsed, and the rows that a scan's JSON gives for them.

tests/test_readme.py compares the rows tier-1 can afford (the p = 3
checkpoints to 10^7, the top-values row at 2^24) and checks the Costs table's
sources; CI compares the 2^30 rows with the JSON of the scans whose bytes it
pins.  A scan is read as the dict that its JSON report parses to, so both
compare the same thing.

  * rank3_pairs(scan): README's p = 3 checkpoint rows at the scan's
    thresholds, and its per-class rows if the scan is the 2^30 one;
  * alpha_pairs(scan): the alpha table whose command is the scan's, its
    prime count included, and the scan's cells of the top-values row at its
    limit.

Each pair is (README's row, the row the scan gives), both tuples of cells
formatted as README prints them; mismatches lists what differs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from cyclorank.primes import DEFAULT_SIEVE_CAP

README = Path(__file__).resolve().parents[1] / "README.md"


@dataclass(frozen=True)
class Table:
    intro: str  # the last nonblank line above the table
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    line: int  # README line of the header, 1-based


def _cells(line: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in line.strip().strip("|").split("|"))


def tables(text: str | None = None) -> list[Table]:
    """Every pipe table of README (or of text), in order."""
    lines = (README.read_text() if text is None else text).splitlines()
    found, i = [], 0
    while i < len(lines):
        if lines[i].startswith("|") and i + 1 < len(lines) and lines[i + 1].startswith("|---"):
            start, intro = i, next((s for s in reversed(lines[:i]) if s.strip()), "")
            i += 2
            while i < len(lines) and lines[i].startswith("|"):
                i += 1
            found.append(Table(intro, _cells(lines[start]),
                               tuple(_cells(s) for s in lines[start + 2 : i]), start + 1))
        else:
            i += 1
    return found


def _label(n: int) -> str:
    """10^k or 2^k, as README names a threshold or limit."""
    k = round(math.log10(n))
    return f"10^{k}" if 10**k == n else f"2^{n.bit_length() - 1}"


def _rank3_row(first: str, total: int, hits: int) -> tuple[str, ...]:
    # sigma = sqrt(2/(9n)), the binomial deviation of a density of 1/3 over n primes
    z = (3 * hits - total) / (3 * total) / math.sqrt(2 / (9 * total))
    return first, f"{total:,}", f"{hits:,}", f"{hits / total:.6f}", f"{z:+.2f}"


def rank3_pairs(scan: dict) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    given = {
        "threshold": {_label(c["threshold"]): (c["total"], c["hits"]) for c in scan["checkpoints"]},
        # the per-class table is the scan to the cap
        "N mod 9": ({c: (n, scan["rank2"][c]) for c, n in scan["totals"].items()}
                    if scan["limit"] == DEFAULT_SIEVE_CAP else {}),
    }
    return [
        (row, _rank3_row(row[0], *given[t.header[0]][row[0]]))
        for t in tables() if t.header[0] in given
        for row in t.rows if row[0] in given[t.header[0]]
    ]


def alpha_pairs(scan: dict) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    p, limit = scan["p"], scan["limit"]
    hist = Counter()  # alpha -> primes, over every class
    for h in scan["alpha_hist"].values():
        hist.update({int(a): count for a, count in h.items()})
    n, m = sum(hist.values()), (p - 3) // 2

    def expected(a: int) -> float:
        """Primes scanned times the Binomial((p-3)/2, 1/p) probability of a."""
        return n * math.comb(m, a) * (1 / p) ** a * (1 - 1 / p) ** (m - a)

    pairs = []
    for t in tables():
        command = re.search(r"--p (\d+) --limit (\d+)", t.intro)
        if command and (int(command[1]), int(command[2])) == (p, limit):
            pairs.append(((re.search(r"\(([\d,]+) primes\)", t.intro)[1],), (f"{n:,}",)))
            for row in t.rows:
                a = int(row[0])
                pairs.append((row, (row[0], f"{hist[a]:,}", f"{expected(a):,.1f}",
                                    f"{hist[a] / expected(a):.3f}" if hist[a] else "0")))
        if t.header[0] == "`--limit L`":
            for row in t.rows:
                if int(row[0].split()[0]) != limit:
                    continue
                for head, cell in zip(t.header[1:], row[1:]):
                    q, a = map(int, re.fullmatch(r"p = (\d+), alpha = (\d+)", head).groups())
                    if q == p:
                        pairs.append(((head, cell), (head, f"{hist[a]:,} / {expected(a):,.1f}")))
    return pairs


def mismatches(pairs, firsts: list[str]) -> list[str]:
    """What differs: the rows compared, by first cell, against firsts, then each pair."""
    got = [readme[0] for readme, _ in pairs]
    found = [] if got == firsts else [f"README rows {got} compared, not {firsts}"]
    return found + [f"README has {readme}, the scan gives {scanned}"
                    for readme, scanned in pairs if readme != scanned]
