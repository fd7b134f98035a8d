"""README as a reference: its result tables are what the code returns, and
every cost it quotes sits in its one Costs table, on a row that names the
BENCH_<n>.json record and key the figure comes from."""

import json
import re

from cyclorank import render, scan_alpha, scan_rank3
from readme_tables import README, alpha_pairs, mismatches, rank3_pairs, tables

# a time figure: a number, then µs (micro sign or Greek mu), ms or s
TIME = re.compile(r"\d\s*(?:[µμ]s|ms|s)\b")


def _json(summary) -> dict:
    return json.loads(render(summary, "json"))


def test_rank3_checkpoints_to_10_7_match_the_scan():
    pairs = rank3_pairs(_json(scan_rank3(10**7)))
    assert mismatches(pairs, ["10^3", "10^4", "10^5", "10^6", "10^7"]) == []


def test_top_values_at_2_24_match_the_scans():
    pairs = alpha_pairs(_json(scan_alpha(11, 2**24))) + alpha_pairs(_json(scan_alpha(13, 2**24)))
    assert mismatches(pairs, ["p = 11, alpha = 4", "p = 13, alpha = 4", "p = 13, alpha = 5"]) == []


def _costs_table():
    return [t for t in tables() if t.header == ("cost", "figure", "source")]


def test_no_time_figure_outside_the_costs_table():
    rows = [no for t in _costs_table() for no in range(t.line, t.line + 2 + len(t.rows))]
    outside = [
        f"README.md:{no}: {line}" for no, line in enumerate(README.read_text().splitlines(), 1)
        if no not in rows and TIME.search(line)
    ]
    assert outside == []


def test_one_costs_table_whose_rows_name_their_record():
    text = README.read_text()
    assert re.findall(r"^## Costs$", text, re.M) == ["## Costs"]
    (costs,) = _costs_table()
    section = text.split("\n## Costs\n")[1].split("\n## ")[0]
    assert [t.header for t in tables(section)] == [costs.header]
    for cost, figure, source in costs.rows:
        record = re.fullmatch(r"`(BENCH_\d+\.json)` `(\w+)`", source)
        assert record, source
        path = README.parent / record[1]
        assert path.exists(), source
        assert record[2] in json.loads(path.read_text()), source
