import json
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cyclorank
from cyclorank.cli import cli_dispatch
from cyclorank.errors import TruthTableError
from cyclorank.primes import primes_in_class
from cyclorank.rank import bounds, rank3
from cyclorank.reporting import REPORT_HEADER, render, report_row
from cyclorank.scan import scan_rank3
from cyclorank.validation import ingest_truth, parse_truth_table

FIXTURE = Path(__file__).parent / "data" / "truth_p3.csv"


def test_report_rows_match_contract():
    assert report_row(bounds(61, 3)) == "61,3,7,1,3,2,0,1,2"
    assert report_row(bounds(11, 5)) == "11,5,11,,,,0,2,8"


def test_report_csv_shape():
    text = render([bounds(61, 3), bounds(11, 5)], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert lines[1:] == ["61,3,7,1,3,2,0,1,2", "11,5,11,,,,0,2,8"]
    assert render([], "csv") == REPORT_HEADER + "\n"


def test_csv_round_trip():
    reports = [bounds(n, 3) for n in primes_in_class(200, 3, {1})]
    text = render(reports, "csv")
    lines = text.strip().split("\n")[1:]
    for line, r in zip(lines, reports):
        n, p, cls, a, b, rk, alpha, lo, hi = line.split(",")
        assert (int(n), int(p), int(cls)) == (r.n, r.p, r.target_class.residue_mod_p2)
        assert (int(a), int(b)) == (r.rep.A, r.rep.B)
        assert int(rk) == r.exact_rank3
        assert (int(alpha), int(lo), int(hi)) == (r.alpha, r.lower, r.upper)


def test_json_mirrors_fields_and_is_deterministic():
    r = bounds(61, 3)
    text = render(r, "json")
    assert text == render(bounds(61, 3), "json")
    payload = json.loads(text)
    assert payload["n"] == 61 and payload["p"] == 3
    assert payload["exact_rank3"] == 2
    assert payload["rep"]["A"] == 1 and payload["rep"]["B"] == 3
    assert payload["target_class"]["residue_mod_p2"] == 7
    s = scan_rank3(1000, (4, 7), shards=2, workers=1)
    sp = json.loads(render(s, "json"))
    assert sp["kind"] == "rank3" and sp["limit"] == 1000
    assert sp["checkpoints"][-1]["total"] == s.total


def test_emit_writes_file(tmp_path):
    from cyclorank.reporting import emit

    out = tmp_path / "report.csv"
    nbytes = emit(bounds(61, 3), "csv", out)
    data = out.read_text()
    assert nbytes == len(data.encode())
    assert "61,3,7,1,3,2,0,1,2" in data


def test_ingest_fixture_is_clean():
    report = ingest_truth(FIXTURE)
    assert report.rank3_rows >= 50
    assert report.matches == report.rank3_rows == report.rows_checked
    assert report.ok


def test_ingest_flags_corrupted_row(tmp_path):
    lines = FIXTURE.read_text().strip().split("\n")
    lines.append("61,3,1")  # prediction is 2
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    report = ingest_truth(bad)
    assert len(report.mismatches) == 1
    m = report.mismatches[0]
    assert (m.n, m.observed, m.expected) == (61, 1, "2")
    assert m.line == len(lines)
    assert report.matches + len(report.mismatches) == report.rank3_rows


def test_ingest_parse_errors(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("N,p,rank\n7,3\n")
    with pytest.raises(TruthTableError, match="line 2"):
        ingest_truth(f)
    f.write_text("N,p,rank\n7,three,1\n")
    with pytest.raises(TruthTableError, match="line 2"):
        ingest_truth(f)
    f.write_text("7,3,1\n")
    with pytest.raises(TruthTableError, match="header"):
        ingest_truth(f)
    # every row has the header's field count: no column is read that the header does not name
    f.write_text("N,p,rank\n7,3,1\n61,3,2,7\n")
    with pytest.raises(TruthTableError, match="line 3: expected 3 fields"):
        ingest_truth(f)
    f.write_text("# provenance\nN,p,rank,rank_f\n11,5,2,1\n11,5,2\n")
    with pytest.raises(TruthTableError, match="line 4: expected 4 fields"):
        ingest_truth(f)


def test_ingest_skips_invalid_rows(tmp_path):
    f = tmp_path / "t.csv"
    big = 2**62 + 135  # prime, 1 (mod 3), outside the contract
    f.write_text(
        f"# provenance comment\nN,p,rank\n25,3,1\n11,3,1\n7,3,0\n7,3,1\n{big},3,1\n61,3,2\n"
    )
    report = ingest_truth(f)
    assert report.rows_checked == 2 and report.matches == 2
    assert [line for line, _ in report.skipped] == [3, 4, 5, 7]
    assert "2^62" in report.skipped[-1][1]


def test_ingest_bounds_rows(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("N,p,rank,rank_f\n11,5,2,1\n31,5,9,1\n41,5,2,2\n")
    report = ingest_truth(f)
    assert report.bounds_rows == 3
    # 31: observed 9 outside [2,8]; 41: observed 2 below 2*rank_f - 1 = 3
    assert len(report.bound_violations) == 2
    violated = {(m.n, m.observed) for m in report.bound_violations}
    assert violated == {(31, 9), (41, 2)}


def test_parse_truth_table_reads_optional_rank_f(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("N,p,rank,rank_f\n11,5,2,1\n")
    rows = parse_truth_table(f)
    assert rows[0].rank_f == 1 and rows[0].line == 2


def test_validation_soundness_self_consistency(tmp_path):
    lines = ["N,p,rank"]
    lines += [f"{n},3,{rank3(n)}" for n in primes_in_class(1200, 3, {1})]
    f = tmp_path / "self.csv"
    f.write_text("\n".join(lines) + "\n")
    report = ingest_truth(f)
    assert report.ok and report.matches == report.rows_checked > 0


def test_cli_rank3(capsys):
    assert cli_dispatch(["rank3", "61"]) == 0
    out = capsys.readouterr().out
    assert "rank3=2" in out and "A=1" in out and "B=3" in out


def test_cli_bounds(capsys):
    assert cli_dispatch(["bounds", "11", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "alpha=0 lower=2 upper=8" in out
    # with --format the report is the only output, so stdout parses as JSON or CSV
    assert cli_dispatch(["bounds", "61", "--p", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == render(bounds(61, 3), "json")
    assert cli_dispatch(["bounds", "11", "--p", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out == f"{REPORT_HEADER}\n11,5,11,,,,0,2,8\n"


def test_cli_classify(capsys):
    assert cli_dispatch(["classify", "19", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "pi unramified (splits)" in out and "zeta_3 is a norm" in out
    assert cli_dispatch(["classify", "7", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "pi ramified" in out and "not a norm" in out
    assert cli_dispatch(["classify", str(2**62 + 135), "--p", "3"]) == 1
    assert "2^62" in capsys.readouterr().err


def test_cli_scan_and_validate(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code = cli_dispatch(
        ["scan", "--p", "3", "--limit", "2000", "--classes", "4,7",
         "--shards", "2", "--workers", "1", "--format", "csv", "--out", str(out_file)]
    )
    assert code == 0
    assert out_file.read_text().startswith("class,threshold,total,rank2,density")
    assert cli_dispatch(["validate", "--table", str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert "mismatches=0" in out


def test_cli_exit_codes(capsys, tmp_path):
    assert cli_dispatch(["rank3", "23"]) == 1  # 23 = 2 (mod 3): domain error
    assert cli_dispatch(["bogus"]) == 1
    assert cli_dispatch(["rank3", "61", "--method", "nope"]) == 1
    assert cli_dispatch(["validate", "--table", "/definitely/not/there.csv"]) == 2
    big = str(2**62 + 135)  # prime, 1 (mod 3), beyond the 2^62 contract
    for argv in (["rep4n", big], ["rank3", big], ["bounds", big, "--p", "3"]):
        assert cli_dispatch(argv) == 1
    assert "2^62" in capsys.readouterr().err
    for shards in ("0", "-3"):
        argv = ["scan", "--limit", "1000", "--shards", shards, "--workers", "1"]
        assert cli_dispatch(argv) == 1
    assert "shard count" in capsys.readouterr().err
    argv = ["scan", "--p", "5", "--limit", "1000", "--classes", "2", "--workers", "1"]
    assert cli_dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--classes applies to p = 3 only" in err
    assert cli_dispatch(["bounds", "149", "--p", "37", "--clk", "1", "--mu"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "regularity guard" in err
    # --out without --format would drop the report silently: refused, and nothing written
    target = tmp_path / "b.json"
    assert cli_dispatch(["bounds", "61", "--p", "3", "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--format" in err and not target.exists()
    argv = ["scan", "--limit", "1000", "--shards", "1000000000000", "--workers", "1"]
    assert cli_dispatch(argv) == 0


def test_cli_internal_fault_exits_4(monkeypatch, capsys, tmp_path):
    # every p = 3 answer shares one agreement rule: disagreeing methods are an internal error
    table = tmp_path / "one.csv"
    table.write_text("N,p,rank\n61,3,2\n")
    monkeypatch.setattr(cyclorank.rank, "rank3_criterion", lambda rep: 3)
    for argv in (["rank3", "61", "--method", "all"], ["bounds", "61", "--p", "3"],
                 ["validate", "--table", str(table)]):
        assert cli_dispatch(argv) == 4
        out, err = capsys.readouterr()
        assert err.startswith("internal error: rank criteria disagree at N=61")
        assert err.count("\n") == 1 and "Traceback" not in err and out == ""


def _raise(exc):
    def command(args):
        raise exc
    return command


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (MemoryError(), 4, "internal error: MemoryError"),
        (MemoryError("Unable to allocate 8 GiB"), 4, "internal error: Unable to allocate 8 GiB"),
        (BrokenProcessPool("a worker died"), 4, "internal error: a worker died"),
        (KeyboardInterrupt(), 130, "interrupted"),
    ],
    ids=["memory", "memory-message", "broken-pool", "interrupt"],
)
def test_cli_resource_faults_exit_with_one_line(monkeypatch, capsys, exc, code, line):
    # in-process: the command itself is replaced, so no memory is exhausted and no pool starts
    monkeypatch.setitem(cyclorank.cli._COMMANDS, "rep4n", _raise(exc))
    assert cli_dispatch(["rep4n", "31"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"


def _opt(flag, values):
    """Zero or one `flag value` pair."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _cmd(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for part in ps for tok in part])


# Bounded so that no draw runs long or starts a process: every N and --limit is at
# most 10^5, and scans always get --workers 1.  Junk tokens exclude --help and
# --version, whose argparse exit is a SystemExit by design.
_N = st.one_of(
    st.integers(-10, 10**5), st.sampled_from([7, 11, 19, 31, 61, 211, 337, 1093, 99991])
).map(lambda n: [str(n)])
_P = _opt("--p", st.sampled_from(["2", "3", "4", "5", "7", "13", "37", "97", "-5", "x"]))
_FORMAT = _opt("--format", st.sampled_from(["csv", "json", "xml"]))
_STDOUT = _opt("--out", st.just("-"))
_JUNK = st.sampled_from(["", "x", "-", "--", "--bogus", "1e3", "0x10", "--p", "--limit", "--n"])
_ARGV = st.one_of(
    _cmd(st.just(["classify"]), _N, _P),
    _cmd(st.just(["rep4n"]), _N),
    _cmd(st.just(["rank3"]), _N,
         _opt("--method", st.sampled_from([*cyclorank.rank.RANK3_METHODS, "all", "nope"]))),
    _cmd(st.just(["invariants"]), _N, _P),
    _cmd(st.just(["bounds"]), _N, _P, _opt("--clk", st.sampled_from(["0", "1", "-1", "x"])),
         st.sampled_from([[], ["--mu"]]), _FORMAT, _STDOUT),
    _cmd(st.just(["scan", "--workers", "1"]), _P,
         _opt("--limit", st.integers(-10, 10**5).map(str)),
         _opt("--classes", st.sampled_from(["1,4,7", "4", "2,4", "4,x", ""])),
         _opt("--shards", st.sampled_from(["-1", "0", "1", "3", "x"])), _FORMAT, _STDOUT),
    _cmd(st.just(["validate"]),
         _opt("--table", st.sampled_from([str(FIXTURE), "/definitely/not/there.csv"]))),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_ARGV, junk=st.lists(_JUNK, max_size=2), at=st.integers(0, 12))
def test_cli_argv_grammar_never_raises(argv, junk, at):
    argv = argv[:at] + junk + argv[at:]
    code = cli_dispatch(argv)
    assert code in {0, 1, 2, 3, 4}, (argv, code)


# primes = 1 (mod 3) just above 10^10 and 10^18; the representation used to
# overflow from about 3 * 10^9
@pytest.mark.parametrize("n", [10_000_000_033, 1_000_000_000_000_000_003])
def test_cli_p3_commands_at_large_n(n, capsys):
    for argv in (["rep4n", str(n)], ["rank3", str(n)], ["bounds", str(n), "--p", "3"]):
        assert cli_dispatch(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    a, b = (int(v) for v in re.search(r"A=(-?\d+) B=(\d+)", out).groups())
    assert a * a + 27 * b * b == 4 * n and a % 3 == 1
    assert f"rank3={2 if b % 3 == 0 else 1}" in out  # n = 4, 7 (mod 9)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(cyclorank.__file__).parents[1]))
    code = "import sys; from cyclorank.cli import main; sys.argv[1:] = sys.argv[2:]; main()"
    return subprocess.run(
        [sys.executable, "-c", code, "cyclorank", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        # O(N) walks at N = 10^12 + 61 (prime, 1 mod 5): refused, not run out of memory
        ("invariants", "1000000000061", "--p", "5"),
        ("bounds", "1000000000061", "--p", "5", "--mu"),
        ("rank3", "10000000207", "--method", "all"),  # 1 (mod 9): factorial of (N-1)/3
        ("scan", "--limit", str(2**40), "--shards", "1", "--workers", "1"),
        ("invariants", "2063", "--p", "1031"),  # p^3 > 2^30: U_k work grows as p^2
    ],
)
def test_cli_refuses_o_n_work_above_the_cap(argv):
    done = _run_cli(*argv)
    assert done.returncode == 1
    assert "cap" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("classes", ["4,x", ""])
def test_cli_scan_rejects_malformed_classes(classes):
    done = _run_cli("scan", "--limit", "1000", "--classes", classes, "--workers", "1")
    assert done.returncode == 1
    assert "--classes" in done.stderr and "Traceback" not in done.stderr


def test_cli_validate_rejects_non_utf8_table(tmp_path):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"N,p,rank\n61,3,2\n# caf\xe9\n")
    done = _run_cli("validate", "--table", str(bad))
    assert done.returncode == 1
    assert "line 3" in done.stderr and "Traceback" not in done.stderr
    with pytest.raises(TruthTableError, match="line 3: not valid UTF-8"):
        parse_truth_table(bad)


def test_cli_validate_exit_code_on_failures(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("N,p,rank\n61,3,1\n")  # predicted rank is 2
    assert cli_dispatch(["validate", "--table", str(bad)]) == 3
    assert "mismatches=1" in capsys.readouterr().out
    bad.write_text("N,p,rank\n31,5,9\n")  # 9 lies outside [2, 8]
    assert cli_dispatch(["validate", "--table", str(bad)]) == 3
    assert "violations=1" in capsys.readouterr().out


def test_cli_invariants(capsys):
    assert cli_dispatch(["invariants", "11", "--p", "5"]) == 0
    out = capsys.readouterr().out
    assert "mu=1" in out and "alpha=0" in out
    assert cli_dispatch(["invariants", "149", "--p", "37"]) == 0  # irregular p
    out = capsys.readouterr().out
    assert "mu: n/a" in out and "U_35: value=" in out
