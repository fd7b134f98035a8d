"""The public surface: every export resolves, no deleted name lingers, every
unexported function has a caller in the library or the benchmark, no caller
can pass a reference element the context already fixes, no result type takes
a value it can derive from its other inputs, and no result guard is a bare
assert that `python -O` would strip."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import cyclorank
from cyclorank.eisenstein import (
    EisensteinInt, GerthMatrix, SplitData, gerth_matrix, star_condition,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cyclorank"

# Removed because nothing called them or because another function computes the same value.
DELETED = (
    "eis_norm", "mod_pow", "is_9th_power", "_wilson_jacobi_holds", "_WILSON_ASSERT_BOUND",
    "m_class", "m_i_class", "rank3_methods", "odd_twist_count", "bounds_histogram",
    "find_order_p_element", "CYCLORANK_THREADS", "AlphaCount.of", "ModulusContext.trusted",
    "_alpha_outcome", "root_of_unity", "root_powers", "alpha_flags", "_rank3_outcome",
    "_rank3_outcomes", "cornacchia_4n", "_base_primes", "_is_report_iter", "unit_product",
    "Tally", "cornacchia_arrays", "represent_4n_arrays", "hilbert_pi_unit_criterion",
    "times_zeta", "reduce_mod", "_star_candidates", "_report_csv",
)


def test_star_import_resolves_every_export():
    ns: dict = {}
    exec("from cyclorank import *", ns)
    assert set(cyclorank.__all__) <= set(ns)
    assert len(cyclorank.__all__) == len(set(cyclorank.__all__)) == 38
    # the brute-force oracle is off the surface, but the benchmark reads it from its module
    assert "represent_4n_bruteforce" not in cyclorank.__all__
    assert callable(cyclorank.eisenstein.represent_4n_bruteforce)


def test_deleted_names_are_gone():
    pattern = re.compile(r"\b(" + "|".join(DELETED) + r")\b")
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), ROOT / "README.md"]
    hits = [
        f"{path.name}:{no}"
        for path in files if path.resolve() != Path(__file__).resolve()
        for no, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)
    ]
    assert hits == []
    for attr in ("conjugate", "__add__", "__sub__", "__mul__", "associates", "times_zeta",
                 "reduce_mod", "__neg__"):
        assert not hasattr(EisensteinInt, attr)
    # the matrix is its three entries and their rank: its width is len(entries)
    assert tuple(GerthMatrix.__dataclass_fields__) == ("entries", "rank")


def test_every_unexported_function_has_a_caller():
    # a public module-level function off __all__ is library plumbing, so some code in
    # src/ or perfbench/ must name it; one that only the tests call is a second path to
    # delete.  Names and attributes count, docstrings and comments do not.
    named = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in cyclorank.__all__ and node.name not in named
    ]
    assert uncalled == []


def _package_functions():
    for info in pkgutil.iter_modules(cyclorank.__path__):
        mod = importlib.import_module(f"cyclorank.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    # plain, class and static methods, properties and cached properties
                    inner = (getattr(member, a, None) for a in ("__func__", "fget", "func"))
                    for fn in (member, *inner):
                        if inspect.isfunction(fn):
                            yield f"{info.name}.{name}.{attr}", fn


def test_reference_element_is_no_argument():
    # ModulusContext.root is the one reference element: only the oracle takes an f
    # of its own, and InvariantRecord's field f reports the root it was built with
    takes_f = sorted(
        name for name, fn in _package_functions() if "f" in inspect.signature(fn).parameters
    )
    assert takes_f == ["invariants.InvariantRecord.__init__", "invariants.m_class_direct"]
    for fn in (gerth_matrix, star_condition):
        params = list(inspect.signature(fn, eval_str=True).parameters.values())
        assert [p.annotation for p in params] == [SplitData], fn.__name__


def test_library_has_no_bare_asserts():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_result_types_take_only_their_inputs():
    # each record is made from what its caller computes and derives the rest, so a
    # changed input cannot leave a stale derived field behind
    takes = {cyclorank.RankReport: 7, SplitData: 2, cyclorank.InvariantRecord: 7,
             cyclorank.AlphaCount: 1, GerthMatrix: 1, cyclorank.ValidationReport: 5}
    assert {cls: len(inspect.signature(cls).parameters) for cls in takes} == takes
    r = cyclorank.bounds(61, 3)
    given = dict(n=61, p=3, rep=r.rep, exact_rank3=2, alpha=0, coarse_upper=2)
    assert cyclorank.RankReport(**given) == r
    with pytest.raises(TypeError):
        cyclorank.RankReport(**given, methods_agreed=True)
    # the alpha-refined window follows alpha, where a given window would stay (2, 8)
    r = dataclasses.replace(cyclorank.bounds(11, 5), alpha=1)
    assert (r.lower, r.upper) == (3, 12)
    assert cyclorank.AlphaCount(power_flags={2: True, 4: False}).alpha == 1
    assert GerthMatrix((0, 0, 2)).rank == 1 and GerthMatrix((0, 0, 0)).rank == 0
    rows = [cyclorank.TruthRow(61, 3, 1), cyclorank.TruthRow(7, 3, 1), cyclorank.TruthRow(11, 5, 2)]
    report = cyclorank.validation.validate_rows(rows)
    assert (report.rows_checked, report.matches, report.bounds_rows) == (3, 1, 1)
