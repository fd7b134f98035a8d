"""The public surface: every export resolves, no deleted name lingers, and
no result guard is a bare assert that `python -O` would strip."""

import ast
import re
from pathlib import Path

import cyclorank
from cyclorank.eisenstein import EisensteinInt

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cyclorank"

# Removed because nothing called them or because another function computes the same value.
DELETED = (
    "eis_norm", "mod_pow", "is_9th_power", "_wilson_jacobi_holds", "_WILSON_ASSERT_BOUND",
    "m_class", "m_i_class", "rank3_methods", "odd_twist_count", "bounds_histogram",
)


def test_star_import_resolves_every_export():
    ns: dict = {}
    exec("from cyclorank import *", ns)
    assert set(cyclorank.__all__) <= set(ns)
    assert len(cyclorank.__all__) == len(set(cyclorank.__all__)) == 41


def test_deleted_names_are_gone():
    pattern = re.compile(r"\b(" + "|".join(DELETED) + r")\b")
    files = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), ROOT / "README.md"]
    hits = [
        f"{path.name}:{no}"
        for path in files if path.resolve() != Path(__file__).resolve()
        for no, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)
    ]
    assert hits == []
    for attr in ("conjugate", "__add__", "__sub__", "__mul__"):
        assert not hasattr(EisensteinInt, attr)


def test_library_has_no_bare_asserts():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
