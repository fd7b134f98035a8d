"""The public surface: every export resolves, no deleted name lingers, no
caller can pass a reference element the context already fixes, and no result
guard is a bare assert that `python -O` would strip."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import cyclorank
from cyclorank.eisenstein import EisensteinInt, SplitData, gerth_matrix, star_condition

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cyclorank"

# Removed because nothing called them or because another function computes the same value.
DELETED = (
    "eis_norm", "mod_pow", "is_9th_power", "_wilson_jacobi_holds", "_WILSON_ASSERT_BOUND",
    "m_class", "m_i_class", "rank3_methods", "odd_twist_count", "bounds_histogram",
    "find_order_p_element", "CYCLORANK_THREADS", "AlphaCount.of", "ModulusContext.trusted",
    "_alpha_outcome", "root_of_unity", "root_powers", "alpha_flags", "_rank3_outcome",
    "_rank3_outcomes", "cornacchia_4n", "_base_primes", "_is_report_iter", "unit_product",
    "Tally", "cornacchia_arrays",
)


def test_star_import_resolves_every_export():
    ns: dict = {}
    exec("from cyclorank import *", ns)
    assert set(cyclorank.__all__) <= set(ns)
    assert len(cyclorank.__all__) == len(set(cyclorank.__all__)) == 39
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
    for attr in ("conjugate", "__add__", "__sub__", "__mul__", "associates"):
        assert not hasattr(EisensteinInt, attr)


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
