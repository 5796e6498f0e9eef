"""The package holds only what its commands run.

The compute path stays free of the polynomial group code, both in its
import graph and in the modules a fresh interpreter loads, boundary_columns
forms no general matrix product, and the slow references and the
filtration identities live in tests/reference.py, not in the package or
its exports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conghom
from conghom.congruence import GroupElement
from conghom.gf import DenseMatrix
from conghom.poly import CanonicalLabel, Poly, PolyMatrix

MOVED_OR_DELETED = ("TracelessMatrix", "bracket", "level", "rho", "commutator",
                    "reduce_at_zero", "polymat_adjugate", "membership", "class_vector",
                    "phi_check", "det", "_serialize", "serialize", "_trunc_mul", "trunc_mul",
                    "_trunc_inverse", "trunc_inverse", "_trunc_identity", "trunc_identity",
                    "_trunc_sub_identity", "trunc_sub_identity", "_flag_product")
METHODS_MOVED_OR_DELETED = ((GroupElement, "inverse"), (GroupElement, "conjugate_by"),
                            (PolyMatrix, "from_constant"), (PolyMatrix, "constant_term"),
                            (DenseMatrix, "add"), (DenseMatrix, "sub"), (DenseMatrix, "trace"),
                            (DenseMatrix, "is_zero"), (CanonicalLabel, "pivot_exponents"),
                            (Poly, "is_monic"), (GroupElement, "identity"), (GroupElement, "mul"),
                            (GroupElement, "__matmul__"), (Poly, "const"))


def _package_imports(module: str) -> set[str]:
    """Names of the conghom modules that src/conghom/<module>.py imports from."""
    tree = ast.parse((Path(conghom.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "conghom":
                continue
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                found.add(inner[0])
            else:  # from . import x, or from conghom import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "conghom" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_compute_path_imports_no_group_code():
    # the parser sees the imports that are there
    assert {"building", "gf"} <= _package_imports("homology")
    assert "poly" in _package_imports("congruence")
    for module in ("gf", "homology"):
        assert not _package_imports(module) & {"congruence", "poly"}, module
    for module in ("cli", "building"):
        assert "congruence" not in _package_imports(module), module


def test_exports_resolve_and_omit_test_references():
    for name in conghom.__all__:
        assert getattr(conghom, name) is not None, name
    modules = [importlib.import_module(f"conghom.{m.name}")
               for m in pkgutil.iter_modules(conghom.__path__) if m.name != "__main__"]
    for name in MOVED_OR_DELETED:
        assert name not in conghom.__all__
        for module in [conghom] + modules:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, name in METHODS_MOVED_OR_DELETED:
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_lazy_exports_bind_on_star_import_and_dir():
    namespace = {}
    exec("from conghom import *", namespace)
    assert set(conghom.__all__) <= set(namespace)
    assert set(conghom.__all__) <= set(dir(conghom))
    assert all(namespace[name] is getattr(conghom, name) for name in conghom.__all__)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(conghom, "no_such_export")


def _loaded_modules(run_python, statement: str) -> set[str]:
    """sys.modules of a fresh interpreter after running the statement."""
    proc = run_python("-c", f"import sys\n{statement}\nprint(*sys.modules)", check=True)
    return set(proc.stdout.split())


def test_startup_loads_only_what_compute_runs(run_python):
    bare = _loaded_modules(run_python, "pass")
    package = _loaded_modules(run_python, "import conghom") - bare
    assert "conghom" in package
    assert not {m for m in package if m.startswith("conghom.")}
    cli = _loaded_modules(run_python, "import conghom.cli") - bare
    assert {"conghom.cli", "conghom.building", "conghom.homology", "conghom.gf"} <= cli
    assert not cli & {"conghom.poly", "conghom.congruence", "conghom.oracle", "dataclasses",
                      "inspect"}


def test_boundary_columns_forms_no_general_product():
    # W comes from the identity shortcut or the flag-pair memo, never from
    # a DenseMatrix product on the hot path
    tree = ast.parse((Path(conghom.__file__).parent / "homology.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "boundary_columns")
    nodes = list(ast.walk(func))
    assert any(isinstance(node, ast.Call) for node in nodes)
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                   for node in nodes)
    assert not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "mul" for node in nodes)
