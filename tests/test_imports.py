"""The package holds only what its commands run.

Each command loads only the modules it runs, both in the import graph
and in a fresh interpreter: the compute path stays free of the
polynomial group code, and the oracle and survive paths free of the
construction of Z_R, its boundary and the matrix code.
boundary_columns forms no general matrix product, and the slow
references, the filtration identities and the polynomial group
elements live in tests/reference.py, not in the package or its exports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conghom
from conghom.gf import DenseMatrix
from conghom.poly import CanonicalLabel, Poly, PolyMatrix
from reference import GroupElement

MOVED_OR_DELETED = ("TracelessMatrix", "bracket", "level", "rho", "commutator",
                    "reduce_at_zero", "polymat_adjugate", "membership", "class_vector",
                    "phi_check", "det", "_serialize", "serialize", "_trunc_mul", "trunc_mul",
                    "_trunc_inverse", "trunc_inverse", "_trunc_identity", "trunc_identity",
                    "_trunc_sub_identity", "trunc_sub_identity", "_flag_product",
                    "GroupElement", "elementary", "_trunc_from_group_element",
                    "trunc_from_group_element")
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
    assert {"building", "gf", "wedge"} <= _package_imports("homology")
    assert {"poly", "wedge", "field"} <= _package_imports("oracle")
    # the group elements are test references now
    assert not (Path(conghom.__file__).parent / "congruence.py").exists()
    for module in ("gf", "homology"):
        assert not _package_imports(module) & {"oracle", "poly"}, module
    # the oracle path holds no Z_R, boundary or matrix code
    for module in ("oracle", "poly", "wedge", "field"):
        assert not _package_imports(module) & {"building", "homology", "gf"}, module
    assert not _package_imports("wedge") | _package_imports("field")


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
    """sys.modules of a fresh interpreter after running the statement.

    The names go to stderr, so a command run by the statement may print.
    """
    proc = run_python("-c", f"import sys\n{statement}\nprint(*sys.modules, file=sys.stderr)",
                      check=True)
    return set(proc.stderr.split())


def _command_modules(run_python, *argv: str) -> set[str]:
    """The conghom modules that a fresh interpreter loads to run one command."""
    loaded = _loaded_modules(run_python, f"from conghom.cli import main\nmain({list(argv)!r})")
    return {m for m in loaded if m.split(".")[0] == "conghom"}


def test_startup_loads_only_what_compute_runs(run_python):
    bare = _loaded_modules(run_python, "pass")
    package = _loaded_modules(run_python, "import conghom") - bare
    assert "conghom" in package
    assert not {m for m in package if m.startswith("conghom.")}
    cli = _loaded_modules(run_python, "import conghom.cli") - bare
    assert {m for m in cli if m.startswith("conghom")} == {
        "conghom", "conghom.cli", "conghom.field", "conghom.errors"}
    assert not cli & {"json", "dataclasses", "inspect"}

    size = ("--n", "3", "--q", "2", "--radius", "1")
    oracle = _command_modules(run_python, "oracle", *size)
    assert {"conghom.oracle", "conghom.poly", "conghom.wedge"} <= oracle
    assert not oracle & {"conghom.building", "conghom.homology", "conghom.gf"}
    compute = _command_modules(run_python, "compute", *size)
    assert {"conghom.building", "conghom.homology", "conghom.gf"} <= compute
    assert not compute & {"conghom.poly", "conghom.oracle", "conghom.congruence"}
    survive = _command_modules(run_python, "survive", "--n", "3", "--bounds", "1,1,3")
    assert survive == {"conghom", "conghom.cli", "conghom.wedge", "conghom.field",
                       "conghom.errors"}


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
