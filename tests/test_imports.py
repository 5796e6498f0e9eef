"""The package holds only what its commands run.

Each command loads only the modules it runs, both in the import graph
and in a fresh interpreter: the compute path stays free of the
polynomial group code, and the oracle and survive paths free of the
construction of Z_R, its boundary and the matrix code.
boundary_columns forms no general matrix product, polynomials are
coefficient tuples with no class, and the slow references, the
filtration identities, the Poly route and the polynomial group
elements live in tests/reference.py, not in the package or its exports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conghom
from conghom.building import ComplexZ
from conghom.gf import SparseMatrix
from conghom.oracle import _Packing
from conghom.wedge import BoundProfile
from reference import DenseMatrix, GroupElement, Poly, PolyMatrix

MOVED_OR_DELETED = ("TracelessMatrix", "bracket", "level", "rho", "commutator",
                    "reduce_at_zero", "polymat_adjugate", "membership", "class_vector",
                    "phi_check", "det", "_serialize", "serialize", "_trunc_mul", "trunc_mul",
                    "_trunc_inverse", "trunc_inverse", "_trunc_identity", "trunc_identity",
                    "_trunc_sub_identity", "trunc_sub_identity", "_flag_product",
                    "GroupElement", "elementary", "_trunc_from_group_element",
                    "trunc_from_group_element", "_typecode", "_deserialize",
                    "DenseMatrix", "rref", "inverse", "edge_inclusion", "Poly", "PolyMatrix",
                    "CanonicalLabel", "polymat_det", "_check_same_field", "EdgeRep",
                    "gauss_jordan")
METHODS_MOVED_OR_DELETED = ((GroupElement, "inverse"), (GroupElement, "conjugate_by"),
                            (PolyMatrix, "from_constant"), (PolyMatrix, "constant_term"),
                            (DenseMatrix, "add"), (DenseMatrix, "sub"), (DenseMatrix, "trace"),
                            (DenseMatrix, "is_zero"), (Poly, "is_monic"), (GroupElement, "identity"), (GroupElement, "mul"),
                            (GroupElement, "__matmul__"), (Poly, "const"),
                            (_Packing, "to_bytes"), (_Packing, "from_bytes"),
                            (SparseMatrix, "densify"), (ComplexZ, "origin_key"),
                            (ComplexZ, "field"), (SparseMatrix, "field"),
                            (BoundProfile, "upper_pairs"))


def _module_tree(module: str) -> ast.Module:
    return ast.parse((Path(conghom.__file__).parent / f"{module}.py").read_text())


def _package_imports(module: str) -> set[str]:
    """Names of the conghom modules that src/conghom/<module>.py imports from."""
    tree = _module_tree(module)
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


def _names_imported_from(module: str, source: str) -> set[str]:
    """Names that src/conghom/<module>.py imports from conghom.<source>."""
    return {alias.name for node in ast.walk(_module_tree(module))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == source
            for alias in node.names}


def test_compute_path_imports_no_group_code():
    # the parser sees the imports that are there
    assert {"building", "gf", "wedge"} <= _package_imports("homology")
    assert {"poly", "wedge"} <= _package_imports("oracle")
    assert "GF" in _names_imported_from("building", "errors")  # build_Z's prime check
    assert "_is_prime" in _names_imported_from("cli", "errors")  # the CLI's --q check
    # a prime is an int, so the linear algebra, the boundary and the oracle
    # need no prime check; it lives in errors, so no field module is left
    for module in ("gf", "homology", "oracle"):
        assert not _names_imported_from(module, "errors") & {"GF", "_is_prime"}, module
    assert not (Path(conghom.__file__).parent / "field.py").exists()
    for m in pkgutil.iter_modules(conghom.__path__):
        assert "field" not in _package_imports(m.name), m.name
    # the group elements are test references now
    assert not (Path(conghom.__file__).parent / "congruence.py").exists()
    for module in ("gf", "homology"):
        assert not _package_imports(module) & {"oracle", "poly"}, module
    # the oracle path holds no Z_R, boundary or matrix code
    for module in ("oracle", "poly", "wedge", "errors"):
        assert not _package_imports(module) & {"building", "homology", "gf"}, module
    assert not _package_imports("wedge") | _package_imports("errors")


def test_building_and_homology_import_from_gf_only_the_hot_path():
    # flags are entry tuples, so no dense matrix class, rref or inverse is imported
    hot_path = {"extend_rref", "inverse_entries", "reduce_columns", "SparseMatrix"}
    imported = set()
    for module in ("building", "homology"):
        names = _names_imported_from(module, "gf")
        assert names <= hot_path, module
        imported |= names
    assert imported == hot_path  # the walk sees the imports that are there


def test_oracle_tables_need_no_byte_codec():
    # group tables hold packed matrices, so the oracle imports no array module
    imported = set()
    for node in ast.walk(_module_tree("oracle")):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add((node.module or "").split(".")[0])
    assert "functools" in imported  # the walk sees the imports that are there
    assert "array" not in imported


def test_polynomials_are_tuples_with_no_class():
    # conghom.poly works on coefficient tuples, and commensurability comes from
    # the HNF pivots, so no module defines the cofactor determinant or the
    # mixed-context check; test_startup_loads_only_what_compute_runs pins that
    # oracle loads conghom.poly and compute does not
    assert not [node for node in ast.walk(_module_tree("poly"))
                if isinstance(node, ast.ClassDef)]
    assert {"column_hnf", "label_hex", "lattice_contains", "lattice_label", "poly_divmod"} <= {
        node.name for node in ast.walk(_module_tree("poly")) if isinstance(node, ast.FunctionDef)}
    for m in pkgutil.iter_modules(conghom.__path__):
        defined = {node.name for node in ast.walk(_module_tree(m.name))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & {"polymat_det", "_check_same_field", "Poly", "PolyMatrix",
                              "CanonicalLabel"}, m.name


def test_an_edge_is_its_rank_pair_and_its_flag():
    # Z_R is a flag complex, so an edge's simplex is read from its endpoints:
    # conghom.building defines no edge record, and no module names one or
    # reads a stored edge simplex
    classes = {node.name for node in ast.walk(_module_tree("building"))
               if isinstance(node, ast.ClassDef)}
    assert {"VertexRep", "ComplexZ"} <= classes  # the walk sees the classes that are there
    assert "EdgeRep" not in classes
    for m in pkgutil.iter_modules(conghom.__path__):
        nodes = list(ast.walk(_module_tree(m.name)))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert "EdgeRep" not in names, m.name
        assert not [node for node in nodes
                    if isinstance(node, ast.Attribute) and node.attr == "simplex"], m.name


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
        "conghom", "conghom.cli", "conghom.errors"}
    assert not cli & {"json", "dataclasses", "inspect"}

    size = ("--n", "3", "--q", "2", "--radius", "1")
    oracle = _command_modules(run_python, "oracle", *size)
    assert {"conghom.oracle", "conghom.poly", "conghom.wedge"} <= oracle
    assert not oracle & {"conghom.building", "conghom.homology", "conghom.gf"}
    compute = _command_modules(run_python, "compute", *size)
    assert {"conghom.building", "conghom.homology", "conghom.gf"} <= compute
    assert not compute & {"conghom.poly", "conghom.oracle", "conghom.congruence"}
    survive = _command_modules(run_python, "survive", "--n", "3", "--bounds", "1,1,3")
    assert survive == {"conghom", "conghom.cli", "conghom.wedge", "conghom.errors"}


def test_boundary_columns_forms_no_general_product():
    # W comes from the identity shortcut or the flag-pair memo, never from
    # a general matrix product on the hot path
    tree = _module_tree("homology")
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "boundary_columns")
    nodes = list(ast.walk(func))
    assert any(isinstance(node, ast.Call) for node in nodes)
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                   for node in nodes)
    assert not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "mul" for node in nodes)
