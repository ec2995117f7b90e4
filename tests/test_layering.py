"""Which kclattice module may import which, and who may call what.

``krylov`` sits below the solver and above the energy, so linear algebra
added there cannot close an import cycle; the property suite sits above
the solve path, which loads it only inside the functions that need it.
The package itself imports none of them: its export table names the module
of each public name.  The potential's table is built in one place, the
problem that caches it.  Private names cross between modules only along
the internal interface listed here.
"""

import ast
from pathlib import Path

import kclattice as kc

PACKAGE = Path(kc.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _relative_imports(module, top_level_only=False):
    """The sibling modules ``module`` imports, anywhere in it or only at module level."""
    tree = _tree(module)
    found = set()
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def _top_level_names(module):
    """The names ``module`` binds by a top-level def, class, import or assignment."""
    found = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return found


def _export_table():
    """The package's {module: names} table, read from its source."""
    for node in _tree("__init__").body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            return ast.literal_eval(node.value)
    raise AssertionError("__init__.py binds no _EXPORTS table")


def _referrers(module, attribute):
    """Qualified names of the functions in ``module`` that name ``.attribute``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attribute:
                found.add(".".join(scope))
            visit(child, scope)

    visit(_tree(module), (module,))
    return found


def _private_imports(module):
    """{sibling: names} of the private names ``module`` imports from its siblings."""
    found = {}
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            private = {alias.name for alias in node.names if alias.name.startswith("_")}
            if private:
                found.setdefault(node.module, set()).update(private)
    return found


# the package's internal interface: the private names one module may take from another
INTERNAL_IMPORTS = {
    "energy": {"lattice": {"_edge_sum", "_laplacian_values"}},
    "krylov": {"lattice": {"_laplacian_values"}},
    "nehari": {"energy": {"_hessian"}, "krylov": {"_h_representer", "_minres"},
               "lattice": {"_laplacian_values"}},
    "verify": {"energy": {"_check_field"}, "kernel": {"_table_defect"},
               "lattice": {"_lp_norm_values"}},
}


def test_the_import_reader_sees_function_level_imports():
    assert "verify" in _relative_imports("cli")
    assert "verify" not in _relative_imports("cli", top_level_only=True)
    assert "krylov" in _relative_imports("nehari", top_level_only=True)


def test_the_lattice_imports_no_other_module():
    # geometry and the discrete operators only; the energy norm belongs to ProblemSpec
    assert _relative_imports("lattice") == set()


def test_krylov_imports_only_the_lattice_and_the_energy():
    assert _relative_imports("krylov") <= {"lattice", "energy"}


def test_the_energy_imports_neither_the_solver_nor_krylov():
    assert not _relative_imports("energy") & {"nehari", "krylov"}


def test_the_convolution_layer_takes_only_the_periodic_mode_from_the_lattice():
    # convolve hands back the array it checked; a Field wrapped around it would import one here
    names = {alias.name for node in ast.walk(_tree("kernel"))
             if isinstance(node, ast.ImportFrom) and node.level and node.module == "lattice"
             for alias in node.names}
    assert names == {"PERIODIC"}


def test_no_module_imports_separable():
    assert "separable" not in MODULES
    for module in MODULES:
        assert "separable" not in _relative_imports(module), module


def test_the_solve_path_imports_the_suite_only_on_use():
    for module in MODULES:
        if module != "verify":
            assert "verify" not in _relative_imports(module, top_level_only=True), module


def test_only_the_problem_builds_its_potential_table():
    # a second build of one problem's table, say to locate its minimum, reads the cache instead
    callers = set().union(*(_referrers(module, "table_on") for module in MODULES))
    assert callers == {"energy.ProblemSpec.potential_table"}


def test_the_package_imports_no_module_at_its_top_level():
    # every public name is served on first use, so `import kclattice` loads no submodule
    assert _relative_imports("__init__", top_level_only=True) == set()


def test_every_exported_name_is_bound_where_the_table_says():
    # a moved or renamed name fails here, not at a user's first use of it
    table = _export_table()
    assert set(table) <= set(MODULES)
    for module, names in table.items():
        missing = set(names) - _top_level_names(module)
        assert not missing, f"{module} binds no {sorted(missing)}"


def test_modules_share_only_the_listed_private_names():
    for module in MODULES:
        allowed = INTERNAL_IMPORTS.get(module, {})
        for sibling, names in _private_imports(module).items():
            extra = names - allowed.get(sibling, set())
            assert not extra, f"{module} imports {sorted(extra)} from {sibling}"
    # and the list names no import that is gone
    assert {module: _private_imports(module) for module in INTERNAL_IMPORTS} == INTERNAL_IMPORTS
