"""Which kclattice module may import which, and who may call what.

``krylov`` sits below the solver and above the energy, so linear algebra
added there cannot close an import cycle; the property suite sits above
the solve path, which loads it only inside the functions that need it.
The potential's table is built in one place, the problem that caches it.
"""

import ast
from pathlib import Path

import kclattice as kc

PACKAGE = Path(kc.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _relative_imports(module, top_level_only=False):
    """The sibling modules ``module`` imports, anywhere in it or only at module level."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


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

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), (module,))
    return found


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
