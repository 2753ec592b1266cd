"""Every public top-level name in src/momtraj has a reader outside the tests.

The scan parses each module of the package and collects its public top-level
functions, classes and assignments. It then looks for the name in the code of
src/, scripts/ and perfbench/, leaving out the package's __init__.py (which
re-exports) and import statements: a read of the name, an attribute of that
name, or a string equal to it (perfbench patches functions by name). A
module-level union type alias (`Potential = A | B | C`) does not count as a
reader of its members: a class that only an alias names is built nowhere. A
name found nowhere is surface that only tests reach; give it a caller or
delete it. TEST_ONLY lists the names kept on purpose, each with its reason.

No module of the package imports or applies a process-wide cache
(`functools.lru_cache` or `functools.cache`): a constant derived from a grid
is kept by `GridSpec.derived` and freed with the grid.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "momtraj"
READERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

TEST_ONLY = {
    "interaction_source_operator":
        "the momentum-operator route that tests check interaction_source against",
    "spectral_laplacian": "tests check the spectral derivatives against it",
    "read_field_csv": "tests read the field CSV artifacts back through it",
    "total_energy": "the per-frame energy drift planned for the stats.json diagnostics reads it",
}


def _public_definitions() -> dict[str, str]:
    """Each public top-level name of the package's modules, with its module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            found.update((name, path.name) for name in names if not name.startswith("_"))
    return found


def _is_union_alias(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.BitOr))


def _referenced_names() -> set[str]:
    refs = set()
    for tree in READERS:
        for path in tree.rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            module = ast.parse(path.read_text())
            module.body = [node for node in module.body if not _is_union_alias(node)]
            for node in ast.walk(module):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    refs.add(node.value)
    return refs


def test_every_public_name_has_a_reader_outside_the_tests():
    refs = _referenced_names()
    unread = sorted(f"{module}: {name}" for name, module in _public_definitions().items()
                    if name not in refs and name not in TEST_ONLY)
    assert not unread, unread


def test_test_only_names_are_still_test_only():
    defined = _public_definitions()
    refs = _referenced_names()
    for name in TEST_ONLY:
        assert name in defined, f"{name} is gone; drop it from TEST_ONLY"
        assert name not in refs, f"{name} has a reader now; drop it from TEST_ONLY"


def test_no_process_wide_cache():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: functools.{name}" for name in names
                      if name in ("lru_cache", "cache")]
    assert not found, found
