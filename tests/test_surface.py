"""Every public top-level function and class of the package has a use in the
package, or a stated reason to exist without one; no module imports another
module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "juntalab"

# Public names that nothing in the package references, each with its reason.
UNREFERENCED_ON_PURPOSE = {
    "inverse_transform": "acceptance criterion 01 (Walsh round trip)",
    "ancilla_choi_relation_residual": "acceptance criterion 06 (ancilla Choi identity)",
    "fnorm_agreement_identity": "acceptance criterion 07 (Boolean-Choi agreement constant)",
    "test_junta_copy_budget": "acceptance criterion 09 (exact tester copy accounting)",
    "proxy_distance": "ROADMAP item 4 (certified instances for the tester's labels)",
    "rho_eps_family": "ROADMAP item 5 (the log n instance of learn-state)",
}


def unreferenced_public_names() -> set[str]:
    """Public top-level functions and classes of ``src/juntalab/*.py`` that no
    name or attribute in the package refers to outside their own definition.
    Imports alone are not uses."""
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                if not own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return defined - used


def test_every_public_name_is_used_or_listed():
    unreferenced = unreferenced_public_names()
    unlisted = sorted(unreferenced - UNREFERENCED_ON_PURPOSE.keys())
    stale = sorted(UNREFERENCED_ON_PURPOSE.keys() - unreferenced)
    assert not unlisted, f"public names with no use in the package: {unlisted}"
    assert not stale, f"listed as unreferenced but now used in the package: {stale}"


def private_imports() -> list[str]:
    """``module: name`` for every ``from .<module> import _<name>`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.stem}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    found = private_imports()
    assert not found, f"private names imported across modules: {found}"
