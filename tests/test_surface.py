"""Every public top-level function and class of the package has a use in the
package, or a stated reason to exist without one; no module imports another
module's private names; every protocol has at least two implementations."""

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


def class_members(node: ast.ClassDef) -> set[str]:
    """Names a class defines: methods, class-level attributes and
    ``self.<name>`` assignments in its methods."""
    members = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            members.add(item.target.id)
        elif isinstance(item, ast.Assign):
            members.update(target.id for target in item.targets if isinstance(target, ast.Name))
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            members.add(sub.attr)
    return members


def is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        base = base.value if isinstance(base, ast.Subscript) else base
        if (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)) == "Protocol":
            return True
    return False


def thin_protocols(sources: list[str]) -> list[str]:
    """``Protocol: implementations`` for every ``typing.Protocol`` subclass in
    the sources that fewer than two other classes implement, a class
    implementing it when it defines all of the protocol's members."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    found = []
    for protocol in filter(is_protocol, classes):
        wanted = class_members(protocol)
        implementations = [cls.name for cls in classes if not is_protocol(cls) and wanted <= class_members(cls)]
        if len(implementations) < 2:
            found.append(f"{protocol.name}: {implementations}")
    return found


def test_thin_protocols_are_found():
    source = """
from typing import Protocol
import typing

class Sampler(Protocol):
    n: int
    def draw(self, count): ...

class Shared(typing.Protocol):
    def draw(self, count): ...

class One:
    def __init__(self):
        self.n = 3
    def draw(self, count): ...

class Two:
    n = 4
    def draw(self, count): ...

class NoWidth:
    def draw(self, count): ...
"""
    assert thin_protocols([source]) == []
    assert thin_protocols([source.replace("n = 4", "m = 4")]) == ["Sampler: ['One']"]


def test_every_protocol_has_two_implementations():
    found = thin_protocols([path.read_text() for path in sorted(PACKAGE.glob("*.py"))])
    assert not found, f"protocols with fewer than two implementations in the package: {found}"
