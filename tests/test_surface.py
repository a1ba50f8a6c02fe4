"""Every public top-level function and class of the package has a use in the
package, or a stated reason to exist without one; no module imports another
module's private names; every protocol has at least two implementations;
every defaulted parameter is set by some call in the package, or has a stated
reason to exist without one."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "juntalab"

# Public names that nothing in the package references, each with its reason.
UNREFERENCED_ON_PURPOSE = {
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
    """``module: name`` for every ``from .<module> import _<name>`` in the
    package; dunder names such as ``__version__`` are public."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.stem}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
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


# Defaulted parameters, as ``module.function: parameter``, that no call in the
# package sets, each with its reason.
UNSET_ON_PURPOSE = {
    "cli.main: argv": "the console entry point; tests and perfbench/child.py pass it",
    "qstate.random_density_matrix: rank": "tests build rank-deficient states with it",
}


def defaulted_parameters(module: str, source: str) -> dict[str, tuple[str, str, int | None]]:
    """``module.function: parameter`` -> (the name a call uses, the parameter,
    its positional index in that call or None if keyword-only) for every defaulted
    parameter of a public function or a public class's method. A method's
    calls skip ``self``; ``__init__`` is called by its class's name."""
    functions = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.FunctionDef) and not statement.name.startswith("_"):
            functions.append((statement.name, statement.name, statement, 0))
        elif isinstance(statement, ast.ClassDef) and not statement.name.startswith("_"):
            functions += [(f"{statement.name}.{f.name}", statement.name if f.name == "__init__" else f.name, f, 1)
                          for f in statement.body if isinstance(f, ast.FunctionDef)]
    found = {}
    for qualified, called_as, function, skipped in functions:
        args = function.args
        positional = args.posonlyargs + args.args
        for index in range(len(positional) - len(args.defaults), len(positional)):
            name = positional[index].arg
            found[f"{module}.{qualified}: {name}"] = called_as, name, index - skipped
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{module}.{qualified}: {arg.arg}"] = called_as, arg.arg, None
    return found


def unset_parameters(sources: dict[str, str]) -> set[str]:
    """Defaulted parameters (see ``defaulted_parameters``) of the module
    sources that no call in them passes, by keyword or by position; a call
    with ``*args`` or ``**kwargs`` passes everything."""
    calls = {}  # called name -> [(positional count, keyword names)]
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                keywords = {keyword.arg for keyword in node.keywords}  # None: **kwargs
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    keywords.add(None)
                calls.setdefault(name, []).append((len(node.args), keywords))
    unset = set()
    for module, source in sources.items():
        for key, (called_as, parameter, index) in defaulted_parameters(module, source).items():
            if not any(None in keywords or parameter in keywords or (index is not None and count > index)
                       for count, keywords in calls.get(called_as, [])):
                unset.add(key)
    return unset


def test_unset_parameters_are_found():
    source = """
def scale(x, c=2.0, *, floor=0.0):
    return max(c * x, floor)

class Box:
    def __init__(self, width, height=1):
        self.area = scale(width * height, 3.0)
    def grow(self, by=1, copies=1):
        return Box(self.area, **{"height": by})

def use(box, *rest):
    return box.grow(2), scale(*rest)
"""
    assert unset_parameters({"m": source}) == {"m.Box.grow: copies"}
    assert unset_parameters({"m": source.replace("scale(*rest)", "scale(1)")}) == {
        "m.Box.grow: copies", "m.scale: floor"}
    assert unset_parameters({"m": source.replace("Box(self.area, **", "Box(self.area, ")}) == {
        "m.Box.grow: copies"}


def test_every_defaulted_parameter_is_set_or_listed():
    unset = unset_parameters({path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})
    unlisted = sorted(unset - UNSET_ON_PURPOSE.keys())
    stale = sorted(UNSET_ON_PURPOSE.keys() - unset)
    assert not unlisted, f"defaulted parameters that nothing in the package sets: {unlisted}"
    assert not stale, f"listed as unset but now set in the package: {stale}"
