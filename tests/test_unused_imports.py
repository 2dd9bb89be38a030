"""No module imports a name it never uses, and no package definition or
dataclass field goes unread.

No linter ships with the toolchain, so deleting code can leave an import, a
whole function or a field behind unnoticed. This parses every package,
test and script module with `ast` and reports each imported name the
module never reads, each module-level function or class of `src/ddhf` that
no module of `src`, `tests`, `scripts` or `perfbench` reads outside the
definition itself, and each dataclass field of `src/ddhf` that no module
of `src/ddhf` reads as an attribute or names in a string: a field only
tests read is carried by the program for nothing. No dataclass of
`src/ddhf` holds a projection as a loose `<p>_w`/`<p>_b` field pair: a
weight and its bias are one `core.Linear`. Package `__init__.py` files are
skipped: their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in ("src/ddhf", "tests", "scripts")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)
OTHER_READERS = sorted(
    p for d in ("tests", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    src = "import math\nimport os.path\nfrom a import b as c, d\n\ndef f(x: 'd') -> int:\n    return os.sep\n"
    assert unused_imports(src) == ["math (line 1)", "c (line 3)"]


def read_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute a module reads, and of each
    part of a dotted-name string such as "hbf.ib_mamba" (the benchmark
    tracer names the functions it wraps that way)."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                reads += [(part, node.lineno) for part in parts]
    return reads


def unread_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """`module: name` of each module-level function or class of the package
    that neither a package module nor another module reads outside the
    definition's own lines. Each map goes from a module's name to its source."""
    reads = {name: read_names(ast.parse(src)) for name, src in {**package, **others}.items()}
    unread = []
    for module, src in package.items():
        for node in ast.parse(src).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (reader == module and line in inside)
                for reader, found in reads.items()
                for name, line in found
            ):
                unread.append(f"{module}: {node.name}")
    return unread


def package_and_others() -> tuple[dict[str, str], dict[str, str]]:
    """The sources of the package modules and of every other reader."""
    text = lambda p: p.read_text(encoding="utf-8")
    package = {p.stem: text(p) for p in MODULES if p.parent.name == "ddhf"}
    return package, {str(p.relative_to(ROOT)): text(p) for p in OTHER_READERS}


def test_every_package_definition_is_read():
    assert unread_definitions(*package_and_others()) == []


def test_checker_flags_an_unread_definition():
    package = {
        "m": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
        "class Lone:\n    pass\n\ndef traced():\n    pass\n"
    }
    others = {"t": "from m import used\nused()\nLAYERS = {'m.traced': None}\n"}
    assert unread_definitions(package, others) == ["m: recursive", "m: Lone"]


def is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated `@dataclass`, `@dataclass(...)` or `@dataclasses.dataclass`."""
    decs = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "attr", getattr(d, "id", None)) == "dataclass" for d in decs)


def field_reads(tree: ast.Module) -> set[str]:
    """Every attribute a module reads, and every identifier, or part of a
    dotted name, it writes as a string (a field named to `getattr`,
    `zeroed` or a config key table)."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                reads |= set(parts)
    return reads


def unread_fields(package: dict[str, str]) -> list[str]:
    """`module: Class.field` of each dataclass field of the package that no
    package module reads as an attribute or names in a string. The map goes
    from a module's name to its source."""
    reads = set().union(*(field_reads(ast.parse(src)) for src in package.values()))
    return [
        f"{module}: {node.name}.{item.target.id}"
        for module, src in package.items()
        for node in ast.parse(src).body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and item.target.id not in reads
    ]


def test_every_dataclass_field_is_read():
    package, _ = package_and_others()
    assert unread_fields(package) == []


def test_checker_flags_an_unread_field():
    package = {
        "m": "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass P:\n    read: int\n    named: int\n"
        "    lone: int\n    built: int\n\n"
        "@dataclasses.dataclass\nclass Q:\n    traced: int\n    unread: int = 0\n"
        "    tested: int = 0\n\nclass Plain:\n    x: int\n",
        "r": "from m import P, Q\np = P(1, 2, 3, built=4)\np.read\ngetattr(p, 'named')\n"
        "LAYERS = {'m.traced': None}\nQ(traced=1)\n",
    }
    # Q.tested is read only by a test module, which is not part of the package
    test = "from m import Q\nQ(1).tested\n"
    unread = ["m: P.lone", "m: P.built", "m: Q.unread", "m: Q.tested"]
    assert unread_fields(package) == unread
    # the same read in a package module counts
    assert unread_fields({**package, "n": test}) == unread[:-1]


def dataclass_fields(tree: ast.Module):
    """(class name, [field names]) of each dataclass defined at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            yield node.name, [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]


def loose_pairs(package: dict[str, str]) -> list[str]:
    """`module: Class.<p>_w/<p>_b` of each dataclass of the package that
    declares both fields of a pair, a projection that is not one `Linear`."""
    return [
        f"{module}: {cls}.{name}/{name[:-2]}_b"
        for module, src in package.items()
        for cls, names in dataclass_fields(ast.parse(src))
        for name in names
        if name.endswith("_w") and f"{name[:-2]}_b" in names
    ]


def test_no_dataclass_holds_a_loose_weight_bias_pair():
    package, _ = package_and_others()
    assert loose_pairs(package) == []


def test_checker_flags_a_loose_pair():
    package = {
        "m": "from dataclasses import dataclass\n\n@dataclass\nclass P:\n    in_w: int\n"
        "    b_w: int\n    in_b: int\n    conv_k: int\n    conv_b: int\n    w: int\n    b: int\n\n"
        "class Plain:\n    out_w: int\n    out_b: int\n",
    }
    assert loose_pairs(package) == ["m: P.in_w/in_b"]
