"""Every function, method and class defined in ``src/poshan`` must be named
by the program itself: somewhere in ``src/poshan`` or in the benchmark
harness ``perfbench/`` outside its own definition.  A name that only tests
reach is code the system never runs; delete it together with its tests.

The search is by whole word, comments and strings included, and runs to a
fixed point: a definition named only inside definitions that are
themselves unnamed is unnamed too.  Names of the form ``__name__`` are
exempt, because the interpreter calls them by protocol, not by name.

Likewise every attribute that ``src/poshan`` sets on ``self`` must be read
by the program: loaded as an attribute, or named inside a string other
than a docstring, as ``getattr`` and the harness's hooks name attributes.
State that only tests read is state the system never uses.

And every module-level import in ``src/poshan`` must bind a name that its
module uses: an import that nothing names is what a deletion leaves
behind.  ``from __future__`` imports are exempt; they are directives.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "poshan"
HARNESS = ROOT / "perfbench"


def _program_sources() -> list:
    harness = [p for p in HARNESS.rglob("*.py") if "tests" not in p.relative_to(HARNESS).parts]
    return sorted(PACKAGE.glob("*.py")) + sorted(harness)


def _definitions(path: Path) -> list:
    """(name, first line, last line) of every def and class in a module,
    decorators included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found.append((node.name, first, node.end_lineno))
    return found


def _named_outside(definition, occurrences: dict, dead: set) -> bool:
    """Whether a definition's name occurs outside its own lines and outside
    every definition already found unnamed."""
    path, name, first, last = definition
    return any(not (where == path and first <= line <= last)
               and not any(where == d[0] and d[2] <= line <= d[3] for d in dead)
               for where, line in occurrences.get(name, ()))


def unnamed_definitions() -> list:
    occurrences: dict = {}
    for path in _program_sources():
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            for word in re.findall(r"\w+", line):
                occurrences.setdefault(word, []).append((path, lineno))
    live = {(path, *d) for path in sorted(PACKAGE.glob("*.py")) for d in _definitions(path)
            if not (d[0].startswith("__") and d[0].endswith("__"))}
    dead: set = set()
    while True:
        newly = {d for d in live if not _named_outside(d, occurrences, dead)}
        if not newly:
            return sorted(f"{path.name}:{first} {name}" for path, name, first, _ in dead)
        live -= newly
        dead |= newly


def test_every_definition_is_named_outside_its_definition():
    unnamed = unnamed_definitions()
    assert not unnamed, f"defined in src/poshan but named only by tests: {unnamed}"


def _attributes_set_on_self(path: Path) -> list:
    """(name, line) of every ``self.<name> = ...`` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def _names_read(path: Path) -> set:
    """Attribute names a module loads, and the words of its strings other
    than docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_attribute_set_on_self_is_read_by_the_program():
    read = set().union(*(_names_read(path) for path in _program_sources()))
    unread = [f"{path.name}:{line} self.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name, line in _attributes_set_on_self(path) if name not in read]
    assert not unread, f"set in src/poshan but read only by tests: {unread}"


def _unused_imports(path: Path) -> list:
    """(name, line) of every name a module-level import binds that the
    rest of the module never names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    bound = [((alias.asname or alias.name).split(".")[0], node.lineno)
             for node in imports for alias in node.names]
    return [(name, line) for name, line in bound if name not in named]


def test_every_module_level_import_is_used():
    unused = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name, line in _unused_imports(path)]
    assert not unused, f"imported in src/poshan but never named: {unused}"
