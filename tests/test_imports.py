"""Import hygiene of ``src/fpoly``, read with the standard ``ast`` module.

Every name a module other than ``__init__`` imports is used in that
module, and every top-level name is read in ``src/fpoly`` outside its own
definition and ``__init__``, which re-exports the public ones.  A read
counts for the module it names (a bare name, ``from .m import x`` or
``m.x``), so a name is not read because another module has one like it.
``kernels.BACKEND`` is read by the benchmark harness and ``__version__``
by package tools, so both are allowed by name.  The public names with no
reader in the package are pinned in ``ENTRY_POINTS``, each with the
reason it stays: a name that gains a reader, or a new one without, fails
until the pin is updated.  Every error type of ``fpoly.errors`` has a
command-line exit code.
"""

import ast
from pathlib import Path

import fpoly
from fpoly import cli, errors

SOURCES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(Path(fpoly.__file__).parent.glob("*.py"))}
ALLOWED = {("kernels", "BACKEND"), ("__init__", "__version__")}
ENTRY_POINTS = {
    ("cluster", "seed_from_quiver"): "the benchmark's mutation walk starts from it",
    ("presentations", "generic_cokernel"): "general cokernels of a weight",
    ("presentations", "generic_hom_e"): "hom and e of a general presentation",
    ("presentations", "injective_representation"): "the injectives I_i = D P_i",
    ("presentations", "nakayama_kernel"): "tau of a cokernel, by the Nakayama functor",
    ("quiver", "kronecker_quiver"): "a standard quiver for callers",
    ("quiver", "cycle_quiver"): "a standard quiver for callers",
}


def _imported(tree):
    """Names bound by the module's imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _siblings(tree):
    """{bound name: module} of the module's ``from . import m`` imports."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
            for alias in node.names}


def _referenced(module, node, siblings):
    """(module, name) of each name a node reads, tied to the module that
    defines it: a loaded name of ``module``, ``m.x`` for a sibling module
    m, and each x of ``from .m import x``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield module, sub.id
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in siblings):
            yield siblings[sub.value.id], sub.attr
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
            yield from ((sub.module, alias.name) for alias in sub.names)


def _defined(stmt):
    """Top-level names one statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
               else [])
    return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def test_every_import_is_used():
    unused = []
    for module, tree in SOURCES.items():
        if module == "__init__":
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{module}: {name}" for name in _imported(tree) if name not in used]
    assert not unused


def _unread():
    """(module, name) of each top-level definition that no statement reads
    outside its own definition and ``__init__``."""
    references, defined = set(), set()
    for module, tree in SOURCES.items():
        siblings = _siblings(tree)
        for stmt in tree.body:
            names = {(module, name) for name in _defined(stmt)}
            if module != "__init__":
                references |= set(_referenced(module, stmt, siblings)) - names
            defined |= names
    return defined - references


def _is_private_or_constant(name):
    return name.startswith("_") or name.isupper()


def test_every_private_or_constant_name_is_referenced():
    unreferenced = {entry for entry in _unread()
                    if _is_private_or_constant(entry[1])}
    assert unreferenced == ALLOWED


def test_every_public_name_is_read_or_an_entry_point():
    unread = {entry for entry in _unread()
              if not _is_private_or_constant(entry[1]) and entry[0] != "__init__"}
    assert unread == set(ENTRY_POINTS)


def test_every_error_has_an_exit_code():
    subclasses = [value for value in vars(errors).values()
                  if isinstance(value, type) and issubclass(value, errors.FpolyError)
                  and value is not errors.FpolyError]
    assert subclasses
    assert [e.__name__ for e in subclasses if e not in cli.ERROR_EXITS] == []
