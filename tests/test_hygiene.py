"""Static hygiene of the package source, checked with the standard library's
`ast` (the project keeps no linter)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anickres"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation of an argument, a return or an annotated assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def quoted_names(tree: ast.Module) -> set[str]:
    """Every name read in a quoted annotation."""
    quoted = set()
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = ast.parse(node.value, mode="eval")
                quoted.update(n.id for n in ast.walk(text) if isinstance(n, ast.Name))
    return quoted


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code or in a quoted annotation."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | quoted_names(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def is_private(name: str) -> bool:
    """One leading underscore, not a dunder."""
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module):
    """(name, line) of each private module-level function, class or constant,
    and of each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member.lineno


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a name or as an attribute."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return read | quoted_names(tree)


def test_every_private_definition_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    referenced = set().union(*map(referenced_names, trees.values()))
    dead = sorted(
        f"{path.name}:{line} {name}"
        for path, tree in trees.items()
        for name, line in private_definitions(tree)
        if is_private(name) and name not in referenced
    )
    assert not dead, f"private definitions nothing in the package references: {dead}"


def self_attribute_readers(tree: ast.Module, attr: str) -> set[str]:
    """The names of the functions that touch `self.<attr>`; a touch in a
    nested function counts for the enclosing one too."""
    readers = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == attr
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    readers.add(function.name)
    return readers


def test_the_lhs_trie_is_walked_in_one_place():
    # the system builds and grows its trie, `_path` walks it for every
    # reader, and `front_rule`, the normal-form engine's step that stops at
    # the first lhs, keeps its own loop
    tree = ast.parse((PACKAGE / "rewriting.py").read_text(encoding="utf-8"))
    readers = self_attribute_readers(tree, "_trie")
    assert readers <= {"__init__", "_insert_lhs", "_path", "front_rule"}, sorted(readers)


def test_one_automaton_is_built():
    # the prepend automaton is the only Aho-Corasick automaton a system
    # builds: its counts, enumeration and irreducibility test all read it
    tree = ast.parse((PACKAGE / "rewriting.py").read_text(encoding="utf-8"))
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_aho_corasick"
    ]
    assert callers == ["prepend_automaton"], callers
    # and one table of it: the system builds, resets and hands over
    # `_prepend`, and every other reader goes through `prepend_automaton()`
    touchers = self_attribute_readers(tree, "_prepend")
    assert touchers <= {"__init__", "_add_rule", "prepend_automaton", "interreduce"}, sorted(
        touchers
    )


def test_the_prepend_automaton_reads_whole_words_in_one_place():
    # `prepend_state` reads a word on the prepend automaton from its end;
    # the irreducibility test and the greedy ranks' uncarried leads call it,
    # and every other reader steps the table one letter at a time
    walkers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {
                    getattr(node.func, "attr", getattr(node.func, "id", None))
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                }
                if "prepend_automaton" in calls and calls & {"reversed", "reduce"}:
                    walkers.add(function.name)
    assert walkers == {"prepend_state"}, sorted(walkers)


def test_systems_change_in_place_only_in_their_own_transform():
    # a system is never changed once returned: rules are appended only by
    # `complete`, and tails set only by `interreduce`, each on a working
    # system of its own
    callers = {"_add_rule": set(), "_set_tail": set()}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in callers
                    ):
                        callers[node.func.attr].add(function.name)
    assert callers == {"_add_rule": {"complete"}, "_set_tail": {"interreduce"}}, callers


def test_no_default_argument_reads_a_name():
    # a default is evaluated once, at import, so one copied from a module
    # constant would keep the old value when that constant is patched
    readers = sorted(
        f"{path.name}:{function.lineno} {function.name}"
        for path in MODULES
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for default in (*function.args.defaults, *filter(None, function.args.kw_defaults))
        if any(isinstance(node, ast.Name) for node in ast.walk(default))
    )
    assert not readers, f"defaults that read a name: {readers}"
