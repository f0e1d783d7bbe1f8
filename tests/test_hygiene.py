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
    # `complete`, and taken out and put back only by `interreduce`, each on
    # a working system of its own
    callers = {"_add_rule": set(), "_take_out": set(), "_put_back": set()}
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
    assert callers == {
        "_add_rule": {"complete"},
        "_take_out": {"interreduce"},
        "_put_back": {"interreduce"},
    }, callers


def test_only_completion_sets_a_claim():
    # `complete_up_to` says up to which tip degree every critical pair is
    # known to resolve; only `complete` checks that, so no other function
    # but the constructor, which sets None, assigns it
    setters = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr == "complete_up_to"
                        and isinstance(node.ctx, (ast.Store, ast.Del))
                    ):
                        setters.add(f"{path.name}: {function.name}")
    assert setters == {"rewriting.py: __init__", "rewriting.py: complete"}, sorted(setters)


def is_act_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "act"
    )


def test_no_product_is_built_only_to_be_summed():
    # a module product that is summed goes through `act_into`, which adds
    # it in place: no `accumulate` call takes an `.act(...)` result, read
    # directly or through a name the same function bound to one
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and any(map(is_act_call, ast.walk(node.value)))
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "accumulate"
                    and any(
                        is_act_call(arg) or (isinstance(arg, ast.Name) and arg.id in bound)
                        for a in node.args
                        for arg in ast.walk(a)
                    )
                ):
                    offenders.append(f"{path.name}:{node.lineno} {function.name}")
    assert not offenders, f"act results summed by accumulate: {sorted(set(offenders))}"


def is_memo(node: ast.AST, aliases: set[str]) -> bool:
    """node is a normal-form memo (an `._nf`, or a name bound to one) or an
    entry of one, read by subscript or `.get`, at any depth."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get":
            node = node.func.value
        else:
            break
    return (isinstance(node, ast.Attribute) and node.attr == "_nf") or (
        isinstance(node, ast.Name) and node.id in aliases
    )


def memo_aliases(function: ast.AST) -> set[str]:
    """The names the function binds to a memo or to an entry of one, alone
    or in a tuple assignment, through other such names too."""
    aliases: set[str] = set()
    while True:
        found = set(aliases)
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    else:
                        pairs = [(target, node.value)]
                    found.update(
                        t.id for t, v in pairs if isinstance(t, ast.Name) and is_memo(v, aliases)
                    )
        if found == aliases:
            return aliases
        aliases = found


def stores_into_memo(node: ast.AST, aliases: set[str]) -> bool:
    """An item assignment into a memo or one of its entries, or a call that
    writes into one: `update`, `setdefault`, or `accumulate` summing into it."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return is_memo(node.value, aliases)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("update", "setdefault", "__setitem__"):
        return is_memo(func.value, aliases)
    name = getattr(func, "id", getattr(func, "attr", None))
    return name == "accumulate" and bool(node.args) and is_memo(node.args[0], aliases)


def test_only_the_derivation_stores_into_the_memo():
    # a normal form is stored once, by the derivation that computes it, and
    # never patched in place: a new rule drops the entries it reaches, so a
    # memo dict handed out stays as it was (deleting an entry is no store)
    writers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                aliases = memo_aliases(function)
                if any(stores_into_memo(node, aliases) for node in ast.walk(function)):
                    writers.add(f"{path.name}: {function.name}")
    assert writers == {"rewriting.py: _derivation"}, sorted(writers)


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


def optional_parameters(tree: ast.AST, prefix: str = ""):
    """`Qualified.name(parameter)` for each parameter with a default, and
    `name(**kwargs)` for each keyword catch-all, of every function in the
    tree, nested ones and methods included."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from optional_parameters(node, prefix)
            continue
        name = prefix + node.name
        if not isinstance(node, ast.ClassDef):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield from (f"{name}({a.arg})" for a in defaulted)
            if args.kwarg:
                yield f"{name}(**{args.kwarg.arg})"
        yield from optional_parameters(node, name + ".")


OPTIONAL_PARAMETERS = {
    "anick.py: extend_chains(max_degree)",
    "anick.py: ResolutionPrefix.__init__(max_degree)",
    "cli.py: main(argv)",
    "polynomials.py: Polynomial.__init__(terms)",
    "polynomials.py: Polynomial.monomial(coeff)",
    "resolution.py: _Echelon.__init__(order)",
    "resolution.py: _Echelon.__init__(build)",
    "rewriting.py: RewritingSystem.find_critical_pairs(degree_bound)",
    "rewriting.py: RewritingSystem.is_complete(degree_bound)",
    "rewriting.py: RewritingSystem.irreducible_words(max_degree)",
    "rewriting.py: RewritingSystem.irreducible_counts_by_degree(max_degree)",
    "words.py: find(start)",
}


def test_the_optional_parameters_are_listed():
    # every parameter with a default, and every **kwargs, in the package's
    # signatures is one of the listed ones: a new option is an edit here
    found = {
        f"{path.name}: {parameter}"
        for path in MODULES
        for parameter in optional_parameters(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == OPTIONAL_PARAMETERS, (
        f"not listed: {sorted(found - OPTIONAL_PARAMETERS)}; "
        f"listed but gone: {sorted(OPTIONAL_PARAMETERS - found)}"
    )
