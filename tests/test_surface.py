"""Every function, class and method in ``src/seqtransfer`` has a caller.

A definition is used when some file of ``src/`` or ``bench/`` names it: as
a name, an attribute, an import or a string constant (``bench/tracing.py``
wraps methods by their names as strings).  Dunder methods are called by
the language, not by name, and are left out.  A definition only the tests
reach belongs in the tests, unless it is on ``TEST_ONLY`` with the reason
it stays in ``src/``.  No module imports another module's private name,
unless it is on ``PRIVATE_IMPORTS`` with the reason.  No module of
``src/`` or ``tests/`` imports a name it never uses.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seqtransfer"

TEST_ONLY: dict = {}

# Private names one module of the package imports from another, with the
# reason each stays private to its home module.
PRIVATE_IMPORTS: dict = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions() -> dict:
    """Qualified name -> bare name of each top-level function and class of
    the package, and of each method of a top-level class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def named() -> set:
    """Every name, attribute, imported name and string constant in
    ``src/`` and ``bench/``."""
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_definition_is_named_outside_the_tests():
    used = named()
    unused = {qual for qual, name in definitions().items() if name not in used}
    assert unused - TEST_ONLY.keys() == set(), "move to the tests or delete"


def test_the_learner_names_no_truth():
    # The sequential learner sees one oracle per task and its own past; the
    # hidden family and chain, and the evaluator's truth-side helpers, are
    # named only by run_sequential.  Checked over the Learner and every
    # definition of its module that it reaches by name.
    truth = {"family", "chain", "TaskChain", "plan", "is_eps_optimal",
             "estimate_errors", "sample_initial_task", "sample_next_task"}
    tree = ast.parse((PACKAGE / "sequential.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, _DEFS)}
    reached, todo, names = set(), {"Learner"}, set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
        todo = (names & defs.keys()) - reached
    assert {"Learner", "collect_post_samples", "pre_eliminate"} <= reached
    assert "run_sequential" not in reached
    assert names & truth == set()


def test_every_test_only_entry_is_still_an_unused_definition():
    # Also fails if the scan finds no definitions at all.
    defined = definitions()
    assert defined
    used = named()
    stale = {qual for qual in TEST_ONLY
             if qual not in defined or defined[qual] in used}
    assert stale == set(), "drop these from TEST_ONLY"


def test_no_module_imports_another_modules_private_name():
    # A leading underscore marks a name as its module's own; another module
    # of the package that needs it names it here, with the reason.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                home = (node.module or "").rsplit(".", 1)[-1]
                found |= {f"{path.stem} <- {home}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert found - PRIVATE_IMPORTS.keys() == set(), "make public or keep at home"
    assert PRIVATE_IMPORTS.keys() - found == set(), "drop these from PRIVATE_IMPORTS"


def unused_imports(tree) -> set:
    """The names a module's imports bind that it never names, in code or in
    ``__all__``; ``from __future__`` imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return {f"{name} (line {line})" for name, line in bound.items() if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        unused = unused_imports(ast.parse(path.read_text()))
        if unused:
            found[path.relative_to(ROOT).as_posix()] = sorted(unused)
    assert found == {}, "delete these imports"
