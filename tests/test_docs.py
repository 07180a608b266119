"""The README's config reference and the example configs stay in step with
the code, and `src/semoff` defines nothing that only the tests use."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest

from semoff import engine
from semoff.cli import main
from semoff.config import SystemConfig, config_to_dict

ROOT = Path(__file__).resolve().parent.parent


def _readme_config() -> dict:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    return json.loads(re.sub(r"//.*", "", block))


def test_readme_config_block_lists_every_field_at_its_default():
    documented = _readme_config()
    defaults = config_to_dict(SystemConfig())
    assert set(documented) == set(defaults) | {"scenario"}
    for group, fields in defaults.items():
        assert list(documented[group]) == list(fields), group
        for name, value in fields.items():
            doc = documented[group][name]
            if isinstance(value, float):
                assert doc == pytest.approx(value, rel=1e-12), (group, name)
            else:
                assert doc == value, (group, name)
    assert set(documented["scenario"]) == {f.name for f in dataclasses.fields(engine.Scenario)}


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_example_config_runs(path, tmp_path):
    assert main(["simulate", "--config", str(path), "--slots", "5",
                 "--out", str(tmp_path / "run")]) == 0


# Used only from outside the program: the README's "Actor checkpoints".
_UNREFERENCED_ALLOWED = {"ActorNetwork.save", "ActorNetwork.load"}


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Top-level functions and classes, and the methods of those classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                     if isinstance(sub, ast.FunctionDef)]
    return defs


def _references(tree: ast.AST, skip: frozenset = frozenset()) -> set[str]:
    """Every name a tree reads: names, attributes and strings (the
    benchmark wraps attributes by name); the subtrees of `skip` aside."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _function_reads(node: ast.AST) -> tuple[set[str], set[str]]:
    """What a function definition reads when it is defined (decorators and
    default values) and what its body reads when it runs."""
    if not isinstance(node, ast.FunctionDef):
        return set(), set()
    at_definition = node.decorator_list + node.args.defaults + node.args.kw_defaults
    return (set().union(*(_references(d) for d in at_definition if d is not None)),
            set().union(*(_references(stmt) for stmt in node.body)))


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    # test-only helpers belong in tests/: each top-level function, class or
    # method of src/semoff must be read by code that runs outside the tests,
    # taken to a fixed point: module-level code of src/semoff (class bodies
    # included, function bodies not), scripts/, the benchmark's worker, and
    # the body of a definition that is itself read so (a dunder method is
    # read with its class)
    sources = sorted((ROOT / "src" / "semoff").glob("*.py"))
    users = sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "perfbench" / "worker.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources + users}
    reached = set().union(*(_references(trees[path]) for path in users))
    bodies = {}   # (file, qualname) -> what the definition's body reads
    for path in sources:
        definitions = _definitions(trees[path])
        functions = frozenset(node for _, node in definitions
                              if isinstance(node, ast.FunctionDef))
        reached |= _references(trees[path], skip=functions)
        for qualname, node in definitions:
            at_definition, body = _function_reads(node)
            reached |= at_definition
            bodies[path.name, qualname] = body

    def is_read(qualname: str) -> bool:
        if qualname in _UNREFERENCED_ALLOWED:
            return True
        owner, _, name = qualname.rpartition(".")
        if name.startswith("__") and name.endswith("__"):
            return owner in reached
        return name in reached

    while True:
        counted = [key for key in bodies if is_read(key[1])]
        if not counted:
            break
        for key in counted:
            reached |= bodies.pop(key)
    unused = [f"{file}: {qualname}" for file, qualname in sorted(bodies)]
    assert not unused, f"defined in src/semoff but used only by tests: {unused}"
