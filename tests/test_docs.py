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


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a tree reads: names, attributes and strings (the
    benchmark wraps attributes by name); `skip`'s subtree aside."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    # test-only helpers belong in tests/: each top-level function, class or
    # method of src/semoff must be read somewhere in src/semoff, scripts/ or
    # the benchmark's worker, not counting its own definition
    sources = sorted((ROOT / "src" / "semoff").glob("*.py"))
    users = sources + sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "perfbench" / "worker.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    everywhere = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in sources:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if (name.startswith("__") and name.endswith("__")) or qualname in _UNREFERENCED_ALLOWED:
                continue
            elsewhere = any(name in refs for other, refs in everywhere.items() if other != path)
            if not elsewhere and name not in _references(trees[path], skip=node):
                unused.append(f"{path.name}: {qualname}")
    assert not unused, f"defined in src/semoff but used only by tests: {unused}"
