"""The README's config reference and the example configs stay in step with
the code, and `src/semoff` defines nothing that only the tests use."""

import argparse
import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from semoff import engine
from semoff.cli import build_parser, main
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
    # the run settings only: every config value is set in its own group
    assert tuple(documented["scenario"]) == engine.RUN_SETTINGS


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_example_config_scenario_holds_run_settings_only(path):
    scenario = json.loads(path.read_text(encoding="utf-8"))["scenario"]
    assert set(scenario) <= set(engine.RUN_SETTINGS)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_example_config_runs(path, tmp_path):
    assert main(["simulate", "--config", str(path), "--slots", "5",
                 "--out", str(tmp_path / "run")]) == 0


def test_readme_names_every_run_file_and_the_metrics_header(tmp_path):
    sc = engine.scenario_one(policy="drlh:8", seed=1, total_slots=3)
    log = engine.run_scenario(SystemConfig(), sc)
    engine.write_run_outputs(tmp_path, log, sc.apply(SystemConfig()), sc)
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Run directory contents"):text.index("## Config file")]
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 14
    assert [name for name in files if f"`{name}`" not in section] == []
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert re.findall(r"^  (slot,\S*)$", section, re.M) == [header]


def test_readme_names_in_src_modules_exist():
    # every `module.attr` or `module.attr.attr` in backticks whose module is
    # one of src/semoff's names something the module has
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = [(module, path) for module, path in re.findall(r"`(\w+)\.(\w+(?:\.\w+)?)`", text)
             if module in _MODULES]
    assert len(names) >= 10
    absent, missing = object(), []
    for module, path in names:
        obj = importlib.import_module(f"semoff.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(f"{module}.{path}")
    assert missing == []


def _subcommand_flags() -> dict[str, set[str]]:
    """Each `semoff` subcommand's option strings, as `cli.build_parser` builds them."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions) for name, sub in commands.choices.items()}


def test_readme_flags_are_accepted_by_the_cli():
    # a flag on a `semoff <command>` line by that command; a backticked flag
    # in the prose by some command
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    flags = _subcommand_flags()
    lines = re.findall(r"^semoff (\w+)(.*)$", text, re.M)
    assert {command for command, _ in lines} == set(flags)
    unknown = [(command, flag) for command, rest in lines
               for flag in re.findall(r"--[\w-]+", rest.partition("#")[0])
               if flag not in flags[command]]
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    quoted = re.findall(r"--[\w-]+", " ".join(re.findall(r"`([^`]+)`", prose)))
    assert len(quoted) >= 10
    unknown += [("any", flag) for flag in quoted if not any(flag in f for f in flags.values())]
    assert unknown == []


_MODULES = {path.stem for path in (ROOT / "src" / "semoff").glob("*.py")}


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


def _bindings(statements) -> dict[str, tuple]:
    """What the names that `statements` import are bound to (function bodies
    aside): ("module", m) for a module of src/semoff, ("def", m, name) for a
    name imported from one, ("foreign",) for anything else."""
    out: dict[str, tuple] = {}
    stack = list(statements)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = (
                    ("module", "__init__") if a.name == "semoff" else ("foreign",))
        elif isinstance(node, ast.ImportFrom):
            if node.level:   # relative: from src/semoff
                source = node.module or "__init__"
            elif node.module == "semoff" or (node.module or "").startswith("semoff."):
                source = node.module.partition(".")[2] or "__init__"
            else:
                source = None
            for a in node.names:
                name = a.asname or a.name
                if source is None:
                    out[name] = ("foreign",)
                elif source == "__init__" and a.name in _MODULES:
                    out[name] = ("module", a.name)
                else:
                    out[name] = ("def", source, a.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _locals(fn: ast.FunctionDef | ast.Lambda) -> set[str]:
    """The names a function binds itself, imports aside: parameters,
    assignment targets, loop, `with` and `except` names, nested definitions."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.arguments)):
            stack.extend(ast.iter_child_nodes(node))
    return names


class _Reader:
    """What code reads, given each src/semoff module's module-level bindings:
    (module, name) for a top-level definition of a src/semoff module, found
    through the imports in scope (re-exports followed), and ("*", attr) for
    any other attribute read (a method of some class: types are not
    resolved). An attribute of a module outside src/semoff reads nothing,
    nor does a name that an enclosing function binds. A string reads the
    attribute of that name of each src/semoff module in scope (the benchmark
    wraps attributes by name) and any method of that name."""

    def __init__(self, scopes: dict[str, dict[str, tuple]]):
        self.scopes = scopes

    def resolve(self, target) -> set[tuple]:
        """The definition a binding names, re-exports followed."""
        for _ in range(len(self.scopes)):
            if target is None or target[0] != "def":
                break
            _, module, name = target
            again = self.scopes.get(module, {}).get(name)
            if again is None or again == target or again[0] != "def":
                return {(module, name)}
            target = again
        return set()

    def function(self, fn, names: dict, local: frozenset) -> tuple[list, dict, frozenset]:
        """A function's body with the bindings and locals it runs under."""
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        imported = _bindings(body)
        return body, {**names, **imported}, local | (_locals(fn) - set(imported))

    def reads(self, nodes, names: dict, local: frozenset = frozenset(),
              skip: frozenset = frozenset()) -> set[tuple]:
        out: set[tuple] = set()
        stack = [(node, names, local) for node in nodes]
        while stack:
            node, names, local = stack.pop()
            if node in skip:
                continue
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                # decorators and defaults are read where it is defined, the body
                # whenever it runs
                at_definition = node.args.defaults + node.args.kw_defaults + getattr(
                    node, "decorator_list", [])
                stack += [(d, names, local) for d in at_definition if d is not None]
                body, inner, inner_local = self.function(node, names, local)
                stack += [(stmt, inner, inner_local) for stmt in body]
                continue
            if isinstance(node, ast.Name) and node.id not in local:
                out |= self.resolve(names.get(node.id))
            elif isinstance(node, ast.Attribute):
                base = node.value
                target = (names.get(base.id) if isinstance(base, ast.Name)
                          and base.id not in local else None)
                if target is not None and target[0] == "module":
                    out |= self.resolve(("def", target[1], node.attr))
                elif target != ("foreign",):
                    out.add(("*", node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(("*", node.value))
                for target in names.values():
                    if target[0] == "module":
                        out |= self.resolve(("def", target[1], node.value))
            stack.extend((child, names, local) for child in ast.iter_child_nodes(node))
        return out


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    # test-only helpers belong in tests/: each top-level function, class or
    # method of src/semoff must be read by code that runs outside the tests,
    # taken to a fixed point: module-level code of src/semoff (class bodies
    # included, function bodies not), scripts/, the benchmark's worker, and
    # the body of a definition that is itself read so (a dunder method is
    # read with its class). A top-level definition is read only as itself:
    # by its bare name in its module or where it is imported, or as an
    # attribute of its module
    sources = sorted((ROOT / "src" / "semoff").glob("*.py"))
    users = sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "perfbench" / "worker.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources + users}
    scopes = {path.stem: {name: ("def", path.stem, name)
                          for name, _ in _definitions(trees[path]) if "." not in name}
              for path in sources}
    for path in sources:
        scopes[path.stem].update(_bindings(trees[path].body))
    reader = _Reader(scopes)
    reached = set().union(*(reader.reads(trees[path].body, _bindings(trees[path].body))
                            for path in users))
    bodies = {}   # (module, qualname) -> what the definition's body reads
    for path in sources:
        scope = scopes[path.stem]
        definitions = _definitions(trees[path])
        functions = frozenset(node for _, node in definitions
                              if isinstance(node, ast.FunctionDef))
        reached |= reader.reads(trees[path].body, scope, skip=functions)
        for node in trees[path].body:   # the package's public names
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                for name in ast.literal_eval(node.value):
                    reached |= reader.resolve(scope.get(name))
        for qualname, node in definitions:
            if isinstance(node, ast.FunctionDef):
                reached |= reader.reads([d for d in node.decorator_list + node.args.defaults
                                         + node.args.kw_defaults if d is not None], scope)
                bodies[path.stem, qualname] = reader.reads(
                    *reader.function(node, scope, frozenset()))
            else:
                bodies[path.stem, qualname] = set()

    def is_read(module: str, qualname: str) -> bool:
        owner, _, name = qualname.rpartition(".")
        if not owner:
            return (module, name) in reached
        if name.startswith("__") and name.endswith("__"):
            return (module, owner) in reached
        return ("*", name) in reached

    while True:
        counted = [key for key in bodies if is_read(*key)]
        if not counted:
            break
        for key in counted:
            reached |= bodies.pop(key)
    unused = [f"{module}.py: {qualname}" for module, qualname in sorted(bodies)]
    assert not unused, f"defined in src/semoff but used only by tests: {unused}"
