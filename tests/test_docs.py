"""The README's config reference and the example configs stay in step with
the code."""

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
