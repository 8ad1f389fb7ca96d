"""The safety-ceiling table and its one reader."""
import re
from pathlib import Path

import pytest

import treechild
from treechild.params import CEILINGS, ceiling

SRC = Path(treechild.__file__).resolve().parent


def test_defaults():
    assert CEILINGS == {"WORD": 5, "BLOWUP_N": 8, "BLOWUP_K": 3, "ONECOMP": 200, "GENERAL": 25}
    assert {name: ceiling(name) for name in CEILINGS} == CEILINGS


def test_ceiling_reads_the_environment_at_call_time(monkeypatch):
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "7")
    assert ceiling("WORD") == 7
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "0")
    assert ceiling("WORD") == 0
    monkeypatch.delenv("TREECHILD_WORD_CEILING")
    assert ceiling("WORD") == 5
    for bad in ("", "x", "-2", "1e3"):
        monkeypatch.setenv("TREECHILD_GENERAL_CEILING", bad)
        with pytest.raises(ValueError, match="TREECHILD_GENERAL_CEILING"):
            ceiling("GENERAL")
    with pytest.raises(KeyError):
        ceiling("NOPE")


def test_ceiling_policy_lives_in_params():
    constant = re.compile(r"^\s*\w*_CEILING\s*[:=]", re.MULTILINE)
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "params.py" in modules
    for path in modules:
        if path.name == "params.py":
            continue
        text = path.read_text()
        assert "os.environ" not in text, path.name
        assert not constant.search(text), path.name
