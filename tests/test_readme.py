"""Every example in README.md runs: each ``stable-smallball`` line through the CLI
entry point, each ``python`` block by ``exec``, with the ``ini`` and ``json``
blocks written as the ``run.ini`` and ``knots.json`` the lines refer to."""

import re
import shlex
from pathlib import Path

import pytest

from stable_smallball.cli import _COMMANDS, _options, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)
LINES = [line for line in README.splitlines() if line.startswith("stable-smallball ")]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
FILES = {"ini": "run.ini", "json": "knots.json"}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for lang, body in BLOCKS:
        if lang in FILES:
            (tmp_path / FILES[lang]).write_text(body)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STABLE_SMALLBALL_OUT", str(tmp_path))
    return tmp_path


def test_examples_found():
    langs = [lang for lang, _ in BLOCKS]
    assert all(langs.count(lang) == 1 for lang in FILES)
    assert len(LINES) >= 10 and PYTHON


@pytest.mark.parametrize("line", LINES)
def test_cli_line(workdir, line):
    assert main(shlex.split(line, comments=True)[1:]) == 0


@pytest.mark.parametrize("index", range(len(PYTHON)))
def test_python_block(workdir, index):
    exec(compile(PYTHON[index], "README.md", "exec"), {})


def test_flag_table_lists_each_subcommand_settings():
    rows = dict(re.findall(r"^\| `([a-z -]+)` \| `(--[^`]*)` \|$", README, flags=re.M))
    assert {name.replace(" ", ".") for name in rows} == set(_COMMANDS)
    for name, flags in rows.items():
        keys = [flag[2:].replace("-", "_") for flag in flags.split()]
        assert keys + ["out"] == list(_options(name.replace(" ", ".")))
