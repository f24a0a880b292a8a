"""The library example and the command lines in README.md run as printed."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ghzsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"),
                                                    env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "0.5892795564400504"


def command_lines() -> list[str]:
    """The `ghzsim` lines of the "Command line" section's sh block, continuations joined."""
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.DOTALL).group(1)
    return [line for line in re.sub(r" *\\\n *", " ", block).splitlines()
            if line.startswith("ghzsim ")]


def test_command_line_section_lists_every_subcommand():
    assert {line.split()[1] for line in command_lines()} \
        == {"reflection", "efficiency-map", "table1", "analyze", "swap"}


@pytest.mark.parametrize("line", command_lines())
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where the lines' --out files go
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
