"""The README's self-contained JSON config examples run as documented.

The examples under the estimate, simulate, gdn-bench and kd-loss headers
need no input files; each one goes through ``main`` and must exit 0, so
the documented configs stay in step with the schemas.
"""

import re
from pathlib import Path

import pytest

from lic_hw_kit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("estimate", "simulate", "gdn-bench", "kd-loss")


def _examples():
    """(subcommand, JSON text) for each ```json block under a **name** header."""
    found = []
    command = None
    for part in re.split(r"(^\*\*[\w-]+\*\*|^```json\n.*?^```)", README.read_text(),
                         flags=re.M | re.S):
        if part.startswith("**"):
            command = part.strip("*")
        elif part.startswith("```json") and command in COMMANDS:
            found.append((command, part[len("```json\n"):-len("```")]))
    return found


EXAMPLES = _examples()


def test_every_documented_example_is_found():
    assert [c for c, _ in EXAMPLES] == ["estimate", "simulate", "simulate",
                                        "gdn-bench", "kd-loss"]


@pytest.mark.parametrize("command, text", EXAMPLES,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(EXAMPLES)])
def test_readme_example_runs(command, text, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
