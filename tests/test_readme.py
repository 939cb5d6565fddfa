"""The README's command-line examples print exactly what the README shows.

Every line of README.md that starts with "$ atomlab " is run through
cli.main; the lines after it, up to the next command or the end of the code
block, are its expected stdout.
"""

import shlex
from pathlib import Path

import pytest

from atomlab import cli

_README = Path(__file__).resolve().parent.parent / "README.md"
_PROMPT = "$ atomlab "


def _examples() -> list[tuple[str, str]]:
    lines = _README.read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith(_PROMPT):
            continue
        shown = []
        for follow in lines[i + 1:]:
            if follow.startswith(("$", "```")):
                break
            shown.append(follow + "\n")
        out.append((line[len(_PROMPT):], "".join(shown)))
    return out


_EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(_EXAMPLES) >= 4


@pytest.mark.parametrize("command, shown", _EXAMPLES,
                         ids=[command for command, _ in _EXAMPLES])
def test_readme_example(capsys, command, shown):
    code = cli.main(shlex.split(command))
    assert code == 0
    assert capsys.readouterr().out == shown
