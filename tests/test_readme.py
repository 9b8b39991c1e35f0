import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    # every public name the tour shows must still import and run
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md (Library quick tour)", "exec"), namespace)
    assert namespace["l1_ball_count"](2, 3) == 25
    assert namespace["check_log_concavity"](6, 2000) == []


def _cli_examples():
    """The README's CLI examples that need no input file, one argument list
    each, with `a|b` alternatives expanded and `[...]` options dropped."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", text[text.index("## CLI"):], re.DOTALL).group(1)
    examples = []
    for line in block.splitlines():
        command = re.sub(r"\[.*?\]", "", line.split("#")[0]).split()
        if command[:1] != ["maxvar"] or "--input" in command:
            continue
        alternatives = [i for i, a in enumerate(command) if "|" in a]
        if alternatives:
            i = alternatives[0]
            examples += [command[1:i] + [a] + command[i + 1:] for a in command[i].split("|")]
        else:
            examples.append(command[1:])
    return examples


@pytest.mark.parametrize(
    "args",
    _cli_examples() + [["constant", "--kind", "centered", "--dim", "2", "--terms", "10000"]],
    ids=" ".join,
)
def test_documented_commands_fit_the_default_cap(args):
    env = {k: v for k, v in os.environ.items() if k != "MAXVAR_ENUM_CAP"}
    r = subprocess.run([sys.executable, "-m", "maxvar.cli", *args],
                       capture_output=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
