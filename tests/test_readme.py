"""The README's examples run and print what the README says they print."""

import contextlib
import io
import pathlib
import shlex

import pytest

from beliefmerge.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def code_blocks():
    """(info string, body) of every fenced block in the README."""
    blocks, info, body = [], None, []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            if info is not None:
                body.append(line)
        elif info is None:
            info, body = line[3:], []
        else:
            blocks.append((info, body))
            info = None
    return blocks


def test_python_quick_start_prints_its_comments():
    (block,) = [body for info, body in code_blocks()
                if info == "python" and any("merge_f1" in line for line in body)]
    expected = [line.split("# ", 1)[1] for line in block if "# " in line]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile("\n".join(block), "README.md", "exec"), {})
    assert len(expected) == 2
    assert printed.getvalue().splitlines() == expected


def shell_examples():
    """(argv, stdout) for every ``$ beliefmerge`` line of the README."""
    examples = []
    for _, body in code_blocks():
        output = None
        for line in body:
            if line.startswith("$ "):
                output = []
                examples.append((shlex.split(line[2:])[1:], output))
            elif output is not None:
                output.append(line + "\n")
    return [(argv, "".join(output)) for argv, output in examples]


SHELL_EXAMPLES = shell_examples()


@pytest.mark.parametrize("argv, output", SHELL_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in SHELL_EXAMPLES])
def test_shell_example(capsys, monkeypatch, argv, output):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == output
