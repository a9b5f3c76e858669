"""The stdout of every command-line example in README.md, in both formats.

Each ``localarith ...`` line of the README's ``sh`` blocks runs once
as written and once more with ``--format json`` (or without it, when the
example asks for JSON).  ``reproduce --all`` takes no ``--format`` and
``tests/golden/reproduce_all.txt`` already pins it, so it is left out.
Every example must exit 0 with nothing on stderr.  Regenerate the pin
with

    PYTHONPATH=src python tests/cli_outputs.py > tests/golden/cli_outputs.txt

which calls ``localarith.cli.main`` in process, or run each example
through an installed console script instead with

    python tests/cli_outputs.py localarith

``tests/test_cli.py`` compares the in-process output with the pin.
"""

from __future__ import annotations

import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def examples() -> list[list[str]]:
    """The argv of each README example, without the program name."""
    argvs, in_shell = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_shell = line == "```sh"
        elif in_shell and line.startswith("localarith "):
            argv = shlex.split(line, comments=True)[1:]
            if argv[0] != "reproduce":
                argvs.append(argv)
    return argvs


def _formats(argv):
    """argv in text, then in JSON."""
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    return [argv, argv + ["--format", "json"]]


def argvs() -> list[list[str]]:
    return [variant for argv in examples() for variant in _formats(argv)]


def _in_process(argv) -> str:
    from localarith.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{shlex.join(argv)} exited {code}")
    return out.getvalue()


def _console_script(command):
    def run(argv) -> str:
        proc = subprocess.run([command, *argv], capture_output=True, text=True, timeout=60)
        if proc.returncode != 0 or proc.stderr:
            raise RuntimeError(f"{shlex.join(argv)} exited {proc.returncode}: {proc.stderr}")
        return proc.stdout
    return run


def render(run=_in_process) -> str:
    """``$ localarith <argv>`` then its stdout, for every example."""
    return "".join(f"$ localarith {shlex.join(argv)}\n{run(argv)}" for argv in argvs())


def main() -> None:
    os.environ.pop("PADIC_PREC", None)  # the examples run at the default precision
    sys.stdout.write(render(_console_script(sys.argv[1]) if len(sys.argv) > 1 else _in_process))


if __name__ == "__main__":
    main()
