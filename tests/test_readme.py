"""README's command-line examples run as written.

The `sh` block under "Command line" writes a graphon file with a heredoc
and then calls `hamdec`; each call runs here through `cli.main` in a
scratch directory and must exit 0.
"""

import re
import shlex
from pathlib import Path

from hamdec import cli

README = Path(__file__).resolve().parents[1] / "README.md"
HEREDOC = re.compile(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", re.M | re.S)


def _example_block() -> str:
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return next(b for b in blocks if "hamdec " in b)


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    block = _example_block()
    monkeypatch.chdir(tmp_path)
    files = HEREDOC.findall(block)
    assert files, "the example block writes no input file"
    for name, body in files:
        (tmp_path / name).write_text(body, encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("hamdec ")
    ]
    assert commands, "the example block runs no hamdec command"
    for argv in commands:
        assert cli.main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
