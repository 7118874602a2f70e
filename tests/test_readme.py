"""The README's command-line and library examples run as written.

Each ``cybermdp`` line of the README's ``sh`` blocks goes through
``cli.main`` in a fresh directory, in order (later lines read the files
earlier ones write), and the ``python`` block is executed.  Both must
finish within a few seconds together, so the examples stay something a
reader can paste and wait for.
"""

from __future__ import annotations

import re
import shlex
import time
from pathlib import Path

from cybermdp import cli

README = Path(__file__).resolve().parents[1] / "README.md"
# The examples' wall-clock budget, with room for a slow host; on a 2-core
# host they take well under a second.
BUDGET_S = 5.0
RUN_FILES = {"curve.csv", "metrics.json", "path.dot", "q.csv", "manifest.json"}


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def cli_lines() -> list[list[str]]:
    """Every ``cybermdp`` command of the ``sh`` blocks, continuation lines
    joined and comments dropped, as argument lists without the program name."""

    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cybermdp"]:
                commands.append(words[1:])
    return commands


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = cli_lines()
    (library,) = blocks("python")
    assert len(commands) >= 7, commands

    elapsed = 0.0
    for argv in commands:
        start = time.perf_counter()
        assert cli.main(argv) == 0, argv
        elapsed += time.perf_counter() - start
        printed = capsys.readouterr().out
        if "--out" not in argv:
            assert printed, argv
            continue
        out = tmp_path / argv[argv.index("--out") + 1]
        if argv[0] == "train":  # the files its README comment names
            assert RUN_FILES <= {f.name for f in out.iterdir()}, argv
        elif argv[0] == "compare":
            assert {"metrics.json", "manifest.json"} <= {f.name for f in out.iterdir()}
        else:
            assert out.stat().st_size > 0, argv

    start = time.perf_counter()
    exec(compile(library, str(README), "exec"), {"__name__": "readme_example"})
    elapsed += time.perf_counter() - start
    printed = capsys.readouterr().out.splitlines()
    # The library example's three variants: vanilla takes the short route
    # through the firewall, both terrain modes the long open detour.
    hops = {name: int(h) for name, h, _ in map(str.split, printed)}
    assert hops == {"vanilla": 3, "reward_w-2": 7, "state": 7}, printed
    assert elapsed < BUDGET_S, f"README examples took {elapsed:.2f} s"
