"""Pinned artifact digests of one small ``cybermdp compare`` run.

The run covers every artifact ``compare`` writes, the ``--protocols`` sweep
curves included.  A refactor that claims to leave outputs unchanged must
keep these digests; a change that alters results on purpose must update
them and say why.  The run happens inside ``tmp_path`` with relative paths,
because the manifest records the graph path as given.
"""

from __future__ import annotations

import hashlib

import pytest

from cybermdp.cli import main

GOLDEN = {
    "curve_reward_w-2.csv": (
        "3a85f8fb5a6c63d9dfb369519554515558ab8f4c4aaf109b27cd2c3770001961"
    ),
    "curve_reward_w-2_ftp.csv": (
        "3a85f8fb5a6c63d9dfb369519554515558ab8f4c4aaf109b27cd2c3770001961"
    ),
    "curve_reward_w-2_http.csv": (
        "a1c574a8a79038547b7d1417741b74325c55c824ccc3a32316b4a343c08fd29b"
    ),
    "curve_reward_w-2_smtp.csv": (
        "a1c574a8a79038547b7d1417741b74325c55c824ccc3a32316b4a343c08fd29b"
    ),
    "curve_reward_w-2_ssh.csv": (
        "a1c574a8a79038547b7d1417741b74325c55c824ccc3a32316b4a343c08fd29b"
    ),
    "curve_state.csv": (
        "61d2d16d2c24ca3f1fc2a4e5c29388c0a597681a691651659a0006a573d76747"
    ),
    "curve_state_ftp.csv": (
        "61d2d16d2c24ca3f1fc2a4e5c29388c0a597681a691651659a0006a573d76747"
    ),
    "curve_state_http.csv": (
        "61d2d16d2c24ca3f1fc2a4e5c29388c0a597681a691651659a0006a573d76747"
    ),
    "curve_state_smtp.csv": (
        "61d2d16d2c24ca3f1fc2a4e5c29388c0a597681a691651659a0006a573d76747"
    ),
    "curve_state_ssh.csv": (
        "61d2d16d2c24ca3f1fc2a4e5c29388c0a597681a691651659a0006a573d76747"
    ),
    "curve_vanilla.csv": (
        "a1c574a8a79038547b7d1417741b74325c55c824ccc3a32316b4a343c08fd29b"
    ),
    "manifest.json": (
        "cd0f33f8a026796d580b9f2d502243483c6737ff12e14bb5ef300500a2a49ae8"
    ),
    "metrics.json": (
        "f83aaaf520e82fd54fa58b232e97ccefbaa2a34a3fb894cadc23364f4256a3b0"
    ),
    "path_reward_w-2.dot": (
        "0e461ebdae4f4381075138009bf5e2f5bde4ce6c19720f21ad69ff7010e77768"
    ),
    "path_state.dot": (
        "7d926954f60bc7c7e21af1fba5bb73f6fabcbc5a512dd61dd3733ebeaad8277c"
    ),
    "path_vanilla.dot": (
        "0e461ebdae4f4381075138009bf5e2f5bde4ce6c19720f21ad69ff7010e77768"
    ),
    "summary.csv": (
        "955f479b6149ac72c13b73087367c710334a79a59f84325747cf2b56a114ee54"
    ),
}


@pytest.fixture
def compare_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--gauntlet", "ftp", "--out", "gauntlet.json"]) == 0
    argv = [
        "compare", "gauntlet.json", "--out", "run", "--protocols",
        "--seed", "2", "--episodes", "150", "--gamma", "0.999",
        "--eval-interval", "10",
    ]
    assert main(argv) == 0
    return tmp_path / "run"


def test_compare_artifacts_are_byte_identical(compare_dir, capsys):
    capsys.readouterr()
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(compare_dir.iterdir())
    }
    assert digests == GOLDEN
