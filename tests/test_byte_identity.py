"""Pinned artifact digests of small ``cybermdp`` runs on the FTP gauntlet.

The runs cover every artifact ``compare`` writes, the ``--protocols`` sweep
curves included, every file of a tabular and of a DQN ``train``, and the
documents ``build`` prints in reward and state mode.  A refactor that
claims to leave outputs unchanged must keep these digests; a change that
alters results on purpose must update them and say why.  The runs happen
inside ``tmp_path`` with relative paths, because a manifest records the
graph path as given.
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


TRAIN_GOLDEN = {
    "curve.csv": "3a85f8fb5a6c63d9dfb369519554515558ab8f4c4aaf109b27cd2c3770001961",
    "manifest.json": "79b9575a32b62f6dd8bd3282a7bd8619db1a45f157393102231c4fcd4a481efe",
    "metrics.json": "4ea47c4df534f5691bb4c355f8797e0847201a681c4b4950af0955ab899fd684",
    "path.dot": "0e461ebdae4f4381075138009bf5e2f5bde4ce6c19720f21ad69ff7010e77768",
    "q.csv": "17f56724bdce8e9cd89d8d4578049c4766b5d46602bdd98b92ceea6648efaac4",
}

DQN_GOLDEN = {
    "curve.csv": "e04a72ce867f0dc50e0b150b7d945e3878467d76ce5ea4fa8c0fee7475405e52",
    "manifest.json": "141bd92edbd53b1b907eb379cb48a66c9ae05cd8aa213181200ca4bbb5618816",
    "metrics.json": "4ea47c4df534f5691bb4c355f8797e0847201a681c4b4950af0955ab899fd684",
    "path.dot": "0e461ebdae4f4381075138009bf5e2f5bde4ce6c19720f21ad69ff7010e77768",
}

BUILD_GOLDEN = {
    ("--mode", "reward", "--w", "-3"): (
        "8a0c3c45ef19b534def26c97769d8945329da5a1b0b2f1e1fc20de3cb2954bd8"
    ),
    ("--mode", "state", "--protocol", "ssh"): (
        "578225ce6042c82d239d8e0d616542321b42b676e3fc37cf5478ce91fdbd01e9"
    ),
}


def _digests(run_dir):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(run_dir.iterdir())
    }


@pytest.fixture
def gauntlet(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--gauntlet", "ftp", "--out", "gauntlet.json"]) == 0
    return "gauntlet.json"


@pytest.fixture
def compare_dir(gauntlet, tmp_path):
    argv = [
        "compare", gauntlet, "--out", "run", "--protocols",
        "--seed", "2", "--episodes", "150", "--gamma", "0.999",
        "--eval-interval", "10",
    ]
    assert main(argv) == 0
    return tmp_path / "run"


def test_compare_artifacts_are_byte_identical(compare_dir, capsys):
    capsys.readouterr()
    assert _digests(compare_dir) == GOLDEN


def test_tabular_train_artifacts_are_byte_identical(gauntlet, tmp_path):
    assert main([
        "train", gauntlet, "--out", "run", "--seed", "2", "--episodes", "150",
        "--gamma", "0.999", "--eval-interval", "10",
    ]) == 0
    assert _digests(tmp_path / "run") == TRAIN_GOLDEN


def test_dqn_train_artifacts_are_byte_identical(gauntlet, tmp_path):
    assert main([
        "train", gauntlet, "--out", "run", "--algorithm", "dqn",
        "--learning-rate", "0.01", "--episodes", "8", "--max-steps", "60",
        "--seed", "4",
    ]) == 0
    assert _digests(tmp_path / "run") == DQN_GOLDEN


@pytest.mark.parametrize("flags", sorted(BUILD_GOLDEN))
def test_build_document_is_byte_identical(gauntlet, capsys, flags):
    capsys.readouterr()
    assert main(["build", gauntlet, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BUILD_GOLDEN[flags]
