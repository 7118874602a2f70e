"""Pinned artifact digests of small ``cybermdp`` runs.

The runs cover every artifact ``compare`` writes on the FTP gauntlet, the
``--protocols`` sweep curves included, with and without a ``--protocol``
restriction (whose headline variants are also sweep entries), every file
of a tabular and of a DQN ``train`` there, every file of a DQN ``train``
on the ``desk`` preset, the documents ``build`` prints in reward and
state mode, and the raw visit sequences of greedy rollouts on ``desk``
(whose stay-put order ``metrics.json`` only counts).  A refactor that
claims to leave outputs unchanged must keep these digests; a change that
alters results on purpose must update them and say why.  The runs happen
inside ``tmp_path`` with relative paths, because a manifest records the
graph path as given.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cybermdp.cli import PRESETS, main
from cybermdp.evaluate import rollout_greedy
from cybermdp.mdp import build_cvss_mdp, slot_values, value_iteration
from cybermdp.netgen import generate
from cybermdp.solver import TabularQ
from cybermdp.terrain import TerrainConfig, TerrainMode, apply_terrain

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

# ``compare --protocols --protocol smtp``: the restricted reward and state
# variants are headline variants and sweep entries at once.
SMTP_GOLDEN = {
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
        "9d63b5de4930ebdd003c7606cb8be9e7311720923edc2ca021ec4f3725d480d0"
    ),
    "metrics.json": (
        "730f3812b95b14010677bec85d902d63f88b5a0030fb4c66898ce357088c1219"
    ),
    "path_reward_w-2_smtp.dot": (
        "0e461ebdae4f4381075138009bf5e2f5bde4ce6c19720f21ad69ff7010e77768"
    ),
    "path_state_smtp.dot": (
        "7d926954f60bc7c7e21af1fba5bb73f6fabcbc5a512dd61dd3733ebeaad8277c"
    ),
    "path_vanilla.dot": (
        "0e461ebdae4f4381075138009bf5e2f5bde4ce6c19720f21ad69ff7010e77768"
    ),
    "summary.csv": (
        "25e4823c9d02730c3bf560bde713e72d5483c9ef383a49ba127bb5012d9e53ab"
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

# The desk preset has many more states than the gauntlet, so its batches
# spread over many first-layer rows.
DESK_DQN_GOLDEN = {
    "curve.csv": "29b855d8233a4752a43dc3febab359f091577b2a0c69ba05e901b31479847053",
    "manifest.json": "e1aaf4fed5f404548015f49e37215230952c852309c8bfe44da5ab4b9649348c",
    "metrics.json": "ac1f5c030b48eb50d38d5ee6779c2197f493c8b825da872e832a3dac1a43b6e0",
    "path.dot": "453f2078b5cb7e81bb4ef16d238cffac73e4ab88672671340e5b0b7ac55a867c",
}

BUILD_GOLDEN = {
    ("--mode", "reward", "--w", "-3"): (
        "8a0c3c45ef19b534def26c97769d8945329da5a1b0b2f1e1fc20de3cb2954bd8"
    ),
    ("--mode", "state", "--protocol", "ssh"): (
        "578225ce6042c82d239d8e0d616542321b42b676e3fc37cf5478ce91fdbd01e9"
    ),
}


# 20 greedy rollouts (rng seeds 0-19, 200-step cap) on the state-mode
# ``desk`` process under its exact action values: one line per rollout of
# the visited states, hops, repr of the total reward and the reached flag.
ROLLOUT_GOLDEN = "d2a9d368928283efc6f50fe305d630c803b94f734acba8260276d740c4cb734b"


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


COMPARE_ARGV = [
    "--out", "run", "--protocols", "--seed", "2", "--episodes", "150",
    "--gamma", "0.999", "--eval-interval", "10",
]


def test_compare_artifacts_are_byte_identical(gauntlet, tmp_path):
    assert main(["compare", gauntlet, *COMPARE_ARGV]) == 0
    assert _digests(tmp_path / "run") == GOLDEN


def test_restricted_compare_artifacts_are_byte_identical(gauntlet, tmp_path):
    assert main(["compare", gauntlet, *COMPARE_ARGV, "--protocol", "smtp"]) == 0
    assert _digests(tmp_path / "run") == SMTP_GOLDEN


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


def test_desk_dqn_train_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--preset", "desk", "--out", "desk.json"]) == 0
    assert main([
        "train", "desk.json", "--out", "run", "--algorithm", "dqn",
        "--learning-rate", "0.01", "--episodes", "12", "--max-steps", "150",
        "--seed", "2",
    ]) == 0
    assert _digests(tmp_path / "run") == DESK_DQN_GOLDEN


@pytest.mark.parametrize("flags", sorted(BUILD_GOLDEN))
def test_build_document_is_byte_identical(gauntlet, capsys, flags):
    capsys.readouterr()
    assert main(["build", gauntlet, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BUILD_GOLDEN[flags]


def test_rollout_visit_sequences_are_byte_identical():
    graph = generate(PRESETS["desk"])
    mdp = apply_terrain(build_cvss_mdp(graph), graph, TerrainConfig(TerrainMode.STATE))
    q = TabularQ(
        action_offsets=mdp.action_offsets,
        values=slot_values(mdp, value_iteration(mdp).values),
    )
    lines = []
    for seed in range(20):
        trace = rollout_greedy(mdp, q, np.random.default_rng(seed), max_steps=200)
        lines.append(
            f"{','.join(trace.visited)}|{trace.hops}|{trace.total_reward!r}"
            f"|{trace.reached_terminal}"
        )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == ROLLOUT_GOLDEN
