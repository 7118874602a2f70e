"""Pinned artifact digests of small ``cybermdp`` runs.

The runs cover every artifact ``compare`` writes on the FTP gauntlet, the
``--protocols`` sweep curves included, with and without a ``--protocol``
restriction (whose headline variants are also sweep entries), every file
of a tabular and of a DQN ``train`` there, every file of a DQN ``train``
on the ``desk`` preset, the documents ``build`` prints in reward and
state mode, the graphs ``gen`` prints for both presets and their compiled
processes, the raw visit sequences of greedy rollouts on ``desk``
(whose stay-put order ``metrics.json`` only counts), and the trained
action values of hidden-layer-free DQN runs, whose steps hold no matrix
product for a BLAS build to reorder.  A refactor that
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
from cybermdp.graph import Protocol
from cybermdp.mdp import build_cvss_mdp, slot_values, value_iteration
from cybermdp.netgen import generate, plant_gauntlet
from cybermdp.solver import TabularQ, TrainConfig, train
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

# What ``gen --preset P`` prints, and what ``build`` prints for that graph
# with no flags and with ``--mode state --gamma 0.999``: a pin on the
# generator at both preset scales and on the compiled process.
GEN_BUILD_GOLDEN = {
    "desk": {
        "gen": "220d746e0ee90fa49b6f37108a82923ad35d573d1033883cb070b637364f6291",
        "build": "0e5d50715e31122851d35924996c67051d3868b7552e961ccf42a8d66600b6e4",
        "build state 0.999": (
            "46fcf25b3a50bfa95371a38bbddb9640c75cec6ab3ccf5f736bcdeff0cb675c1"
        ),
    },
    "enterprise": {
        "gen": "cbd108bb3741b0d3151ae0200f18e4f464fc39552d260f91d9f3708a689c3d89",
        "build": "e621b14899a743e056e825eb86fe4b88ae32f024608e0fb5b30e125826c0e5eb",
        "build state 0.999": (
            "eda5b991a1cf5dd6d4ef3719fec4f4fc1e1af9ff0503e3ae3dda734139c62e68"
        ),
    },
}

# 20 greedy rollouts (rng seeds 0-19, 200-step cap) on the state-mode
# ``desk`` process under its exact action values: one line per rollout of
# the visited states, hops, repr of the total reward and the reached flag.
ROLLOUT_GOLDEN = "d2a9d368928283efc6f50fe305d630c803b94f734acba8260276d740c4cb734b"

# sha256 of TrainResult.q.values bytes after 8 DQN episodes (at most 150
# steps, target sync every 40, learning rate 0.01, gamma 0.9) with no
# hidden layer.  The DQN_GOLDEN pins above hash no action value, so these
# are what fixes the network's last bits.  desk seed 1 also fixes the
# order in which a row's repeated samples are summed: a state appears
# three or more times in some of its batches.
DQN_VALUES_GOLDEN = {
    ("gauntlet", 0): "75144ad153251988e2df70e928788bd4349d31afdd98979498d23c896aebf0a3",
    ("gauntlet", 1): "550cae78873a9138fec328126b0d10ebc93dbf70eea6bc6d2710712781df5b88",
    ("gauntlet", 2): "8e6298b27b38559831bb188df971b8b5209a68322f943a66d1e192c41d34c624",
    ("desk", 0): "a4927a81a73e990a9114907937553eeb72d73be936055ebebc39875d7c80c6f8",
    ("desk", 1): "d7c12d31d969edaf764cea24092a1214de9be3354837ecc43a67ec2365a34327",
    ("desk", 2): "f0ce9da77e2c9bc47a5239bc39054c97e5a45783defc1063e6ec7e8e09f645b0",
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


@pytest.mark.parametrize("preset", sorted(GEN_BUILD_GOLDEN))
def test_gen_and_build_documents_are_byte_identical(tmp_path, monkeypatch, capsys, preset):
    monkeypatch.chdir(tmp_path)

    def stdout_digest(argv):
        capsys.readouterr()
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()

    assert main(["gen", "--preset", preset, "--out", "g.json"]) == 0
    digests = {
        "gen": stdout_digest(["gen", "--preset", preset]),
        "build": stdout_digest(["build", "g.json"]),
        "build state 0.999": stdout_digest(
            ["build", "g.json", "--mode", "state", "--gamma", "0.999"]
        ),
    }
    assert digests == GEN_BUILD_GOLDEN[preset]


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


@pytest.mark.parametrize("graph_name, seed", sorted(DQN_VALUES_GOLDEN))
def test_dqn_values_without_hidden_layers_are_byte_identical(graph_name, seed):
    if graph_name == "gauntlet":
        graph = plant_gauntlet(PRESETS["desk"], frozenset({Protocol.FTP}))
    else:
        graph = generate(PRESETS[graph_name])
    cfg = TrainConfig(
        episodes=8, algorithm="dqn", max_steps_per_episode=150, learning_rate=0.01,
        target_sync_interval=40, hidden_layers=(), seed=seed,
    )
    values = train(build_cvss_mdp(graph, gamma=0.9), cfg).q.values
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == DQN_VALUES_GOLDEN[graph_name, seed], (
        "trained DQN values moved; this pin assumes numpy's axis-0 sum adds "
        "a batch's rows in order, the one reduction left in a step without "
        "a hidden layer"
    )
