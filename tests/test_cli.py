"""Command-line tests: exit codes, artifacts, manifest reproducibility."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cybermdp import cli, solver
from cybermdp import graph as graph_module
from cybermdp.cli import main
from cybermdp.graph import Protocol, parse_attack_graph, serialize_attack_graph
from cybermdp.netgen import plant_gauntlet

from conftest import DESK_PARAMS

SMALL_TOPOLOGY = {
    "num_subnets": 2,
    "hosts_per_subnet": 5,
    "intra_edge_prob": 0.2,
    "inter_edge_count": 2,
    "firewall_prob": 0.6,
    "seed": 3,
}

FAST_TRAIN = ["--episodes", "40", "--learning-rate", "0.4", "--max-steps", "300"]

# A DQN run whose values overflow a few episodes in, after the output
# directory exists.
DIVERGING_DQN = [
    "--algorithm", "dqn", "--learning-rate", "0.2", "--episodes", "8",
    "--max-steps", "60", "--seed", "4",
]

CVSS = {"base": 5.0, "exploitability": 5.0, "complexity": "low"}


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    assert main(["gen", "--config", _json_file(tmp_path, SMALL_TOPOLOGY),
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def gauntlet_file(tmp_path):
    path = tmp_path / "gaunt.json"
    assert main(["gen", "--gauntlet", "ftp", "--out", str(path)]) == 0
    return path


def _json_file(tmp_path, doc, name="doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _rewriting(graph_path, original):
    """``original`` wrapped to rewrite the graph file before it runs, as an
    edit made while a run is under way would."""

    def call(*args, **kwargs):
        graph_path.write_bytes(b" " + graph_path.read_bytes())
        return original(*args, **kwargs)

    return call


def _input_digest(run_dir) -> str:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    (digest,) = manifest["inputs"].values()
    return digest


class TestValidate:
    def test_clean_graph(self, graph_file, capsys):
        assert main(["validate", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "vertices" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        doc = {
            "version": "1",
            "initial": "a",
            "terminal": "b",
            "vertices": [
                {"id": "a", "kind": "component", "label": "", "cvss": CVSS},
                {"id": "b", "kind": "component", "label": "", "cvss": CVSS},
            ],
            "edges": [["a", "b"], ["a", "ghost"]],
        }
        assert main(["validate", _json_file(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "ghost" in out

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_wrong_document_shape_exit_two(self, tmp_path):
        assert main(["validate", _json_file(tmp_path, ["a", "list"])]) == 2

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("vertices", 0, "cvss"), 5, "vertices[0].cvss: cvss must be an object"),
            (("vertices", 1, "firewall"), ["ftp"], "firewall must be an object"),
            (("initial",), 1, "initial and terminal must be strings"),
            (("terminal",), None, "initial and terminal must be strings"),
            (("vertices",), {}, "vertices must be a list"),
            (("edges",), "entry,target", "edges must be a list"),
        ],
    )
    def test_mistyped_document_field_exit_two(self, tmp_path, capsys, path, value, message):
        doc = copy.deepcopy(GAUNTLET_DOC)
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        assert main(["validate", _json_file(tmp_path, doc)]) == 2
        assert message in capsys.readouterr().err


class TestGen:
    def test_stdout_roundtrip(self, capsys):
        assert main(["gen", "--preset", "desk", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        graph = parse_attack_graph(text)
        assert graph.vertex_count > 10

    def test_preset_and_config_conflict(self, tmp_path):
        cfg = _json_file(tmp_path, SMALL_TOPOLOGY)
        assert main(["gen", "--preset", "desk", "--config", cfg]) == 1

    def test_config_with_weight_maps(self, tmp_path, capsys):
        doc = dict(SMALL_TOPOLOGY)
        doc["protocol_weights"] = {"ftp": 1.0, "ssh": 3.0}
        doc["complexity_weights"] = {"low": 1.0}
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 0
        graph = parse_attack_graph(capsys.readouterr().out)
        for v in graph.vertices:
            assert v.cvss.complexity.value == "low"
            if v.firewall is not None:
                assert v.firewall.blocked <= {Protocol.FTP, Protocol.SSH}

    def test_weight_map_keys_are_case_insensitive(self, tmp_path, capsys):
        doc = dict(SMALL_TOPOLOGY, complexity_weights={"LOW": 1.0}, protocol_weights={" SSH": 1.0})
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 0
        graph = parse_attack_graph(capsys.readouterr().out)
        for v in graph.vertices:
            assert v.cvss.complexity.value == "low"
            if v.firewall is not None:
                assert v.firewall.blocked == {Protocol.SSH}

    def test_unknown_complexity_weight_key_exit_one(self, tmp_path, capsys):
        doc = dict(SMALL_TOPOLOGY, complexity_weights={"bogus": 1.0})
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "unknown complexity 'bogus'; expected one of ['low', 'medium', 'high']" in err

    def test_unknown_config_key_exit_one(self, tmp_path):
        doc = dict(SMALL_TOPOLOGY, bogus=1)
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 1

    def test_non_object_config_exit_two(self, tmp_path, capsys):
        assert main(["gen", "--config", _json_file(tmp_path, [SMALL_TOPOLOGY])]) == 2
        assert "topology config: expected an object" in capsys.readouterr().err

    def test_bad_param_value_exit_one(self, tmp_path):
        doc = dict(SMALL_TOPOLOGY, intra_edge_prob=2.0)
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"hosts_per_subnet": 1_000_000}, "hosts_per_subnet must be at most 4,096"),
            ({"num_subnets": 2**70}, "over 100,000"),
        ],
    )
    def test_topology_over_the_size_caps_exit_one(self, tmp_path, capsys, override, message):
        # Let through, generate would build subnets until memory ran out.
        doc = dict(SMALL_TOPOLOGY, **override)
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"protocol_weights": [1]},
            {"complexity_weights": 5},
            {"protocol_weights": {"ftp": "heavy"}},
            {"num_subnets": 2.5},
            {"seed": "x"},
            {"seed": 1.5},
            {"num_subnets": True},
            {"complexity_weights": {"low": math.nan, "medium": 1, "high": 1}},
            {"protocol_weights": {"ftp": math.inf}, "firewall_prob": 0},
        ],
    )
    def test_mistyped_config_value_exit_one(self, tmp_path, capsys, override):
        key = next(iter(override))
        doc = dict(SMALL_TOPOLOGY, **override)
        assert main(["gen", "--config", _json_file(tmp_path, doc)]) == 1
        # A wrong type names the config key, a bad weight its map entry.
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err or f"{key}[" in err

    def test_gauntlet_matches_library_fixture(self, gauntlet_file):
        text = gauntlet_file.read_text(encoding="utf-8")
        expected = serialize_attack_graph(
            plant_gauntlet(DESK_PARAMS, {Protocol.FTP})
        )
        # The CLI builds from its own desk preset; the fixture is seed-blind
        # so the two must agree byte for byte.
        assert text == expected

    def test_gauntlet_multi_protocol(self, capsys):
        assert main(["gen", "--gauntlet", "ftp,ssh"]) == 0
        graph = parse_attack_graph(capsys.readouterr().out)
        walled = next(v for v in graph.vertices if v.firewall is not None)
        assert walled.firewall.blocked == {Protocol.FTP, Protocol.SSH}

    def test_gauntlet_bad_protocol_exit_one(self):
        assert main(["gen", "--gauntlet", "gopher"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [["--preset", "enterprise"], ["--config", "CONFIG"], ["--seed", "7"]],
        ids=["preset", "config", "seed"],
    )
    def test_gauntlet_rejects_topology_flags(self, tmp_path, capsys, flags):
        # The fixture is fixed; a flag that would change a generated graph
        # must not be taken silently.
        flags = [_json_file(tmp_path, SMALL_TOPOLOGY) if f == "CONFIG" else f for f in flags]
        out = tmp_path / "net.json"
        assert main(["gen", "--gauntlet", "ftp", *flags, "--out", str(out)]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_seed_changes_output(self, capsys):
        assert main(["gen", "--preset", "desk", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--preset", "desk", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_gen_validate_pipeline(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["gen", "--preset", "desk", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["validate", str(out)]) == 0


class TestBuild:
    def test_stdout_document(self, graph_file, capsys):
        assert main(["build", str(graph_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["gamma", "initial", "terminal", "terrain", "states", "actions"]
        assert doc["gamma"] == 0.9
        assert doc["terrain"]["mode"] == "vanilla"

    def test_terrain_modes_and_file_output(self, graph_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([
            "build", str(graph_file), "--out", str(out),
            "--mode", "state", "--protocol", "ssh",
        ]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["terrain"] == {"mode": "state", "strength": 0.0, "restrict": "ssh"}

    def test_reward_mode_records_strength(self, graph_file, capsys):
        assert main(["build", str(graph_file), "--mode", "reward", "--w", "-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["terrain"] == {"mode": "reward", "strength": -3.0, "restrict": None}

    def test_graph_validated_once(self, graph_file, monkeypatch, capsys):
        # The CLI and build_cvss_mdp both validate; the graph is checked once.
        reachable_set = graph_module.reachable_set
        calls = []
        monkeypatch.setattr(
            graph_module, "reachable_set", lambda *a: calls.append(a) or reachable_set(*a)
        )
        assert main(["build", str(graph_file)]) == 0
        assert len(calls) == 1

    def test_bad_gamma_exit_one(self, graph_file):
        assert main(["build", str(graph_file), "--gamma", "1.5"]) == 1

    def test_positive_w_exit_one(self, graph_file):
        assert main(["build", str(graph_file), "--mode", "reward", "--w", "2"]) == 1

    def test_positive_w_exit_one_in_state_mode(self, graph_file):
        assert main(["build", str(graph_file), "--mode", "state", "--w", "1"]) == 1

    def test_invalid_graph_exit_one(self, tmp_path):
        doc = {
            "version": "1",
            "initial": "a",
            "terminal": "b",
            "vertices": [
                {"id": "a", "kind": "component", "label": "", "cvss": CVSS},
                {"id": "b", "kind": "component", "label": "", "cvss": CVSS},
            ],
            "edges": [["b", "a"]],
        }
        assert main(["build", _json_file(tmp_path, doc)]) == 1


class TestTrain:
    def test_artifacts_and_manifest(self, gauntlet_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--gamma", "0.999", *FAST_TRAIN,
        ]) == 0
        for name in ("curve.csv", "metrics.json", "path.dot", "q.csv", "manifest.json"):
            assert (out / name).is_file(), name
        assert not (out / "FAILED").exists()

        curve = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
        assert curve[0] == "episode,eval_total_reward"
        assert len(curve) == 1 + 40 // 4

        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["variant"] == "reward_w-2"
        assert set(metrics) == {
            "variant", "hops", "distinct_vertices", "total_reward",
            "reward_per_hop", "reached_terminal", "path", "revisited",
        }

        q_rows = (out / "q.csv").read_text(encoding="utf-8").splitlines()
        assert q_rows[0] == "state,action,value"
        assert q_rows[1].startswith("entry,0,")

        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "train"
        assert manifest["graph"] == str(gauntlet_file)
        assert set(manifest["artifacts"]) == {
            "curve.csv", "metrics.json", "path.dot", "q.csv",
        }
        for digest in manifest["artifacts"].values():
            assert digest.startswith("sha256:")
        assert manifest["resolved_config"]["episodes"] == 40

        summary = capsys.readouterr().out
        assert "reward_w-2" in summary and "hops=" in summary

    def test_dqn_variant_skips_q_table(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--algorithm", "dqn", "--episodes", "8", "--max-steps", "60",
        ]) == 0
        assert not (out / "q.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert "q.csv" not in manifest["artifacts"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_marker_on_domain_error(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        # Divergence passes config resolution but fails during training,
        # after the output directory exists.
        code = main(["train", str(gauntlet_file), "--out", str(out), *DIVERGING_DQN])
        assert code == 1
        marker = (out / "FAILED").read_text(encoding="utf-8")
        assert "ConvergenceError" in marker

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rerun_clears_stale_marker(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", str(gauntlet_file), "--out", str(out), *DIVERGING_DQN]) == 1
        assert (out / "FAILED").exists()
        assert main([
            "train", str(gauntlet_file), "--out", str(out), *FAST_TRAIN,
        ]) == 0
        assert not (out / "FAILED").exists()

    def test_positive_w_fails_in_state_mode(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--mode", "state", "--w", "1", *FAST_TRAIN,
        ]) == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--learning-rate", "3", "--learning-rate-decay", "0"],
            ["--learning-rate", "nan"],
            ["--learning-rate-decay", "nan"],
            ["--mode", "state", "--w", "nan"],
        ],
    )
    def test_bad_step_size_or_strength_exit_one(self, gauntlet_file, tmp_path, flags):
        # Accepted, each would leave exploded or NaN values in the artifacts.
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--episodes", "100", "--seed", "1", *flags,
        ]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "train", "compare"])
    def test_negative_seed_names_key(self, gauntlet_file, tmp_path, capsys, command):
        argv = [command, "--seed", "-1"]
        if command != "gen":
            argv += [str(gauntlet_file), "--out", str(tmp_path / "run"), *FAST_TRAIN]
        assert main(argv) == 1
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--learning-rate", "nan"],
            ["--w", "1"],
            ["--episodes", "0"],
            ["--eval-interval", "0"],
            ["--gamma", "2"],
            ["--gamma", "0"],
            ["--gamma", "nan"],
        ],
    )
    def test_range_error_writes_nothing(self, gauntlet_file, tmp_path, capsys, command, flags):
        out = tmp_path / "run"
        argv = [command, str(gauntlet_file), "--out", str(out), "--episodes", "4", *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize(
        "doc, code, message",
        [
            ([{"episodes": 4}], 2, "expected an object"),
            ({"episodes": 4, "bogus": 1}, 1, "unknown config keys: ['bogus']"),
        ],
        ids=["non-object", "unknown-key"],
    )
    def test_bad_config_document_writes_nothing(
        self, gauntlet_file, tmp_path, capsys, command, doc, code, message
    ):
        out = tmp_path / "run"
        cfg = _json_file(tmp_path, doc, "cfg.json")
        assert main([command, str(gauntlet_file), "--out", str(out), "--config", cfg]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_hashes_the_graph_bytes_trained_on(
        self, gauntlet_file, tmp_path, monkeypatch
    ):
        original = gauntlet_file.read_bytes()
        monkeypatch.setattr(cli, "train", _rewriting(gauntlet_file, cli.train))
        out = tmp_path / "run"
        assert main(["train", str(gauntlet_file), "--out", str(out), *FAST_TRAIN]) == 0
        assert gauntlet_file.read_bytes() != original
        assert _input_digest(out) == "sha256:" + hashlib.sha256(original).hexdigest()

    def test_protocol_is_case_insensitive(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--protocol", "FTP", *FAST_TRAIN,
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["resolved_config"]["protocol"] == "ftp"
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["variant"] == "reward_w-2_ftp"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dqn_divergence_exit_one(self, gauntlet_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", str(gauntlet_file), "--out", str(out), *DIVERGING_DQN]) == 1
        assert "diverged" in capsys.readouterr().err
        marker = (out / "FAILED").read_text(encoding="utf-8")
        assert marker.startswith("ConvergenceError:")
        assert not (out / "manifest.json").exists()

    def test_dqn_default_learning_rate_stays_finite(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--algorithm", "dqn", "--episodes", "8", "--max-steps", "60",
            "--seed", "4",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["resolved_config"]["learning_rate"] == 0.01

    def test_step_cap_too_large_to_record_exits_one(self, gauntlet_file, tmp_path, capsys):
        # Training reaches the terminal within the cap; the first evaluation
        # rollout has no room to record 1e11 landings (800 GB).
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--episodes", "4", "--max-steps", "100000000000",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_steps 100000000000 is too large")
        assert err.count("\n") == 1
        assert (out / "FAILED").read_text(encoding="utf-8").startswith("ValueError:")
        assert not (out / "manifest.json").exists()

    def test_state_mode_flag(self, gauntlet_file, tmp_path):
        out = tmp_path / "run"
        assert main([
            "train", str(gauntlet_file), "--out", str(out),
            "--mode", "state", *FAST_TRAIN,
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["variant"] == "state"


class TestCompare:
    def run_compare(self, graph, out, *extra):
        return main([
            "compare", str(graph), "--out", str(out),
            "--gamma", "0.999", *FAST_TRAIN, *extra,
        ])

    def test_artifacts(self, gauntlet_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert self.run_compare(gauntlet_file, out) == 0
        expected = {
            "summary.csv", "metrics.json", "manifest.json",
            "curve_vanilla.csv", "path_vanilla.dot",
            "curve_reward_w-2.csv", "path_reward_w-2.dot",
            "curve_state.csv", "path_state.dot",
        }
        assert {p.name for p in out.iterdir()} == expected

        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "variant,hops,total_reward,reward_per_hop"
        assert [row.split(",")[0] for row in summary[1:]] == [
            "vanilla", "reward_w-2", "state",
        ]

        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert [m["variant"] for m in metrics] == ["vanilla", "reward_w-2", "state"]

        printed = capsys.readouterr().out
        assert printed.count("hops=") == 3

    def test_protocol_sweep_artifacts(self, gauntlet_file, tmp_path):
        out = tmp_path / "cmp"
        assert self.run_compare(gauntlet_file, out, "--protocols") == 0
        names = {p.name for p in out.iterdir()}
        for proto in ("ftp", "smtp", "http", "ssh"):
            assert f"curve_reward_w-2_{proto}.csv" in names
            assert f"curve_state_{proto}.csv" in names

    @pytest.mark.parametrize("extra", [(), ("--protocols",)])
    def test_compiles_the_process_once(self, gauntlet_file, tmp_path, monkeypatch, extra):
        import cybermdp.evaluate

        calls = []
        build = cybermdp.evaluate.build_cvss_mdp

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cybermdp.evaluate, "build_cvss_mdp", counting_build)
        assert self.run_compare(gauntlet_file, tmp_path / "cmp", *extra) == 0
        assert len(calls) == 1

    def test_manifest_reproduces_run_byte_for_byte(self, gauntlet_file, tmp_path):
        first = tmp_path / "cmp1"
        assert self.run_compare(gauntlet_file, first, "--protocols") == 0
        manifest = first / "manifest.json"
        second = tmp_path / "cmp2"
        assert main([
            "compare", str(gauntlet_file), "--out", str(second),
            "--config", str(manifest),
        ]) == 0
        first_files = {p.name: p.read_bytes() for p in first.iterdir()}
        second_files = {p.name: p.read_bytes() for p in second.iterdir()}
        assert first_files == second_files

    def test_manifest_hashes_the_graph_bytes_compared_on(
        self, gauntlet_file, tmp_path, monkeypatch
    ):
        original = gauntlet_file.read_bytes()
        rewriting = _rewriting(gauntlet_file, cli.compare_variants)
        monkeypatch.setattr(cli, "compare_variants", rewriting)
        out = tmp_path / "cmp"
        assert self.run_compare(gauntlet_file, out) == 0
        assert gauntlet_file.read_bytes() != original
        assert _input_digest(out) == "sha256:" + hashlib.sha256(original).hexdigest()

    def test_flags_override_config_file(self, gauntlet_file, tmp_path):
        cfg = _json_file(tmp_path, {"episodes": 40, "seed": 5}, "cfg.json")
        out = tmp_path / "cmp"
        assert main([
            "compare", str(gauntlet_file), "--out", str(out),
            "--config", cfg, "--episodes", "20", "--learning-rate", "0.4",
            "--max-steps", "300",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["resolved_config"]["episodes"] == 20
        assert manifest["resolved_config"]["seed"] == 5


    def test_protocol_is_case_insensitive(self, gauntlet_file, tmp_path):
        out = tmp_path / "cmp"
        assert self.run_compare(gauntlet_file, out, "--protocol", "FTP") == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["resolved_config"]["protocol"] == "ftp"
        assert (out / "curve_reward_w-2_ftp.csv").is_file()

    def test_unknown_protocol_exit_one(self, gauntlet_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert self.run_compare(gauntlet_file, out, "--protocol", "bogus") == 1
        err = capsys.readouterr().err
        assert "unknown protocol 'bogus'; expected one of" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"hidden_layers": 5},
            {"episodes": "ten"},
            {"gamma": "x"},
            {"seed": 1.5},
            {"episodes": True},
        ],
    )
    def test_mistyped_config_value_exit_one(self, gauntlet_file, tmp_path, capsys, doc):
        (key,) = doc
        cfg = _json_file(tmp_path, doc, "cfg.json")
        out = tmp_path / "cmp"
        assert main([
            "compare", str(gauntlet_file), "--out", str(out), "--config", cfg,
        ]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()


class TestExportDot:
    def test_stdout(self, gauntlet_file, capsys):
        assert main(["export-dot", str(gauntlet_file)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph")
        assert '"entry" -> "s1"' in text

    def test_highlight_path(self, gauntlet_file, tmp_path):
        out = tmp_path / "g.dot"
        assert main([
            "export-dot", str(gauntlet_file), "--out", str(out),
            "--highlight", "entry,s1,s2,target",
        ]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("penwidth") == 3
        assert text.count('color="red"') == 3

    def test_bad_highlight_exit_one(self, gauntlet_file):
        assert main([
            "export-dot", str(gauntlet_file), "--highlight", "entry,l5",
        ]) == 1

    def test_malformed_graph_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 2}', encoding="utf-8")
        assert main(["export-dot", str(bad)]) == 2


# ---------------------------------------------------------------------------
# exit-code contract under mutated inputs
# ---------------------------------------------------------------------------

GAUNTLET_DOC = json.loads(
    serialize_attack_graph(plant_gauntlet(DESK_PARAMS, frozenset({Protocol.FTP})))
)

TRAIN_DOC = {
    "algorithm": "tabular",
    "max_steps_per_episode": 60,
    "eval_interval": 2,
    "learning_rate": 0.4,
    "gamma": 0.9,
    "w": -2.0,
    "mode": "state",
    "protocol": "ftp",
    "hidden_layers": [4],
    "batch_size": 4,
    "seed": 1,
}

TOPOLOGY_DOC = {
    **SMALL_TOPOLOGY,
    "protocol_weights": {"ftp": 1.0, "SSH": 2.0},
    "complexity_weights": {"low": 1.0, "medium": 0.5, "high": 0.25},
}

# Replacement values: any JSON, plus tokens the documents give meaning to
# (mutated() adds each document's own scalars).  Integers stay small so
# that no mutated step cap or layer size runs long.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 300)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["dqn", "vanilla", "reward", "SSH", "ghost", "high"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


def _nested(node, prefix=()):
    """(key path, value) of every value nested in ``node``, depth first."""

    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,), child
        yield from _nested(child, prefix + (key,))


@st.composite
def mutated(draw, doc, leaves=_JSON_VALUES):
    """``doc`` with one to three of the values it nests, each picked
    uniformly, deleted or replaced (by one of ``leaves``, any JSON by
    default, or one of its own scalars)."""

    doc = copy.deepcopy(doc)
    scalars = {repr(v): v for _, v in _nested(doc) if not isinstance(v, (dict, list))}
    values = st.sampled_from(sorted(scalars.values(), key=repr)) | leaves
    for _ in range(draw(st.integers(1, 3))):
        paths = [path for path, _ in _nested(doc)]
        if not paths:
            break
        *path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(values)
    return doc


class TestExitCodeContract:
    """Whatever the input documents hold, a command ends with exit code 0, 1
    or 2, never with an exception escaping main()."""

    # A mutated vertex may lose its annotation, which the lenient parse warns of.
    @pytest.mark.filterwarnings("ignore::cybermdp.graph.GraphWarning")
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(doc=mutated(GAUNTLET_DOC))
    def test_graph_commands(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp, "g.json")
            graph.write_text(json.dumps(doc), encoding="utf-8")
            for argv in (
                ["validate", str(graph)],
                ["build", str(graph), "--mode", "state", "--out", str(Path(tmp, "mdp.json"))],
                ["export-dot", str(graph), "--out", str(Path(tmp, "g.dot")),
                 "--highlight", "entry,s1,s2,target"],
            ):
                assert main(argv) in (0, 1, 2), argv

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(doc=mutated(TRAIN_DOC), episodes=st.integers(1, 4))
    def test_train_config(self, doc, episodes):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp, "g.json")
            graph.write_text(json.dumps(GAUNTLET_DOC), encoding="utf-8")
            config = Path(tmp, "cfg.json")
            config.write_text(json.dumps(doc), encoding="utf-8")
            argv = [
                "train", str(graph), "--out", str(Path(tmp, "run")),
                "--config", str(config), "--episodes", str(episodes),
            ]
            assert main(argv) in (0, 1, 2)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(doc=mutated(TRAIN_DOC), episodes=st.integers(1, 4))
    def test_compare_config(self, doc, episodes):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp, "g.json")
            graph.write_text(json.dumps(GAUNTLET_DOC), encoding="utf-8")
            config = Path(tmp, "cfg.json")
            config.write_text(json.dumps(doc), encoding="utf-8")
            argv = [
                "compare", str(graph), "--out", str(Path(tmp, "run")),
                "--config", str(config), "--episodes", str(episodes),
            ]
            assert main(argv) in (0, 1, 2)

    # Counts past the size caps must exit 1, not build until memory runs out.
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(doc=mutated(TOPOLOGY_DOC, _JSON_VALUES | st.sampled_from([10**6, 2**70])))
    @example(doc={**TOPOLOGY_DOC, "num_subnets": 2**70})
    @example(doc={**TOPOLOGY_DOC, "inter_edge_count": 2**70})
    def test_gen_config(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp, "topology.json")
            config.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["gen", "--config", str(config), "--out", str(Path(tmp, "g.json"))]
            assert main(argv) in (0, 1, 2)


def _out_of_memory_when(original, too_large, message):
    """``original``, except that a call whose arguments ``too_large``
    accepts raises ``MemoryError(message)`` instead of asking for the
    memory, as numpy does when an array cannot be allocated."""

    def call(*args, **kwargs):
        if too_large(*args, **kwargs):
            raise MemoryError(message)
        return original(*args, **kwargs)

    return call


HUGE = 100_000_000_000


@pytest.mark.parametrize(
    "command, doc, module, name, too_large, message",
    [
        # generate draws an (h, h) block per subnet, 128 MiB at the cap.
        ("gen", {**SMALL_TOPOLOGY, "hosts_per_subnet": 4_096}, cli, "generate",
         lambda params: params.hosts_per_subnet == 4_096,
         "Unable to allocate 128. MiB for an array with shape (4096, 4096) "
         "and data type float64"),
        ("train", {"algorithm": "dqn", "replay_capacity": HUGE}, solver, "ReplayBuffer",
         lambda capacity: capacity == HUGE,
         "Unable to allocate 745. GiB for an array with shape (100000000000,) "
         "and data type int64"),
        ("compare", {"algorithm": "dqn", "hidden_layers": [HUGE]}, solver, "QNetwork",
         lambda **kwargs: HUGE in kwargs["hidden_sizes"],
         "Unable to allocate 6.55 TiB for an array with shape (9, 100000000000) "
         "and data type float64"),
    ],
    ids=["gen-hosts", "train-replay", "compare-hidden"],
)
def test_allocation_failure_exit_one(
    gauntlet_file, tmp_path, monkeypatch, capsys, command, doc, module, name, too_large, message
):
    failing = _out_of_memory_when(getattr(module, name), too_large, message)
    monkeypatch.setattr(module, name, failing)
    out = tmp_path / "out"
    cfg = _json_file(tmp_path, doc, "cfg.json")
    if command == "gen":
        argv = ["gen", "--config", cfg, "--out", str(out)]
    else:
        argv = [command, str(gauntlet_file), "--out", str(out), "--config", cfg,
                "--episodes", "2", "--max-steps", "20"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if command == "gen":
        assert not out.exists()
    else:
        assert (out / "FAILED").read_text(encoding="utf-8") == f"MemoryError: {message}\n"
        assert not (out / "manifest.json").exists()
