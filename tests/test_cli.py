import functools
import hashlib
import json
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

import qdarwin
from oracle_utils import mean_values, spec_dict
from qdarwin import (
    MICurve,
    RunConfig,
    build_graph_state,
    counts_to_json,
    diamond_spec,
    estimate_mi_curve,
    mi_curve_from_counts,
    named_state,
    plan_measurements,
    sample_setting,
)
from qdarwin.cli import parse_angle, run
from qdarwin.measurement import PLAN_TARGETS

PINNED = ["--timestamp", "2026-01-01T00:00:00+00:00"]


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", pi),
            ("-pi", -pi),
            ("2*pi", 2 * pi),
            ("2pi", 2 * pi),
            ("pi/2", pi / 2),
            ("-pi/4", -pi / 4),
            ("0.5pi", pi / 2),
            ("3.141592653589793", pi),
            ("0", 0.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(Exception, match="angle"):
            parse_angle("90deg")


class TestCurveCommand:
    def test_star9_matches_library(self, tmp_path):
        out = tmp_path / "star.csv"
        code = run(
            ["curve", "--family", "star", "--n-env", "9", "--phi", "3.141592653589793",
             "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        curve = MICurve.from_csv(text, system_entropy=1.0, n_env=9)
        for point in curve.points[:-1]:
            assert point.mean_mi == pytest.approx(1.0, abs=1e-9)
        assert curve.points[-1].mean_mi == pytest.approx(2.0, abs=1e-9)
        manifest = json.loads((tmp_path / "star.csv.manifest.json").read_text())
        assert manifest["command"] == "curve"
        assert manifest["tool_version"]

    def test_one_qubit_graph_file_writes_the_empty_curve(self, tmp_path):
        graph, out = tmp_path / "graph.json", tmp_path / "c.json"
        graph.write_text(json.dumps({"n_qubits": 1, "edges": []}))
        assert run(["curve", "--graph-file", str(graph), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"system_entropy": 0.0, "n_env": 0, "points": []}

    def test_named_curve_as_json(self, tmp_path):
        out = tmp_path / "diamond.json"
        assert run(["curve", "--named", "diamond-canonical", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        curve = MICurve.from_json_dict(data)
        assert mean_values(curve) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["curve", "--family", "diamond", "--n-env", "4", "--phi", "pi",
                "--theta", "pi", "--timestamp", "2026-01-01T00:00:00+00:00"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.csv.manifest.json").read_bytes() == (
            tmp_path / "b.csv.manifest.json"
        ).read_bytes()

    def test_second_call_after_a_usage_error_matches_a_fresh_process(self, tmp_path, capsys):
        # run reuses one parser per process: a call that fails halfway through
        # parsing must leave nothing behind for the next call
        args = ["curve", "--family", "diamond", "--n-env", "5", "--phi", "pi", "--theta", "pi/3",
                "--timestamp", "2026-01-01T00:00:00+00:00", "--out"]
        assert run(args[:6] + ["90deg"] + args[7:] + [str(tmp_path / "bad.json")]) == 1
        assert "invalid angle" in capsys.readouterr().err
        assert run(args + [str(tmp_path / "here.json")]) == 0
        src = str(Path(qdarwin.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "qdarwin.cli", *args, "fresh.json"], cwd=tmp_path, env=env, check=True)
        for suffix in ("", ".manifest.json"):
            here, fresh = (tmp_path / f"{name}.json{suffix}" for name in ("here", "fresh"))
            assert here.read_bytes() == fresh.read_bytes()

    def test_manifest_records_backend_and_fragment_split(self, tmp_path):
        cases = [
            (["--family", "diamond", "--n-env", "4", "--phi", "pi", "--theta=-pi"], "stabilizer"),
            (["--family", "star", "--n-env", "4", "--phi", "pi/3"], "weighted-graph"),
            (["--named", "ghz4"], "dense-pure"),
        ]
        for flags, backend in cases:
            out = tmp_path / "c.csv"
            assert run(["curve", *flags, "--out", str(out)]) == 0
            diagnostics = json.loads((tmp_path / "c.csv.manifest.json").read_text())["diagnostics"]
            n_env = 3 if flags[0] == "--named" else 4
            assert diagnostics == {
                "backend": backend,
                "fragments_exhaustive": 2**n_env - 1,
                "fragments_sampled": 0,
                "sampled_sizes": [],
                "sample_size": 1000,
                **({"eigenproblems": 4} if backend == "weighted-graph" else {}),
            }

    def test_a_sampled_curves_manifest_names_its_seed(self, tmp_path, monkeypatch):
        # sizes of more than 3 fragments are sampled here; an exhaustive curve's manifest keeps seed null
        args = ["curve", "--family", "star", "--n-env", "4", "--phi", "pi", "--out", str(tmp_path / "c.csv")]
        assert run(args) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["seed"] is None and "seed" not in manifest["diagnostics"]
        monkeypatch.setattr("qdarwin.cli.mi_curve", functools.partial(qdarwin.mi_curve, max_exhaustive=3))
        assert run(args) == 0
        manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
        assert manifest["seed"] == manifest["diagnostics"]["seed"] == 1789
        assert manifest["diagnostics"]["sampled_sizes"] == [1, 2, 3]

    def test_stabilizer_curve_beyond_state_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QDARWIN_MAX_QUBITS", "4")
        out = tmp_path / "star.csv"
        args = ["curve", "--family", "star", "--n-env", "5", "--out", str(out)]
        assert run(args + ["--phi", "pi"]) == 0
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["1", "1", "1", "1", "2"]
        assert run(args + ["--phi", "pi/3"]) == 1

    def test_named_and_family_conflict(self, tmp_path):
        code = run(
            ["curve", "--named", "ghz4", "--family", "star", "--n-env", "2", "--phi", "pi",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1


class TestStateCommand:
    def test_dump_and_graph_file_round_trip(self, tmp_path):
        spec = diamond_spec(3, pi, pi)
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(json.dumps(spec_dict(spec)))
        out = tmp_path / "state.json"
        assert run(["state", "--graph-file", str(graph_file), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n_qubits"] == 4
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        np.testing.assert_allclose(amps, build_graph_state(spec).amplitudes, atol=1e-12)

    def test_amplitudes_written_as_per_amplitude_floats(self, tmp_path):
        # one tolist() call writes the same bytes as a float pair per amplitude
        out = tmp_path / "diamond.json"
        assert run(["state", "--family", "diamond", "--n-env", "9", "--phi", "pi/2", "--theta", "pi/3",
                    "--out", str(out)]) == 0
        state = build_graph_state(diamond_spec(9, pi / 2, pi / 3))
        dump = {"n_qubits": 10, "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes]}
        assert out.read_text() == json.dumps(dump, indent=2) + "\n"

    def test_family_flags(self, tmp_path):
        out = tmp_path / "star.json"
        code = run(["state", "--family", "star", "--n-env", "3", "--phi", "pi", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["amplitudes"]) == 16

    def test_theta_with_star_rejected(self, tmp_path):
        code = run(
            ["state", "--family", "star", "--n-env", "3", "--phi", "pi", "--theta", "pi",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_missing_inputs_rejected(self, tmp_path):
        assert run(["state", "--out", str(tmp_path / "x.json")]) == 1

    def test_unknown_flag_rejected(self, tmp_path):
        assert run(["state", "--familly", "star", "--out", str(tmp_path / "x.json")]) == 1

    def test_bad_graph_file_is_validation_error(self, tmp_path):
        graph_file = tmp_path / "graph.json"
        graph_file.write_text(json.dumps({"n_qubits": 2, "edges": [[1, 1, 3.0]]}))
        assert run(["state", "--graph-file", str(graph_file), "--out", str(tmp_path / "x.json")]) == 1


class TestMalformedInputFiles:
    """A counts or graph file of the wrong shape is a validation error (exit
    1) that names the field, not an internal error (exit 2)."""

    ENTRY = {"setting": "ZZZZ", "shots": 2, "counts": {"0101": 1, "1010": 1}}

    @pytest.mark.parametrize(
        "data,message",
        [
            (ENTRY, "JSON list"),
            ([1], "fields setting, shots, counts"),
            ([{"setting": "ZZZZ", "counts": {"0101": 1}}], "field 'shots' must be int, got nothing"),
            ([{**ENTRY, "shots": None}], "field 'shots' must be int, got None"),
            ([{**ENTRY, "counts": {"0101": None}}], "field 'counts'"),
            ([{**ENTRY, "note": "extra"}], "unexpected field 'note'"),
            ([{**ENTRY, "shots": True}], "field 'shots' must be int, got True"),
            ([{**ENTRY, "counts": {"0101": True, "1010": 1}}], "field 'counts'"),
        ],
    )
    def test_counts_file(self, tmp_path, capsys, data, message):
        counts, out = tmp_path / "counts.json", tmp_path / "x.csv"
        counts.write_text(json.dumps(data))
        code = run(["estimate", "--counts-file", str(counts), "--pipeline", "closed_form", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"n_qubits": 2}, "field 'edges' must be list, got nothing"),
            ([[1, 2, 3.0]], "fields n_qubits, edges"),
            ({"n_qubits": None, "edges": []}, "field 'n_qubits' must be int, got None"),
            ({"n_qubits": 2, "edges": [[1, 2, None]]}, "field 'edges'"),
            # the system qubit comes only from --system, never from the file
            ({"n_qubits": 2, "system": 2, "edges": []}, "unexpected field 'system'"),
            ({"n_qubits": 3, "edges": [[1, 2.7, 3.14]]}, "edge (1, 2.7) endpoints must be integer qubit labels"),
            ({"n_qubits": True, "edges": []}, "field 'n_qubits' must be int, got True"),
            ({"n_qubits": 3, "edges": [[True, 2, 1.0]]}, "field 'edges'"),
            ({"n_qubits": 3, "edges": [[1, 2, True]]}, "field 'edges'"),
        ],
    )
    def test_graph_file(self, tmp_path, capsys, data, message):
        graph, out = tmp_path / "graph.json", tmp_path / "x.csv"
        graph.write_text(json.dumps(data))
        assert run(["curve", "--graph-file", str(graph), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEstimateCommand:
    def test_estimate_writes_curve_with_stderr(self, tmp_path):
        out = tmp_path / "est.csv"
        code = run(
            ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
             "--shots", "5000", "--seed", "9", "--bootstrap", "40", "--out", str(out),
             "--timestamp", "2026-01-01T00:00:00+00:00"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,mean_mi,min_mi,max_mi,n_fragments,stderr"
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.split(",")[5] != ""
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["parameters"]["shots"] == 5000

    def test_seeded_reruns_byte_identical(self, tmp_path):
        args = ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
                "--shots", "2000", "--seed", "4", "--bootstrap", "20",
                "--timestamp", "2026-01-01T00:00:00+00:00"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_saved_counts_reanalyze_to_same_curve(self, tmp_path):
        counts = tmp_path / "counts.json"
        direct = tmp_path / "direct.csv"
        assert run(
            ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
             "--shots", "3000", "--seed", "8", "--bootstrap", "25",
             "--save-counts", str(counts), "--out", str(direct)]
        ) == 0
        replayed = tmp_path / "replayed.csv"
        assert run(
            ["estimate", "--counts-file", str(counts), "--pipeline", "closed_form",
             "--seed", "8", "--bootstrap", "25", "--out", str(replayed)]
        ) == 0
        assert replayed.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("poisson", [False, True])
    @pytest.mark.parametrize(
        "name,pipeline", [("star-experimental", "closed_form"), ("diamond-canonical", "reconstruction")]
    )
    def test_saved_counts_equal_per_setting_draws(self, tmp_path, name, pipeline, poisson):
        # the plan is drawn in one batch; every byte matches drawing it setting by setting
        args = ["estimate", "--named", name, "--pipeline", pipeline, "--shots", "2000", "--seed", "4",
                "--bootstrap", "12", *PINNED, *(["--poisson"] if poisson else [])]
        counts, saved, direct = tmp_path / "counts.json", tmp_path / "saved.csv", tmp_path / "direct.csv"
        assert run(args + ["--save-counts", str(counts), "--out", str(saved)]) == 0
        assert run(args + ["--out", str(direct)]) == 0
        cfg = RunConfig(shots_per_setting=2000, seed=4, bootstrap_resamples=12, poisson_shots=poisson)
        settings = plan_measurements(PLAN_TARGETS[pipeline]).settings
        oracle = [sample_setting(named_state(name), s, cfg) for s in settings]
        assert counts.read_text() == counts_to_json(oracle)
        curve = mi_curve_from_counts(oracle, 1, pipeline, bootstrap_resamples=12, seed=4)
        assert saved.read_text() == curve.to_csv() == direct.read_text()
        manifest = (tmp_path / "direct.csv.manifest.json").read_bytes()
        assert (tmp_path / "saved.csv.manifest.json").read_bytes() == manifest
        expected = json.loads(manifest)
        expected.pop("diagnostics")  # the counts file's manifest has no curve diagnostics
        assert json.loads((tmp_path / "counts.json.manifest.json").read_text()) == expected

    def test_counts_file_with_a_zero_shot_setting_exits_one(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        assert run(
            ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
             "--shots", "200", "--seed", "3", "--bootstrap", "2",
             "--save-counts", str(counts), "--out", str(tmp_path / "direct.csv")]
        ) == 0
        data = json.loads(counts.read_text())
        data[5]["shots"], data[5]["counts"] = 0, {}
        counts.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "replayed.csv"
        code = run(
            ["estimate", "--counts-file", str(counts), "--pipeline", "closed_form",
             "--bootstrap", "2", "--out", str(out)]
        )
        assert code == 1
        assert f"setting {data[5]['setting']} has 0 shots" in capsys.readouterr().err
        assert not out.exists()

    def test_counts_file_conflicts(self, tmp_path):
        counts = tmp_path / "counts.json"
        counts.write_text("[]")
        code = run(
            ["estimate", "--counts-file", str(counts), "--named", "ghz4",
             "--pipeline", "closed_form", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        code = run(
            ["estimate", "--counts-file", str(counts), "--shots", "100",
             "--pipeline", "closed_form", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1

    def test_estimate_requires_a_source(self, tmp_path):
        assert run(["estimate", "--pipeline", "closed_form", "--out", str(tmp_path / "x.csv")]) == 1

    def test_single_bootstrap_replica_rejected(self, tmp_path):
        code = run(
            ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
             "--shots", "500", "--bootstrap", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert not (tmp_path / "x.csv").exists()

    def test_closed_form_outside_model_exits_one(self, tmp_path, capsys):
        code = run(
            ["estimate", "--named", "diamond-canonical", "--pipeline", "closed_form",
             "--shots", "2000", "--bootstrap", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "two-branch model" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_closed_form_without_an_error_on_p_exits_one(self, tmp_path, capsys):
        # one shot per setting: every ZZZZ shot reads one branch, so sigma_P = 0
        args = ["estimate", "--named", "star-experimental", "--pipeline", "closed_form", "--shots", "1"]
        assert run(args + ["--out", str(tmp_path / "x.csv")]) == 1
        assert "the counts pin no error on P" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        cfg = RunConfig(shots_per_setting=1, seed=0)
        data = [sample_setting(named_state("star-experimental"), s, cfg) for s in plan_measurements("star").settings]
        counts = tmp_path / "counts.json"
        counts.write_text(counts_to_json(data))
        replay = ["estimate", "--counts-file", str(counts), "--pipeline", "closed_form", "--out", str(tmp_path / "y.csv")]
        assert run(replay) == 1
        assert "the counts pin no error on P" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.json"]

    def test_no_negative_zero_fields(self, tmp_path):
        from qdarwin import RunConfig, StateVector, counts_to_json, plan_measurements, sample_setting

        cfg = RunConfig(shots_per_setting=500, seed=3)
        state = StateVector.computational_basis("1010")  # P = 0: binary entropies of 0
        data = [sample_setting(state, s, cfg) for s in plan_measurements("star").settings]
        counts = tmp_path / "counts.json"
        counts.write_text(counts_to_json(data))
        out = tmp_path / "est.csv"
        assert run(["estimate", "--counts-file", str(counts), "--pipeline", "closed_form",
                    "--bootstrap", "5", "--out", str(out)]) == 0
        fields = [f for line in out.read_text().splitlines()[1:] for f in line.split(",")]
        assert fields and not any(f.startswith("-") for f in fields)

    def test_manifest_records_bootstrap_diagnostics(self, tmp_path):
        args = ["estimate", "--named", "diamond-canonical", "--pipeline", "reconstruction",
                "--shots", "300", "--seed", "3", "--bootstrap", "10",
                "--timestamp", "2026-01-01T00:00:00+00:00"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        manifest = (tmp_path / "a.csv.manifest.json").read_bytes()
        assert manifest == (tmp_path / "b.csv.manifest.json").read_bytes()
        diagnostics = json.loads(manifest)["diagnostics"]
        assert set(diagnostics) == {
            "replicas_projected", "replicas_beyond_tolerance", "worst_replica_eigenvalue",
            "bootstrap_bias", "bias_exceeds_stderr",
        }
        assert diagnostics["replicas_projected"] == 10
        assert diagnostics["worst_replica_eigenvalue"] < 0


    def test_manifest_records_closed_form_model_margin(self, tmp_path):
        args = ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
                "--shots", "2000", "--seed", "4", "--bootstrap", "20",
                "--timestamp", "2026-01-01T00:00:00+00:00"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        manifest = (tmp_path / "a.csv.manifest.json").read_bytes()
        assert manifest == (tmp_path / "b.csv.manifest.json").read_bytes()
        assert a.read_bytes() == b.read_bytes()
        diagnostics = json.loads(manifest)["diagnostics"]
        assert set(diagnostics) == {"replicas_clipped", "model_deviation", "model_sigma_p"}
        assert 0 <= diagnostics["model_deviation"] <= 6 * diagnostics["model_sigma_p"]

    @pytest.mark.parametrize(
        "pipeline,system", [("closed_form", "7"), ("closed_form", "0"), ("closed_form", "-2"), ("reconstruction", "5")]
    )
    def test_system_out_of_range_exits_one(self, tmp_path, capsys, pipeline, system):
        code = run(
            ["estimate", "--named", "star-experimental", "--pipeline", pipeline, "--shots", "200",
             "--bootstrap", "2", "--system", system, "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert f"system index {system} out of range" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("pipeline,system", [("reconstruction", "0"), ("reconstruction", "5"),
                                                 ("reconstruction", "7"), ("closed_form", "7")])
    @pytest.mark.parametrize("save", [[], ["--save-counts", "counts.json"]])
    def test_system_refused_before_sampling(self, tmp_path, capsys, monkeypatch, pipeline, system, save):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_setting was called")

        monkeypatch.setattr("qdarwin.cli.sample_setting", refuse)
        for binding in ("sample_setting", "_sample_counts"):
            monkeypatch.setattr(f"qdarwin.measurement.{binding}", refuse)
        monkeypatch.chdir(tmp_path)
        code = run(["estimate", "--named", "diamond-canonical", "--pipeline", pipeline, "--system", system,
                    *save, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: system index {system} out of range\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "name,pipeline", [("star-experimental", "closed_form"), ("diamond-canonical", "reconstruction")]
    )
    def test_library_curve_carries_the_manifest_diagnostics(self, tmp_path, name, pipeline):
        out = tmp_path / "est.csv"
        assert run(["estimate", "--named", name, "--pipeline", pipeline, "--shots", "1000", "--seed", "6",
                    "--bootstrap", "10", "--out", str(out)]) == 0
        cfg = RunConfig(shots_per_setting=1000, seed=6, bootstrap_resamples=10)
        curve = estimate_mi_curve(named_state(name), 1, cfg, pipeline)
        assert curve.to_csv() == out.read_text()
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        assert curve._diagnostics == manifest["diagnostics"]

    def test_counts_file_manifest_records_its_hash(self, tmp_path):
        counts = tmp_path / "counts.json"
        assert run(
            ["estimate", "--named", "diamond-canonical", "--pipeline", "reconstruction",
             "--shots", "300", "--seed", "3", "--bootstrap", "5", "--save-counts", str(counts),
             "--out", str(tmp_path / "direct.csv"), "--timestamp", "2026-01-01T00:00:00+00:00"]
        ) == 0
        args = ["estimate", "--counts-file", str(counts), "--pipeline", "reconstruction",
                "--seed", "3", "--bootstrap", "5", "--timestamp", "2026-01-01T00:00:00+00:00"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        manifest = (tmp_path / "a.csv.manifest.json").read_bytes()
        assert manifest == (tmp_path / "b.csv.manifest.json").read_bytes()
        assert json.loads(manifest)["counts_sha256"] == hashlib.sha256(counts.read_bytes()).hexdigest()
        direct = json.loads((tmp_path / "direct.csv.manifest.json").read_text())
        assert "counts_sha256" not in direct
        assert a.read_bytes() == (tmp_path / "direct.csv").read_bytes()


class TestManifests:
    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--family", "star", "--n-env", "3", "--phi", "pi"],
            ["curve", "--named", "ghz4"],
            ["estimate", "--named", "star-experimental", "--pipeline", "closed_form", "--shots", "200",
             "--bootstrap", "2"],
            ["plan", "--target", "star"],
        ],
    )
    def test_every_manifest_records_numpy_version(self, tmp_path, argv):
        pinned = ["--timestamp", "2026-01-01T00:00:00+00:00"]
        for name in ("a.json", "b.json"):
            assert run(argv + pinned + ["--out", str(tmp_path / name)]) == 0
        manifest = (tmp_path / "a.json.manifest.json").read_bytes()
        assert manifest == (tmp_path / "b.json.manifest.json").read_bytes()
        assert json.loads(manifest)["numpy_version"] == np.__version__


class TestInPlaceWrites:
    """Output files are overwritten in place and cut to length, never truncated
    first: the bytes are those of a fresh path, and the inode stays."""

    CURVE = ["curve", "--family", "diamond", "--n-env", "4", "--phi", "pi", "--theta", "pi", *PINNED]

    @staticmethod
    def _fresh(tmp_path, argv, name="fresh.csv"):
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert run(argv + ["--out", str(fresh / name)]) == 0
        return (fresh / name).read_bytes(), (fresh / f"{name}.manifest.json").read_bytes()

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["state", "--family", "star", "--n-env", "3", "--phi", "pi", *PINNED], "s.json"),
            (CURVE, "c.csv"),
            (["curve", "--named", "ghz4", *PINNED], "c.json"),
            (["estimate", "--named", "star-experimental", "--pipeline", "closed_form", "--shots", "500",
              "--bootstrap", "3", *PINNED], "e.csv"),
            (["plan", "--target", "full_tomography", *PINNED], "p.json"),
        ],
        ids=["state", "curve-csv", "curve-json", "estimate", "plan"],
    )
    @pytest.mark.parametrize("prior", [b"", b"short", b"y" * 50000, None], ids=["empty", "shorter", "longer", "rerun"])
    def test_rerun_onto_existing_files_is_byte_identical(self, tmp_path, argv, name, prior):
        # None: the same pinned command has already written the files once
        out = tmp_path / name
        if prior is None:
            assert run(argv + ["--out", str(out)]) == 0
        else:
            out.write_bytes(prior)
            Path(f"{out}.manifest.json").write_bytes(prior)
        assert run(argv + ["--out", str(out)]) == 0
        assert (out.read_bytes(), Path(f"{out}.manifest.json").read_bytes()) == self._fresh(tmp_path, argv, name)

    def test_saved_counts_over_a_longer_file(self, tmp_path):
        args = ["estimate", "--named", "diamond-canonical", "--pipeline", "reconstruction", "--shots", "300",
                "--bootstrap", "3", *PINNED]
        fresh, counts = tmp_path / "fresh.json", tmp_path / "counts.json"
        counts.write_bytes(b"z" * 400000)
        for target in (fresh, counts):
            assert run(args + ["--save-counts", str(target), "--out", str(tmp_path / "e.csv")]) == 0
        assert counts.read_bytes() == fresh.read_bytes()

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"old contents, longer than nothing" * 100)
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert run(self.CURVE + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == self._fresh(tmp_path, self.CURVE)[0]

    def test_mode_and_inode_kept(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"old")
        out.chmod(0o640)
        before = out.stat()
        hard = tmp_path / "hard.csv"
        os.link(out, hard)
        assert run(self.CURVE + ["--out", str(out)]) == 0
        after = out.stat()
        assert (after.st_mode & 0o7777, after.st_ino) == (0o640, before.st_ino)
        assert hard.read_bytes() == out.read_bytes() == self._fresh(tmp_path, self.CURVE)[0]

    def test_directory_out_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "dir.csv"
        out.mkdir()
        assert run(self.CURVE + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []


class TestIgnoredFlagsRefused:
    """A flag that the chosen input ignores is refused: exit 1 and no file,
    while the same command without it runs."""

    @pytest.mark.parametrize(
        "base,ignored",
        [
            (["curve", "--named", "ghz4"], ["--phi", "pi", "--theta", "pi/3"]),
            (["curve", "--named", "ghz4"], ["--phi", "pi"]),
            (["curve", "--named", "ghz4"], ["--theta", "pi/3"]),
            (["curve", "--named", "ghz4"], ["--n-env", "3"]),
            (["curve", "--named", "ghz4"], ["--graph-file", "missing.json"]),
            (["curve", "--graph-file", "{graph}"], ["--family", "star"]),
            (["curve", "--graph-file", "{graph}"], ["--phi", "pi"]),
            (["state", "--graph-file", "{graph}"], ["--phi", "pi", "--theta", "pi/3"]),
            (["state", "--graph-file", "{graph}"], ["--n-env", "3"]),
            (["estimate", "--counts-file", "{counts}", "--pipeline", "closed_form", "--bootstrap", "4"],
             ["--poisson"]),
        ],
    )
    def test_refused_with_no_file_written(self, tmp_path, capsys, base, ignored):
        graph, counts = tmp_path / "graph.json", tmp_path / "counts.json"
        graph.write_text(json.dumps(spec_dict(diamond_spec(3, pi, pi))))
        star = named_state("star-experimental")
        cfg = RunConfig(shots_per_setting=200, seed=3)
        counts.write_text(counts_to_json([sample_setting(star, s, cfg) for s in plan_measurements("star").settings]))
        base = [arg.format(graph=graph, counts=counts) for arg in base]
        before = sorted(tmp_path.iterdir())
        assert run(base + ignored + ["--out", str(tmp_path / "x.csv")]) == 1
        assert sorted(tmp_path.iterdir()) == before
        flags = "/".join(arg for arg in ignored if arg.startswith("--"))
        assert f"cannot be combined with {flags}" in capsys.readouterr().err
        assert run(base + ["--out", str(tmp_path / "x.csv")]) == 0


class TestPlanCommand:
    def test_star_plan(self, tmp_path):
        out = tmp_path / "plan.json"
        assert run(["plan", "--target", "star", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["counts"]["n_correlators"] == 32
        assert data["counts"]["n_settings"] == 17
        assert len(data["correlators"]) == 32

    def test_full_plan_reports_projector_count(self, tmp_path):
        out = tmp_path / "plan.json"
        assert run(["plan", "--target", "full_tomography", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["counts"]["n_projectors"] == 1296


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert run(["verify"]) == 0
        output = capsys.readouterr().out
        assert output.count("fidelity 1.000000 PASS") == 2


class TestExitCodes:
    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_success_is_zero(self, tmp_path):
        assert run(["plan", "--target", "star", "--out", str(tmp_path / "p.json")]) == 0

    def test_internal_error_is_two(self, tmp_path, monkeypatch):
        import qdarwin.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli_mod, "mi_curve", boom)
        code = run(["curve", "--named", "ghz4", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestPipelinesViaCli:
    def test_reconstruction_pipeline(self, tmp_path):
        out = tmp_path / "rec.csv"
        code = run(
            ["estimate", "--named", "diamond-canonical", "--pipeline", "reconstruction",
             "--shots", "3000", "--seed", "2", "--bootstrap", "10", "--out", str(out)]
        )
        assert code == 0
        curve = MICurve.from_csv(out.read_text(), system_entropy=1.0, n_env=3)
        assert mean_values(curve) == pytest.approx([1 / 3, 5 / 3, 2.0], abs=0.25)

    def test_poisson_shot_model(self, tmp_path):
        args = ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
                "--shots", "1000", "--seed", "6", "--bootstrap", "10", "--poisson",
                "--timestamp", "2026-01-01T00:00:00+00:00"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
