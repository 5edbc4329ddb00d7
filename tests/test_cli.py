import hashlib
import json
from math import pi

import numpy as np
import pytest

from qdarwin import MICurve, RunConfig, build_graph_state, diamond_spec, estimate_mi_curve, named_state
from qdarwin.cli import parse_angle, run


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

    def test_named_curve_as_json(self, tmp_path):
        out = tmp_path / "diamond.json"
        assert run(["curve", "--named", "diamond-canonical", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        curve = MICurve.from_json_dict(data)
        assert curve.mean_values() == pytest.approx([1 / 3, 5 / 3, 2.0], abs=1e-9)

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
                "sample_size": 1000,
            }

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
        graph_file.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "state.json"
        assert run(["state", "--graph-file", str(graph_file), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n_qubits"] == 4
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        np.testing.assert_allclose(amps, build_graph_state(spec).amplitudes, atol=1e-12)

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
        graph_file.write_text(json.dumps({"n_qubits": 2, "system": 1, "edges": [[1, 1, 3.0]]}))
        assert run(["state", "--graph-file", str(graph_file), "--out", str(tmp_path / "x.json")]) == 1


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
            "replicas_projected", "replicas_beyond_tolerance", "worst_replica_eigenvalue"
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
    def test_system_refused_before_sampling(self, tmp_path, capsys, monkeypatch, pipeline, system):
        def refuse(*args, **kwargs):
            raise AssertionError("sample_setting was called")

        monkeypatch.setattr("qdarwin.cli.sample_setting", refuse)
        monkeypatch.setattr("qdarwin.measurement.sample_setting", refuse)
        code = run(["estimate", "--named", "diamond-canonical", "--pipeline", pipeline, "--system", system,
                    "--save-counts", str(tmp_path / "counts.json"), "--out", str(tmp_path / "x.csv")])
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
        assert curve.mean_values() == pytest.approx([1 / 3, 5 / 3, 2.0], abs=0.25)

    def test_poisson_shot_model(self, tmp_path):
        args = ["estimate", "--named", "star-experimental", "--pipeline", "closed_form",
                "--shots", "1000", "--seed", "6", "--bootstrap", "10", "--poisson",
                "--timestamp", "2026-01-01T00:00:00+00:00"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
