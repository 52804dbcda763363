import importlib.util
import json
import pathlib

import numpy as np
import pytest

from relequil import dynamics, model, pipeline, symmetry
from relequil.central import refine_central_configuration, regular_polygon
from relequil.cli import main as cli_main
from relequil.model import BodyConfiguration, PotentialSpec
from relequil.pipeline import (
    AnalysisRequest,
    ConsistencyError,
    InputError,
    StabilityReport,
    polygon_group_for,
    run_analysis,
    run_sweep,
)
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES
from relequil.spectrum import eigenvalue_labels

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def _preset_request(name):
    alpha = 1.0 if name in HOMOGENEOUS_PRESETS else None
    return AnalysisRequest(case=name, alpha=alpha)


class TestRequestResolution:
    def test_unknown_case(self):
        with pytest.raises(InputError):
            AnalysisRequest(case="heptagon-special").resolve()

    def test_alpha_on_quasi_case_rejected(self):
        with pytest.raises(InputError):
            AnalysisRequest(case="manev-triangle", alpha=2.0).resolve()

    def test_explicit_positions(self):
        tri = regular_polygon(3)
        cfg, spec, case = AnalysisRequest(
            positions=tuple(tri.positions), alpha=1.0
        ).resolve()
        assert case is None
        assert cfg.n == 3
        assert spec.terms == ((1.0, 1.0),)

    def test_masses_on_preset_rejected(self):
        with pytest.raises(InputError):
            AnalysisRequest(case="triangle-homogeneous", alpha=1.0,
                            masses=(1.0, 1.0, 1.0)).resolve()

    def test_missing_everything(self):
        with pytest.raises(InputError):
            AnalysisRequest().resolve()

    def test_noncentral_explicit_rejected(self, rng):
        pos = rng.uniform(-1, 1, size=8)
        # keep bodies apart so construction succeeds
        pos = pos + np.array([0, 0, 3, 0, 0, 3, 3, 3.0])
        with pytest.raises(InputError):
            run_analysis(AnalysisRequest(positions=tuple(pos), alpha=1.0))


class TestPolygonGroupDetection:
    def test_detects_rotated_polygon(self):
        cfg = regular_polygon(4).rotated(0.31)
        group = polygon_group_for(cfg)
        assert group is not None and group.order == 8

    def test_rejects_non_polygon(self, rng):
        from conftest import random_safe_configuration

        cfg = random_safe_configuration(rng)
        assert polygon_group_for(cfg) is None

    def test_rejects_unequal_masses(self):
        from relequil.model import BodyConfiguration

        tri = regular_polygon(3)
        cfg = BodyConfiguration(np.array([1.0, 2.0, 1.0]), tri.positions)
        assert polygon_group_for(cfg) is None


class TestReports:
    def test_json_round_trip_bit_exact(self):
        report = run_analysis(_preset_request("manev-triangle"))
        text = json.dumps(report.to_dict())
        recovered = StabilityReport.from_dict(json.loads(text))
        assert json.dumps(recovered.to_dict()) == text

    def test_determinism(self):
        a = run_analysis(_preset_request("schwarzschild-square"))
        b = run_analysis(_preset_request("schwarzschild-square"))
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_golden_file(self, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        report = run_analysis(_preset_request(name))
        assert report.to_dict() == golden

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_golden_labels_follow_the_printed_spectrum(self, name):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        values = [complex(e["re"], e["im"]) for e in golden["oracle_spectrum"]]
        verdict = golden["verdict"]
        assert verdict["labels"] == eigenvalue_labels(values, verdict["tol"])

    def test_make_goldens_check(self, tmp_path, monkeypatch, capsys):
        path = GOLDEN_DIR.parent / "scripts" / "make_goldens.py"
        spec = importlib.util.spec_from_file_location("make_goldens", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--check"]) == 0
        capsys.readouterr()
        for golden in GOLDEN_DIR.glob("*.json"):
            (tmp_path / golden.name).write_text(golden.read_text())
        stale = tmp_path / "manev-square.json"
        stale.write_text(stale.read_text().replace("spectrally", "Spectrally"))
        monkeypatch.setattr(script, "OUT", tmp_path)
        assert script.main(["--check"]) == 1
        assert capsys.readouterr().out.split() == ["differs:", str(stale)]
        assert "Spectrally" in stale.read_text()

    def test_schema_version_checked(self):
        report = run_analysis(_preset_request("triangle-homogeneous"))
        data = dict(report.to_dict())
        data["schema_version"] = 99
        with pytest.raises(InputError):
            StabilityReport.from_dict(data)

    def test_reference_values_present_with_flags(self):
        report = run_analysis(_preset_request("manev-square"))
        om = report.to_dict()["omega_squared"]
        assert om["reference"]["suspect"] is True
        assert om["agrees"] is False
        assert any("omega^2" in d for d in report.discrepancies)

    def test_render_table_mentions_verdict(self):
        report = run_analysis(_preset_request("triangle-homogeneous"))
        text = report.render_table()
        assert "spectrally-unstable" in text
        assert "omega^2" in text

    def test_explicit_pentagon_runs_end_to_end(self):
        pent = regular_polygon(5)
        report = run_analysis(
            AnalysisRequest(positions=tuple(pent.positions), alpha=1.0)
        )
        assert report.matches_oracle
        assert len(report.to_dict()["coupled_blocks"]) == 1


class TestConsistencyError:
    def test_names_stage_distance_and_worst_pair(self):
        with pytest.raises(ConsistencyError) as err:
            run_analysis(AnalysisRequest(case="triangle-homogeneous", alpha=1.0,
                                         compare_tol=1e-30))
        text = str(err.value)
        assert err.value.stage == "block union vs oracle"
        assert text.startswith("block union vs oracle: max matched distance ")
        assert "exceeds tol 1e-30 x scale " in text
        assert "worst pair " in text and "(union) vs " in text
        assert "omega^2" not in text and "verdict" not in text

    def test_names_both_sizes_on_cardinality_mismatch(self, monkeypatch):
        real = pipeline.decompose_blocks

        def drop_a_block(eq):
            deco = real(eq)
            return type(deco)(deco.omega, deco.pairs[1:], deco.blocks[1:], deco.coupled)

        monkeypatch.setattr(pipeline, "decompose_blocks", drop_a_block)
        with pytest.raises(ConsistencyError) as err:
            run_analysis(_preset_request("triangle-homogeneous"))
        assert str(err.value) == (
            "block union vs oracle: block union has 8 eigenvalues, the oracle 12"
        )


class TestComputedOnce:
    @pytest.mark.parametrize("with_dynamics", [False, True])
    def test_one_equilibrium_per_run(self, monkeypatch, with_dynamics):
        calls = {"potential_hessian": 0, "centrality_residual": 0, "block_symplectic": 0}

        def counting(name, module):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(model, name, counting(name, model))
        # symmetry's own binding, which the pairing would call
        monkeypatch.setattr(symmetry, "block_symplectic",
                            counting("block_symplectic", symmetry))
        built, directions = [], []
        real_init = model.Equilibrium.__post_init__

        def record_build(eq):
            real_init(eq)
            built.append(eq)

        real_direction = pipeline._worst_direction

        def record_direction(eq):
            directions.append(eq)
            return real_direction(eq)

        real_integrate = dynamics.integrate_rotating_frame

        def ten_steps(config, spec, **kwargs):
            # the integrator's length does not change what is computed once
            return real_integrate(config, spec, **{**kwargs, "duration": 10 * kwargs["dt"]})

        monkeypatch.setattr(model.Equilibrium, "__post_init__", record_build)
        monkeypatch.setattr(pipeline, "_worst_direction", record_direction)
        monkeypatch.setattr(dynamics, "integrate_rotating_frame", ten_steps)
        request = AnalysisRequest(case="square-homogeneous", alpha=1.0,
                                  with_dynamics=with_dynamics)
        report = run_analysis(request)
        # Jhat is built once, by the Equilibrium; the pairing and the
        # integrator apply it in closed form
        assert calls == {"potential_hessian": 1, "centrality_residual": 1, "block_symplectic": 1}
        # Hw is built by the one Equilibrium; the growth fit uses that same one
        assert len(built) == 1
        assert directions == (built if with_dynamics else [])
        assert (report.to_dict()["dynamics"] is not None) == with_dynamics

    def test_no_representation_matrix_is_built(self, monkeypatch):
        # the trace route reads H's body blocks and the wave-number bases;
        # no 2n x 2n representation matrix (nor a projector summed from them)
        def refuse(g, n):
            raise AssertionError(f"representation matrix of {g.name} built for n = {n}")

        monkeypatch.setattr(symmetry, "representation_matrix", refuse)
        for request in (AnalysisRequest(case="square-homogeneous", alpha=1.0),
                        AnalysisRequest(positions=tuple(regular_polygon(24).positions),
                                        alpha=1.0)):
            isotypic = run_analysis(request).to_dict()["isotypic"]
            assert [c["irrep"] for c in isotypic][:2] == ["A1", "A2"]


class TestSweep:
    def test_trichotomy_labels(self):
        result = run_sweep(
            AnalysisRequest(case="triangle-homogeneous"), [1.9, 2.0, 2.1]
        )
        assert dict(result.summary) == {
            1.9: "pure-imaginary", 2.0: "zero", 2.1: "real"
        }

    def test_all_verdicts_unstable_across_grid(self):
        result = run_sweep(
            AnalysisRequest(case="triangle-homogeneous"),
            [0.5, 1.0, 1.5, 2.0, 3.0],
        )
        assert not result.failures
        for _, report in result.reports:
            assert report.verdict == "spectrally-unstable"

    def test_empty_grid(self):
        result = run_sweep(AnalysisRequest(case="triangle-homogeneous"), [])
        assert result.reports == () and result.summary == ()


class TestCli:
    def test_analyze_json(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main([
            "analyze", "--case", "triangle-homogeneous", "--alpha", "1.0",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"]["verdict"] == "spectrally-unstable"

    def test_analyze_unknown_case_exit_2(self, capsys):
        code = cli_main(["analyze", "--case", "triangle-homogeneous",
                         "--alpha", "1.0", "--potential", "1:1"])
        assert code == 2

    def test_analyze_noncentral_exit_2(self, capsys):
        code = cli_main([
            "analyze", "--positions", "0,0.9,1,0,2.2,0", "--alpha", "1.0",
        ])
        assert code == 2

    def test_analyze_unequal_masses(self, capsys, tmp_path):
        masses = np.array([1.0, 2.0, 0.5])
        guess = np.array([-1.0, 0.0, 0.1, 0.0, 1.0, 0.0])
        spec = PotentialSpec.homogeneous(1.0)
        cfg = refine_central_configuration(BodyConfiguration(masses, guess), spec)
        out = tmp_path / "collinear.json"
        code = cli_main([
            "analyze", "--positions=" + ",".join(repr(float(x)) for x in cfg.positions),
            "--masses", "1,2,0.5", "--alpha", "1.0",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["configuration"]["masses"] == [1.0, 2.0, 0.5]

    def test_analyze_masses_wrong_length_exit_2(self, capsys):
        code = cli_main([
            "analyze", "--positions=-1,0,0,0,1,0", "--masses", "1,2",
            "--alpha", "1.0",
        ])
        assert code == 2
        assert "positions must be flat" in capsys.readouterr().err

    def test_simulate_noncentral_exit_2(self, capsys):
        code = cli_main(["simulate", "--positions=0,0,1,0", "--alpha", "1"])
        assert code == 2
        assert "input error: configuration is not central" in capsys.readouterr().err

    def test_list_values_may_start_with_minus(self, capsys, tmp_path):
        out = tmp_path / "pair.json"
        code = cli_main([
            "analyze", "--positions", "-0.5,0,0.5,0", "--masses", "1,1",
            "--alpha", "1", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["configuration"]["positions"] == [-0.5, 0.0, 0.5, 0.0]
        code = cli_main(["analyze", "--positions", "0,0,1,0", "--masses", "-1,1",
                         "--alpha", "1"])
        assert code == 2
        assert "masses must be strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["analyze", "--positions", "0,0,1,0", "--potential", "1:x"], "--potential"),
        (["analyze", "--positions", "0,0,1,0", "--potential", "1"], "--potential"),
        (["sweep", "--case", "triangle-homogeneous", "--grid", "1,x"], "--grid"),
    ], ids=["potential-not-a-number", "potential-no-colon", "grid-not-a-number"])
    def test_malformed_numbers_exit_2(self, capsys, argv, flag):
        assert cli_main(argv) == 2
        assert f"input error: {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [["--alpha", "-1"], ["--potential", "0:1"]],
                             ids=["alpha", "potential"])
    def test_rejected_potential_exit_2(self, capsys, spec):
        assert cli_main(["analyze", "--positions", "1,0,-1,0", *spec]) == 2
        assert ("input error: coefficients and exponents must be positive"
                in capsys.readouterr().err)

    def test_sweep_table(self, capsys):
        code = cli_main([
            "sweep", "--case", "triangle-homogeneous", "--grid", "1.9,2.0,2.1",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "pure-imaginary" in text and "zero" in text and "real" in text

    def test_presets_listing(self, capsys):
        code = cli_main(["presets"])
        assert code == 0
        text = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in text

    def test_simulate(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code = cli_main([
            "simulate", "--case", "schwarzschild-square", "--periods", "1",
            "--steps-per-period", "2000", "--format", "json",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["equilibrium_drift"] < 1e-8
        assert not data["blew_up"]

    def test_simulate_dump_has_states(self, capsys, tmp_path):
        out = tmp_path / "dump.json"
        code = cli_main([
            "simulate", "--case", "triangle-homogeneous", "--alpha", "1.0",
            "--periods", "0.02", "--steps-per-period", "1000",
            "--dump", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["trajectory"]) > 1
        assert len(data["trajectory"][0]["state"]) == 12

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RELEQUIL_OUT_DIR", str(tmp_path))
        code = cli_main(["presets", "--format", "json"])
        assert code == 0
        assert (tmp_path / "presets.json").exists()
