import gc
import importlib.util
import json
import pathlib
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from relequil import checks, dynamics, model, pipeline, presets, symmetry
from relequil.central import refine_central_configuration, regular_polygon
from relequil.cli import main as cli_main
from relequil.model import BodyConfiguration, Equilibrium, PotentialSpec
from relequil.pipeline import (
    AnalysisRequest,
    ConsistencyError,
    InputError,
    StabilityReport,
    run_analysis,
    run_sweep,
)
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES
from relequil.spectrum import (
    UNSTABLE,
    classify,
    eigenvalue_labels,
    full_linearization_spectrum,
    sorted_spectrum,
)

from conftest import PRESET_ALPHAS

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


_INPUT_FLAGS = ("--case", "--alpha", "--potential", "--positions", "--masses")
_FLAG_VALUES = {"--case": "manev-square", "--alpha": "7", "--potential": "1:1",
                "--positions": "1,2", "--masses": "1", "--tol": "5", "--out": "x.json",
                "--format": "json"}


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

    def test_positions_on_preset_rejected(self):
        with pytest.raises(InputError, match="preset case or positions"):
            AnalysisRequest(case="triangle-homogeneous", alpha=1.0,
                            positions=(0.0, 0.0, 3.0, 0.0, 0.0, 5.0)).resolve()

    def test_missing_everything(self):
        with pytest.raises(InputError):
            AnalysisRequest().resolve()

    @pytest.mark.parametrize("potential", [((1.0, 1.0),), ((1.0, 2.0), (1.0, 3.0)),
                                           ((1.0, 1.0), (1.0, 2.0))])
    def test_alpha_contradicting_the_potential_rejected(self, potential):
        # alpha = 2 with anything but the one term c r^-2
        request = AnalysisRequest(positions=tuple(regular_polygon(3).positions),
                                  potential=potential, alpha=2.0)
        with pytest.raises(InputError, match="alpha=2 contradicts the potential"):
            request.resolve()

    def test_alpha_agreeing_with_a_single_term_potential_accepted(self):
        _, spec, _ = AnalysisRequest(positions=tuple(regular_polygon(3).positions),
                                     potential=((2.0, 2.0),), alpha=2.0).resolve()
        assert spec.terms == ((2.0, 2.0),)

    def test_noncentral_explicit_rejected(self, rng):
        pos = rng.uniform(-1, 1, size=8)
        # keep bodies apart so construction succeeds
        pos = pos + np.array([0, 0, 3, 0, 0, 3, 3, 3.0])
        with pytest.raises(InputError):
            run_analysis(AnalysisRequest(positions=tuple(pos), alpha=1.0))


class TestPolygonGroupDetection:
    def test_detects_rotated_polygon(self):
        cfg = regular_polygon(4).rotated(0.31)
        eq = Equilibrium(cfg, PotentialSpec.homogeneous(1.0))
        assert eq.config.group is not None and eq.config.group.order == 8
        assert eq.config.waves.shape == (3, 8, 4) and not eq.config.waves.flags.writeable

    def test_rejects_non_polygon(self, rng):
        from conftest import random_safe_configuration

        cfg = random_safe_configuration(rng)
        assert symmetry.polygon_axis_angle(cfg) is None

    def test_rejects_unequal_masses(self):
        from relequil.model import BodyConfiguration

        tri = regular_polygon(3)
        cfg = BodyConfiguration(np.array([1.0, 2.0, 1.0]), tri.positions)
        assert symmetry.polygon_axis_angle(cfg) is None

    def test_no_group_without_a_polygon(self):
        # a collinear central configuration: no group and no wave stack
        cfg = refine_central_configuration(
            BodyConfiguration(np.ones(3), np.array([-1.0, 0.0, 0.1, 0.0, 1.0, 0.0])),
            PotentialSpec.homogeneous(1.0))
        eq = Equilibrium(cfg, PotentialSpec.homogeneous(1.0))
        assert eq.config.group is None and eq.config.waves is None


class TestReports:
    def test_json_round_trip_bit_exact(self):
        report = run_analysis(_preset_request("manev-triangle"))
        text = json.dumps(report.to_dict())
        assert json.loads(text) == report.to_dict()
        assert json.dumps(json.loads(text)) == text

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
        moved = tmp_path / "triangle-homogeneous.json"
        data = json.loads(moved.read_text())
        data["blocks"][2]["lam1"] += 2.0 ** -50
        moved.write_text(json.dumps(data, indent=2) + "\n")
        monkeypatch.setattr(script, "OUT", tmp_path)
        assert script.main(["--check"]) == 1
        # under each differing golden, every changed field with its JSON path
        assert capsys.readouterr().out.splitlines() == [
            f"differs: {moved}",
            "  blocks[2].lam1 8.9e-16",
            f"differs: {stale}",
            "  verdict.verdict 'Spectrally-unstable' -> 'spectrally-unstable'",
        ]
        assert "Spectrally" in stale.read_text()

    def test_scripts_run(self, tmp_path):
        # the scripts import the package from the checkout's src, not through
        # the CLI, so a renamed function shows here first
        def run(*args):
            done = subprocess.run([sys.executable, *args], cwd=GOLDEN_DIR.parent,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            return done.stdout.splitlines()

        cases = [ln.split()[0] for ln in run("scripts/run_all_cases.py")]
        assert [name for name in cases if name in PRESET_NAMES] == list(PRESET_NAMES)
        rows = run("scripts/alpha_sweep.py", "--grid", "1.9,2.0,2.1")
        assert [float(ln.split()[0]) for ln in rows[1:]] == [1.9, 2.0, 2.1]
        # every preset is unstable, so none is skipped; each measured growth
        # rate is within 10% of the spectral prediction
        rows = [ln.split() for ln in run("scripts/growth_rates.py")[1:]]
        assert sorted(row[0] for row in rows) == sorted(PRESET_NAMES)
        assert all(len(row) == 4 and float(row[3].rstrip("%")) <= 10.0 for row in rows)
        # the byte-level golden check: every golden file regenerates unchanged
        golden = run("scripts/make_goldens.py", "--check")
        assert golden == [f"all {len(PRESET_NAMES)} goldens match"]
        # one sha256 per benchmark deck
        digests = [ln.split() for ln in run("scripts/report_digest.py")]
        assert [d[0] for d in digests] == ["presets", "polygons", "collinear", "dynamics"]
        assert all(len(d) == 2 and len(bytes.fromhex(d[1])) == 32 for d in digests)
        # the decks' numbers, compared with a dump of the same tree: no change
        dump = tmp_path / "decks.json"
        assert run("scripts/report_digest.py", "--dump", str(dump)) == []
        assert run("scripts/report_digest.py", "--against", str(dump)) == [
            f"{deck:<10} union 0  oracle 0  isotypic 0  pairs 0  verdicts 0  label counts 0  "
            "errors +0 -0"
            for deck in ("presets", "polygons", "collinear")]

    def test_report_digest_scales_pair_changes_by_the_spectral_radius(self, tmp_path):
        # a two-term collinear case's only pair is the translation pair, a
        # rounding-level zero; a 1e-15 move of it is a rounding-level change
        script = GOLDEN_DIR.parent / "scripts" / "report_digest.py"

        def run(*args):
            done = subprocess.run([sys.executable, str(script), *args], capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            return done.stdout.splitlines()

        dump = tmp_path / "decks.json"
        run("--dump", str(dump))
        decks = json.loads(dump.read_text())
        case = next(numbers for label, numbers in decks["collinear"]
                    if "manev" in label and "error" not in numbers)
        assert np.max(np.abs(case["pairs"])) < 1e-12
        case["pairs"][0][0] += 1e-15
        dump.write_text(json.dumps(decks))
        line = run("--against", str(dump))[2].split()
        assert line[0] == "collinear" and line[7] == "pairs"
        assert 0.0 < float(line[8]) <= 1e-12

    def test_reference_values_present_with_flags(self):
        report = run_analysis(_preset_request("manev-square"))
        om = report.to_dict()["omega_squared"]
        assert om["reference"]["suspect"] is True
        assert om["agrees"] is False
        assert any("omega^2" in d for d in report.discrepancies)

    def test_timing_is_reported_only_when_asked(self):
        timed = run_analysis(AnalysisRequest(case="manev-triangle", with_timing=True))
        assert timed.to_dict()["timing_seconds"] > 0
        untimed = run_analysis(AnalysisRequest(case="manev-triangle"))
        assert untimed.to_dict()["timing_seconds"] == 0.0

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


class TestLazyReport:
    """A report keeps its verdict and spectra; the dict is built on the
    first ``to_dict()`` and kept."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_the_verdict_is_read_without_serializing(self, name, monkeypatch):
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())

        def refuse(*args):
            raise AssertionError("the report was serialized")

        # the analysis itself neither sorts nor labels a spectrum
        monkeypatch.setattr(pipeline, "_c", refuse)
        monkeypatch.setattr(pipeline, "sorted_spectrum", refuse)
        monkeypatch.setattr(pipeline, "classify", refuse)
        report = run_analysis(_preset_request(name))
        assert report.verdict == golden["verdict"]["verdict"]
        assert report.matches_oracle is golden["spectra_match"]["matches"] is True
        assert report.discrepancies == golden["discrepancies"]
        with pytest.raises(AssertionError, match="serialized"):
            report.to_dict()
        monkeypatch.undo()
        data = report.to_dict()
        assert data == golden
        assert report.to_dict() is data and report.data is data
        assert report.discrepancies is data["discrepancies"]

    def test_grid_verdicts_need_no_sort_and_no_labels(self, monkeypatch):
        # the verdict is read off the unsorted oracle spectrum; the dict
        # builds the sorted oracle and its labels with classify, as every
        # report did before
        requests = [AnalysisRequest(case=name, alpha=alpha)
                    for name in HOMOGENEOUS_PRESETS for alpha in PRESET_ALPHAS]
        expected = [(d["verdict"]["verdict"], d["spectra_match"]["matches"], d["discrepancies"])
                    for d in (run_analysis(r).to_dict() for r in requests)]
        assert {verdict for verdict, _, _ in expected} == {UNSTABLE}

        def refuse(*args):
            raise AssertionError("a spectrum was sorted or labelled")

        monkeypatch.setattr(pipeline, "sorted_spectrum", refuse)
        monkeypatch.setattr(pipeline, "classify", refuse)
        reports = [run_analysis(r) for r in requests]
        assert [(r.verdict, r.matches_oracle, r.discrepancies) for r in reports] == expected

    def test_the_dynamics_section_predicts_the_labelled_max_real_part(self):
        request = replace(_preset_request("triangle-homogeneous"), with_dynamics=True)
        section = run_analysis(request).to_dict()["dynamics"]
        eq, _ = request.equilibrium()
        labelled = classify(sorted_spectrum(full_linearization_spectrum(eq)))
        assert section["predicted_rate"] == labelled.max_real_part
        assert section == pipeline._dynamics_section(eq, labelled.max_real_part)

    @pytest.mark.parametrize("request_", [
        _preset_request("triangle-homogeneous"),
        AnalysisRequest(positions=tuple(regular_polygon(5).positions), alpha=1.0,
                        with_dynamics=True),
        # equal masses at -1, 0, 1: central by symmetry, and no polygon
        AnalysisRequest(positions=(-1.0, 0.0, 0.0, 0.0, 1.0, 0.0), alpha=1.0),
    ], ids=["preset", "pentagon-with-dynamics", "collinear"])
    def test_a_report_keeps_no_equilibrium_alive(self, request_):
        # a sweep keeps every report; none may hold its point's Hessians
        report, eq, decomposition = pipeline._analysis(request_, None)
        ref = weakref.ref(eq)
        del eq, decomposition
        gc.collect()
        assert ref() is None
        assert report.to_dict()["verdict"]["verdict"] == report.verdict


class TestConsistencyError:
    def test_names_stage_distance_and_worst_pair(self, monkeypatch):
        monkeypatch.setattr(pipeline, "COMPARE_TOL", 1e-30)
        with pytest.raises(ConsistencyError) as err:
            run_analysis(AnalysisRequest(case="triangle-homogeneous", alpha=1.0))
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
            return type(deco)(deco.blocks[1:], deco.block_spectra[1:], deco.coupled_spectra, None)

        monkeypatch.setattr(pipeline, "decompose_blocks", drop_a_block)
        with pytest.raises(ConsistencyError) as err:
            run_analysis(_preset_request("triangle-homogeneous"))
        assert str(err.value) == (
            "block union vs oracle: block union has 8 eigenvalues, the oracle 12"
        )


def _near_polygon_masses():
    """200 masses that alternate 1 and 1 + 3e-11: central to within its test,
    taken for a 200-gon, but its Hessian's invariance defect is 2.1e-3,
    past the trace route's gate of 1e-8 max |H| = 1.5e-3."""
    masses = np.ones(200)
    masses[1::2] += 3e-11
    return masses


class TestTraceRouteFailure:
    POSITIONS = tuple(regular_polygon(200).positions)

    def test_is_a_consistency_error_naming_defect_and_bound(self):
        with pytest.raises(ConsistencyError) as err:
            run_analysis(AnalysisRequest(positions=self.POSITIONS,
                                         masses=tuple(_near_polygon_masses()),
                                         potential=((1.0, 1.0),)))
        assert err.value.stage == "trace equations"
        words = str(err.value).split()
        defect = float(words[words.index("defect") + 1])
        bound = float(words[words.index("bound") + 1])
        assert defect == pytest.approx(2.13e-3, rel=1e-2)
        assert bound == pytest.approx(1.55e-3, rel=1e-2)

    def _argv(self):
        return ["--positions=" + ",".join(repr(float(x)) for x in self.POSITIONS),
                "--masses=" + ",".join(repr(float(m)) for m in _near_polygon_masses())]

    def test_analyze_exits_3(self, capsys):
        assert cli_main(["analyze", *self._argv(), "--potential", "1:1"]) == 3
        assert capsys.readouterr().err.startswith(
            "internal consistency failure: trace equations: ")

    def test_sweep_lists_the_point_and_exits_3(self, capsys):
        assert cli_main(["sweep", *self._argv(), "--grid", "1"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("1       FAILED: trace equations: ")


class TestComputedOnce:
    @pytest.mark.parametrize("with_dynamics", [False, True])
    def test_one_equilibrium_per_run(self, monkeypatch, with_dynamics):
        calls = {"potential_hessian": 0, "is_central_configuration": 0, "block_symplectic": 0}

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
        # and dynamics' own binding, which the equilibrium check calls
        monkeypatch.setattr(dynamics, "is_central_configuration",
                            counting("is_central_configuration", dynamics))
        built, directions = [], []
        real_init = model.Equilibrium.__post_init__

        def record_build(eq):
            real_init(eq)
            built.append(eq)

        real_direction = dynamics.worst_direction

        def record_direction(eq):
            directions.append(eq)
            return real_direction(eq)

        real_integrate = dynamics.integrate_rotating_frame

        def ten_steps(config, spec, **kwargs):
            # the integrator's length does not change what is computed once
            return real_integrate(config, spec, **{**kwargs, "duration": 10 * kwargs["dt"]})

        monkeypatch.setattr(model.Equilibrium, "__post_init__", record_build)
        monkeypatch.setattr(dynamics, "worst_direction", record_direction)
        monkeypatch.setattr(dynamics, "integrate_rotating_frame", ten_steps)
        request = AnalysisRequest(case="square-homogeneous", alpha=1.0,
                                  with_dynamics=with_dynamics)
        report = run_analysis(request)
        # Jhat is built once, by the Equilibrium; the pairing and the
        # integrator apply it in closed form.  The dynamics section's
        # equilibrium check runs the centrality test once more, for the
        # residual F its pin is compared with as F / m.
        assert calls == {"potential_hessian": 1, "is_central_configuration": 1 + with_dynamics,
                         "block_symplectic": 1}
        # Hw is built by the one Equilibrium; the growth fit uses that same one
        assert len(built) == 1
        assert directions == (built if with_dynamics else [])
        assert (report.to_dict()["dynamics"] is not None) == with_dynamics

    @pytest.mark.parametrize("request_", [
        AnalysisRequest(case="square-homogeneous", alpha=1.0),
        AnalysisRequest(positions=tuple(regular_polygon(5).positions),
                        potential=((1.0, 1.0), (1.0, 3.0))),
    ], ids=["preset", "explicit"])
    def test_one_separation_pass_per_run(self, monkeypatch, request_):
        # the configuration keeps the (d, r) of its collision check, and the
        # centrality test, the Hessian and the report's energies read them:
        # one pass per configuration, so a run on a cold configuration makes
        # exactly one, and a second run on a preset's shared one none
        passes = []
        real = model.BodyPairs.separations

        def counted(pairs, points):
            passes.append(points.shape)
            return real(pairs, points)

        monkeypatch.setattr(model.BodyPairs, "separations", counted)
        presets._unit_polygon.cache_clear()
        run_analysis(request_)
        assert len(passes) == 1
        run_analysis(request_)
        assert len(passes) == (1 if request_.case else 2)

    @pytest.mark.parametrize("request_", [
        AnalysisRequest(case="manev-square"),
        AnalysisRequest(positions=tuple(regular_polygon(5).positions),
                        potential=((1.0, 1.0), (1.0, 3.0))),
    ], ids=["preset", "explicit"])
    def test_one_energy_pass_per_run(self, monkeypatch, request_):
        # the report's energies and inertia are those of the centrality pass
        calls = []
        real = model.BodyPairs.energy_terms

        def counted(pairs, sep, terms):
            calls.append(terms)
            return real(pairs, sep, terms)

        monkeypatch.setattr(model.BodyPairs, "energy_terms", counted)
        data = run_analysis(request_).to_dict()
        assert len(calls) == 1
        config, spec, _ = request_.resolve()
        assert data["potential_terms"] == real(config.pairs, config.separations,
                                               spec.terms).tolist()
        assert data["moment_of_inertia"] == config.pairs.inertia(config.points)

    def test_no_representation_matrix_is_built(self, monkeypatch):
        # the trace route reads H's body blocks and the wave-number bases;
        # no 2n x 2n representation matrix (nor a projector summed from them)
        def refuse(group):
            raise AssertionError(f"representation matrices built for n = {group.n}")

        monkeypatch.setattr(checks, "representation_matrices", refuse)
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

    def test_labels_read_the_decomposition_not_the_report(self, monkeypatch):
        # the summary labels the block that holds z, read off the
        # decomposition; no report is serialized to find it
        def refuse(report):
            raise AssertionError("run_sweep serialized a report")

        monkeypatch.setattr(StabilityReport, "to_dict", refuse)
        result = run_sweep(AnalysisRequest(case="triangle-homogeneous"), [1.9, 2.0, 2.1])
        assert dict(result.summary) == {1.9: "pure-imaginary", 2.0: "zero", 2.1: "real"}

    def test_typed_triangle_labels_its_homographic_block(self):
        # typed to 9 digits, the triangle at alpha = 1.1 pairs only its
        # translations; z lies in a coupled block of four eigenvalues, the
        # homographic 0, 0, +-i s of the exact triangle's z pair
        positions = tuple(np.round(regular_polygon(3).positions, 9))
        request = AnalysisRequest(positions=positions, alpha=1.1)
        _, eq, typed = pipeline._analysis(request, None)
        _, _, exact = pipeline._analysis(
            AnalysisRequest(positions=tuple(regular_polygon(3).positions), alpha=1.1), None)
        assert len(typed.blocks) == 1 and typed.z_block == 1
        got = typed.coupled_spectra[0]
        want = exact.block_spectra[exact.z_block]
        assert len(got) == 4
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(want), rtol=0,
                                   atol=1e-6 * eq.omega)
        assert dict(run_sweep(request, [1.1]).summary) == {1.1: "pure-imaginary"}

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

    def test_keeps_the_coefficient_of_a_single_term_potential(self):
        # each grid point analyzes c r^-alpha, as analyze does
        positions = tuple(regular_polygon(3).positions)
        swept = run_sweep(AnalysisRequest(positions=positions, potential=((2.0, 1.0),)), [1.0])
        alone = run_analysis(AnalysisRequest(positions=positions, potential=((2.0, 1.0),)))
        data = swept.reports[0][1].to_dict()
        assert data["potential"] == alone.to_dict()["potential"] == "2*r^-1"
        for key in ("omega_squared", "blocks", "oracle_spectrum", "verdict"):
            assert data[key] == alone.to_dict()[key], key


    def test_a_single_term_potential_sweeps_as_analyze_runs(self):
        # every grid point's request gives alpha and its one term c:alpha,
        # which resolve accepts
        positions = tuple(regular_polygon(3).positions)
        grid = [0.5, 1.0, 2.5]
        swept = run_sweep(AnalysisRequest(positions=positions, potential=((2.0, 1.0),)), grid)
        assert not swept.failures
        for alpha, report in swept.reports:
            alone = run_analysis(AnalysisRequest(positions=positions, alpha=alpha,
                                                 potential=((2.0, alpha),)))
            assert report.to_dict() == alone.to_dict(), alpha


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

    def test_analyze_alpha_contradicting_the_potential_exit_2(self, capsys):
        code = cli_main(["analyze", "--positions=1,0,-0.5,0.8660254037844386,-0.5,"
                         "-0.8660254037844386", "--potential", "1:1", "--alpha", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: alpha=2 contradicts the potential 1*r^-1; give alpha only "
            "with the one term c:alpha\n")

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

    def test_analyze_odd_coordinate_count_exit_2(self, capsys):
        # with the masses defaulted, five coordinates are not two bodies
        code = cli_main(["analyze", "--positions", "1,0,0,1,-1", "--alpha", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: positions need an x and a y per body: got 5 coordinates\n")

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

    @pytest.mark.parametrize("argv, flag", [
        (["--kick", "--epsilon", "0"], "--epsilon"),
        (["--periods", "nan"], "--periods"),
        (["--periods", "-1"], "--periods"),
        (["--steps-per-period", "0"], "--steps-per-period"),
    ], ids=["epsilon-zero", "periods-nan", "periods-negative", "steps-zero"])
    def test_simulate_rejects_bad_numbers(self, capsys, argv, flag):
        assert cli_main(["simulate", "--case", "manev-triangle", *argv]) == 2
        assert (f"input error: {flag} must be finite and positive"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("epsilon", ["1e-3", "9e-4"])
    def test_simulate_rejects_an_epsilon_leaving_less_than_a_decade(self, capsys, epsilon):
        # at 1e-3 the window [10 epsilon, 1e-2] was empty, and at 9e-4 it held
        # fewer than the fit's 8 samples: both printed rate 0.0 with
        # no_growth, though Re lambda = 0.977
        argv = ["simulate", "--case", "manev-triangle", "--kick", "--epsilon", epsilon]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --epsilon: ")
        assert "100 * epsilon must be at most GROWTH_WINDOW_TOP * radius = 0.01" in err

    def test_analyze_timing(self, capsys):
        assert cli_main(["analyze", "--case", "manev-triangle", "--timing",
                         "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["timing_seconds"] > 0
        assert cli_main(["analyze", "--case", "manev-triangle", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["timing_seconds"] == 0.0

    @pytest.mark.parametrize("argv, message", [
        (["--positions", "1,0,-1,nan", "--alpha", "1"], "positions must be finite"),
        (["--positions", "1,0,-1,0", "--masses", "1,inf", "--alpha", "1"],
         "masses must be finite"),
        (["--positions", "1,0,-1,0", "--alpha", "nan"],
         "potential coefficients and exponents must be finite"),
        (["--positions", "1,0,-1,0", "--potential", "1:1,inf:2"],
         "potential coefficients and exponents must be finite"),
    ], ids=["positions", "masses", "alpha", "potential"])
    def test_non_finite_input_is_named(self, capsys, argv, message):
        with np.errstate(all="raise"):
            assert cli_main(["analyze", *argv]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_case_with_positions_exit_2(self, capsys):
        code = cli_main(["analyze", "--case", "triangle-homogeneous", "--alpha", "1",
                         "--positions", "0,0,3,0,0,5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: give either a preset case or positions\n")

    def test_sweep_table_serializes_no_report(self, capsys, monkeypatch):
        def refuse(report):
            raise AssertionError("the table serialized a report")

        monkeypatch.setattr(StabilityReport, "to_dict", refuse)
        assert cli_main(["sweep", "--case", "triangle-homogeneous",
                         "--grid", "1.9,2,2.1"]) == 0
        assert capsys.readouterr().out == (
            "alpha   component-1 modes   verdict\n"
            "1.9     pure-imaginary      spectrally-unstable\n"
            "2       zero                spectrally-unstable\n"
            "2.1     real                spectrally-unstable\n")

    def test_sweep_json_holds_every_report(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        assert cli_main(["sweep", "--case", "triangle-homogeneous", "--grid", "1.9,2",
                         "--format", "json", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        data = json.loads(printed)
        for entry in data["reports"]:
            alone = run_analysis(AnalysisRequest(case="triangle-homogeneous",
                                                 alpha=entry["alpha"]))
            assert entry["report"] == alone.to_dict()

    def test_sweep_table(self, capsys):
        code = cli_main([
            "sweep", "--case", "triangle-homogeneous", "--grid", "1.9,2.0,2.1",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "pure-imaginary" in text and "zero" in text and "real" in text

    @pytest.mark.parametrize("argv", [
        ["--case", "manev-triangle", "--grid", "1"],
        ["--case", "triangle-homogeneous", "--positions", "1,0,0,1,-1,0", "--grid", "1"],
        ["--case", "triangle-homogeneous", "--grid", "1,-1"],
    ], ids=["alpha-on-fixed-preset", "case-with-positions", "negative-alpha"])
    def test_sweep_with_input_errors_exit_2(self, capsys, argv):
        # the table still lists every grid point, the failed ones with their error
        assert cli_main(["sweep", *argv]) == 2
        assert "FAILED: " in capsys.readouterr().out

    def test_sweep_with_only_consistency_failures_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "COMPARE_TOL", 1e-30)
        assert cli_main(["sweep", "--case", "triangle-homogeneous", "--grid", "1,2"]) == 3
        assert capsys.readouterr().out.count("FAILED: block union vs oracle") == 2

    @pytest.mark.parametrize("command, flag", [
        *(("presets", flag) for flag in _INPUT_FLAGS + ("--tol",)),
        *(("selfcheck", flag) for flag in _INPUT_FLAGS + ("--tol", "--out", "--format")),
        ("simulate", "--tol"),
        ("analyze", "--tol"),
        ("sweep", "--tol"),
        ("sweep", "--alpha"),
    ])
    def test_flag_the_command_does_not_read_exit_2(self, capsys, command, flag):
        required = {"simulate": ["--case", "manev-square"],
                    "analyze": ["--case", "manev-square"],
                    "sweep": ["--case", "triangle-homogeneous", "--grid", "1"]}
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *required.get(command, []), flag, _FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

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

    def test_simulate_dump_is_the_per_value_float_records(self, capsys, tmp_path, monkeypatch):
        # records() converts each state by tolist(); the dumped JSON is byte
        # for byte that of converting each value by float()
        from relequil import dynamics

        def per_value(traj):
            return [{"t": float(t), "state": list(map(float, s)), "energy": float(e)}
                    for t, s, e in zip(traj.times, traj.states, traj.jacobi_energy)]

        argv = ["simulate", "--case", "manev-square", "--periods", "0.05",
                "--steps-per-period", "2000", "--dump", "--format", "json", "--out"]
        assert cli_main([*argv, str(tmp_path / "tolist.json")]) == 0
        monkeypatch.setattr(dynamics.Trajectory, "records", per_value)
        assert cli_main([*argv, str(tmp_path / "float.json")]) == 0
        dumped = (tmp_path / "tolist.json").read_bytes()
        assert dumped == (tmp_path / "float.json").read_bytes()
        assert len(json.loads(dumped)["trajectory"]) > 1

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RELEQUIL_OUT_DIR", str(tmp_path))
        code = cli_main(["presets", "--format", "json"])
        assert code == 0
        assert (tmp_path / "presets.json").exists()
