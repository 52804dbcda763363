"""Inputs that once failed, run the way users run them: through the CLI or
``run_analysis``, which picks the block route from the ``Equilibrium``.

Near-regular polygons (Newton-refined, or typed to 12 digits) and the
unit 64-gon under 1/r + 1/r^3 take the wave-number route; its translation
pairs once got lam of order eps |Hw| in place of 0, which split their
defective +-i omega by sqrt(omega |lam|), past the 1e-9 oracle gate.
"""

import shlex
from pathlib import Path

import numpy as np
import pytest

from relequil.central import regular_polygon
from relequil.cli import main as cli_main
from relequil.pipeline import AnalysisRequest, run_analysis

from conftest import BENCHMARK_POTENTIALS, refined_polygons

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines():
    """The ``relequil analyze`` and ``relequil sweep`` lines of the README's
    "Command line" block, as argument lists.  The ``simulate`` line (about
    5 s) and ``selfcheck`` (about 1 s; acceptance criterion 8 runs its fast
    form) are left out."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [args[1:] for args in lines if args[:2] in (["relequil", "analyze"],
                                                       ["relequil", "sweep"])]


def test_readme_lists_the_examples():
    commands = [args[0] for args in _readme_command_lines()]
    assert commands.count("analyze") >= 4 and commands.count("sweep") >= 1


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_examples_exit_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELEQUIL_OUT_DIR", raising=False)
    assert cli_main(argv) == 0, capsys.readouterr().err


def _assert_matches(positions, terms, label):
    request = AnalysisRequest(positions=tuple(positions), potential=terms)
    report = run_analysis(request)
    match = report.to_dict()["spectra_match"]
    assert report.matches_oracle, (label, match["max_distance"] / match["scale"])
    return request


@pytest.mark.parametrize("label, cfg, spec", refined_polygons(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_refined_polygons(label, cfg, spec):
    # acceptance criterion 4's configurations; k = 11 and 20 once failed
    _assert_matches(cfg.positions, spec.terms, label)


TYPED = ([(n, name) for n in range(4, 9) for name in ("r-1", "manev", "schwarzschild")]
         + [(3, "r-1"), (3, "manev")])


@pytest.mark.parametrize("n, potential", TYPED)
def test_polygons_typed_to_12_digits(n, potential):
    # the unit triangle under 1/r + 1/r^3 is left out: its oracle takes the
    # rotation chain where the blocks have the homographic plane (ROADMAP)
    request = _assert_matches(np.round(regular_polygon(n).positions, 12),
                              BENCHMARK_POTENTIALS[potential], f"n={n} {potential}")
    assert request.equilibrium()[0].config.waves is not None


def test_unit_64_gon_schwarzschild():
    _assert_matches(regular_polygon(64).positions, BENCHMARK_POTENTIALS["schwarzschild"],
                    "64-gon")
