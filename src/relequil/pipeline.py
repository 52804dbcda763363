"""End-to-end analysis: configuration -> decomposition -> spectra -> verdict.

A StabilityReport carries the verdict and bundles every computed quantity
next to the case's reference values (with agreement flags) in a versioned,
JSON-compatible dict whose floats round-trip bit-exactly; the dict is
built on first use, so a caller that reads only the verdict builds none.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    BodyConfiguration,
    Equilibrium,
    NonCentralConfigurationError,
    PotentialSpec,
)
from .presets import get_case
from .spectrum import (
    CLASSIFY_TOL,
    ConsistencyError,
    classify,
    compare_spectra,
    decompose_blocks,
    eigenvalue_labels,
    full_linearization_spectrum,
    sorted_spectrum,
)
from .symmetry import InvarianceError, eigenvalues_by_trace_equations

SCHEMA_VERSION = 1

REFERENCE_AGREE_TOL = 1e-9


class InputError(ValueError):
    """Request cannot be resolved into a valid analysis."""


def require_positive(name, value):
    """InputError unless the value is finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise InputError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class AnalysisRequest:
    case: str | None = None
    alpha: float | None = None
    potential: tuple | None = None        # explicit ((c, a), ...) term list
    masses: tuple | None = None
    positions: tuple | None = None
    compare_tol: float = 1e-9
    with_dynamics: bool = False
    with_timing: bool = False

    def __post_init__(self):
        require_positive("compare_tol", self.compare_tol)

    def resolve(self):
        """(config, spec, case_definition_or_None)."""
        if self.case is not None:
            try:
                case = get_case(self.case, self.alpha)
            except (KeyError, ValueError) as exc:
                raise InputError(str(exc)) from exc
            spec = case.potential
            if self.potential is not None:
                raise InputError("give either a preset case or a potential")
            if self.masses is not None:
                raise InputError("give either a preset case or masses")
            if self.positions is not None:
                raise InputError("give either a preset case or positions")
            return case.configuration(), spec, case
        return self._configuration(), self._potential_spec(), None

    def _configuration(self):
        """The BodyConfiguration of the explicit positions and masses."""
        if self.positions is None:
            raise InputError("need a preset case or explicit positions")
        positions = np.asarray(self.positions, dtype=float)
        if self.masses is not None:
            masses = np.asarray(self.masses, dtype=float)
        elif positions.size % 2:
            raise InputError(f"positions need an x and a y per body: got "
                             f"{positions.size} coordinates")
        else:
            masses = np.ones(positions.size // 2)
        try:
            return BodyConfiguration(masses, positions)
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    def _potential_spec(self):
        """The PotentialSpec of an explicit configuration's potential or alpha."""
        if self.potential is None and self.alpha is None:
            raise InputError("explicit configurations need a potential or alpha")
        try:
            spec = (PotentialSpec(tuple(tuple(t) for t in self.potential))
                    if self.potential is not None
                    else PotentialSpec.homogeneous(self.alpha))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if self.potential is not None and self.alpha is not None and (
                len(spec.terms) != 1 or spec.terms[0][1] != float(self.alpha)):
            raise InputError(f"alpha={self.alpha:g} contradicts the potential "
                             f"{spec.describe()}; give alpha only with the one term c:alpha")
        return spec

    def equilibrium(self):
        """(Equilibrium, case_definition_or_None); not central is an input error."""
        config, spec, case = self.resolve()
        return _equilibrium(config, spec), case


def _equilibrium(config, spec):
    """Equilibrium(config, spec); not central is an input error."""
    try:
        return Equilibrium(config, spec)
    except NonCentralConfigurationError as exc:
        raise InputError(f"configuration is not central: residual {exc.residual:.3e}") from exc


def _c(values):
    """{"re", "im"} dicts of an array of values, from one ``tolist`` per part."""
    v = np.asarray(values)
    return [{"re": re, "im": im} for re, im in zip(v.real.tolist(), v.imag.tolist())]


def _spectrum_dicts(values):
    return _c(sorted_spectrum(values))


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """One analysis's verdict, oracle match, omega^2 and discrepancies,
    read without serializing, and its versioned dict.

    ``run_analysis`` gives it a builder over the computed results, and
    ``to_dict()`` (also ``data`` and ``render_table()``) builds the dict
    on first use and returns that same dict after; ``from_dict`` gives it
    a ready dict.  Two reports are equal when their dicts are.
    """

    verdict: str
    matches_oracle: bool
    omega_squared: float
    discrepancies: list
    _build: object = field(repr=False)      # () -> the report's dict

    @functools.cached_property
    def data(self):
        return self._build()

    def to_dict(self):
        return self.data

    def __eq__(self, other):
        if not isinstance(other, StabilityReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    @classmethod
    def from_dict(cls, data):
        if data.get("schema_version") != SCHEMA_VERSION:
            raise InputError(
                f"unsupported report schema {data.get('schema_version')!r}"
            )
        try:
            head = (data["verdict"]["verdict"], data["spectra_match"]["matches"],
                    data["omega_squared"]["computed"], data["discrepancies"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"report dict lacks {exc}") from exc
        return cls(*head, lambda: data)

    def render_table(self):
        d = self.data
        lines = []
        req = d["request"]
        title = req.get("case") or "explicit configuration"
        if req.get("alpha") is not None:
            title += f" (alpha={req['alpha']:g})"
        lines.append(f"case: {title}")
        lines.append(f"potential: {d['potential']}")
        om = d["omega_squared"]
        line = f"omega^2: {om['computed']!r}"
        if om.get("reference") is not None:
            tag = "agrees" if om["agrees"] else "DISAGREES"
            sus = ", suspect reference" if om["reference"]["suspect"] else ""
            line += f"   [reference {om['reference']['value']!r}: {tag}{sus}]"
        lines.append(line)
        cen = d["centrality"]
        lines.append(
            f"centrality residual: {cen['residual']:.3e} (tol {cen['tol']:.3e})"
        )
        if d.get("isotypic"):
            lines.append("isotypic components (irrep: eigenvalues x degree):")
            for comp in d["isotypic"]:
                vals = ", ".join(f"{v!r}" for v in comp["eigenvalues"])
                lines.append(
                    f"  {comp['irrep']} (deg {comp['degree']} x mult "
                    f"{comp['multiplicity']}): {vals}"
                )
        def eigs(blk):
            return ", ".join(f"{e['re']:+.6f}{e['im']:+.6f}i" for e in blk["eigenvalues"])

        lines.append("blocks (lam1, lam2 -> eigenvalues):")
        lines += [f"  ({b['lam1']:+.6f}, {b['lam2']:+.6f}): {eigs(b)}" for b in d["blocks"]]
        lines += [f"  coupled dim {b['dim']}: {eigs(b)}" for b in d.get("coupled_blocks", [])]
        sm = d["spectra_match"]
        lines.append(
            f"block union vs oracle: max distance {sm['max_distance']:.3e} "
            f"({'ok' if sm['matches'] else 'MISMATCH'} at tol {sm['tol']:g})"
        )
        v = d["verdict"]
        lines.append(
            f"verdict: {v['verdict']} (max Re = {v['max_real_part']:.6e}, "
            f"{v['n_zero']} zero and {v['n_pure_imaginary']} imaginary modes)"
        )
        for note in d["discrepancies"]:
            lines.append(f"note: {note}")
        if d.get("reference_notes"):
            lines.append(f"reference notes: {d['reference_notes']}")
        if d.get("dynamics") is not None:
            dy = d["dynamics"]
            if dy.get("growth_rate") is not None:
                lines.append(
                    f"measured growth rate: {dy['growth_rate']:.6f} vs predicted "
                    f"{dy['predicted_rate']:.6f} "
                    f"(rel err {dy['relative_error']:.2%})"
                )
            lines.append(
                f"equilibrium pin at {dy['pin_ratio']:.2f} of its bound; unpinned "
                f"drift over {dy['drift_periods']:g} periods: {dy['equilibrium_drift']:.3e}"
            )
        return "\n".join(lines)


def _against_reference(name, computed, ref, tol, discrepancies):
    """Computed value, reference and agreement; a disagreement is noted."""
    agrees = bool(abs(computed - ref.value) <= tol * (1.0 + abs(ref.value)))
    if not agrees:
        discrepancies.append(
            f"{name} computed {computed!r} differs from reference {ref.value!r}"
            + (" (reference flagged suspect)" if ref.suspect else "")
        )
    return {
        "computed": computed,
        "reference": {"value": ref.value, "suspect": ref.suspect, "note": ref.note},
        "agrees": agrees,
    }


def run_analysis(request):
    """Execute the full pipeline for one request."""
    return _analysis(request, None)[0]


def _analysis(request, config):
    """(report, eq, decomposition) of ``run_analysis`` on ``config``, the
    request's explicit configuration resolved once by ``run_sweep``, or,
    when None, on the request's own."""
    t0 = time.perf_counter()
    if config is None:
        eq, case = request.equilibrium()
    else:
        eq, case = _equilibrium(config, request._potential_spec()), None
    config, spec, omega2, H = eq.config, eq.spec, eq.omega2, eq.H
    discrepancies = []

    omega_entry = {"computed": float(omega2), "reference": None, "agrees": None}
    entry_check = None
    if case is not None:
        omega_entry = _against_reference("omega^2", float(omega2), case.omega_squared,
                                         REFERENCE_AGREE_TOL, discrepancies)
        (row, col), ref = case.hessian_entry
        entry_check = {"index": [row, col], **_against_reference(
            f"Hessian entry {(row, col)}", float(H[row, col]), ref, 1e-12, discrepancies)}

    isotypic = []
    eigen_reference = None
    if config.group is not None:
        try:
            # Hw = H / m at the common mass m of a polygon
            isotypic, computed_multiset = eigenvalues_by_trace_equations(
                H, config.group, eq.wave_spectrum.lam * config.masses[0])
        except InvarianceError as exc:
            raise ConsistencyError("trace equations", str(exc)) from exc
        if case is not None:
            ref_multiset = np.sort(np.concatenate([
                np.full(m, rv.value)
                for rv, m in zip(case.hessian_eigenvalues,
                                 case.eigenvalue_multiplicities)
            ]))
            agrees = bool(
                np.max(np.abs(computed_multiset - ref_multiset))
                <= REFERENCE_AGREE_TOL * (1.0 + np.max(np.abs(ref_multiset)))
            )
            eigen_reference = {
                "values": [rv.value for rv in case.hessian_eigenvalues],
                "multiplicities": list(case.eigenvalue_multiplicities),
                "suspect": any(rv.suspect for rv in case.hessian_eigenvalues),
                "agrees": agrees,
            }
            if not agrees:
                discrepancies.append(
                    "reference Hessian eigenvalue list disagrees with direct "
                    "diagonalization; computed values take precedence"
                )

    decomposition = decompose_blocks(eq)
    union = decomposition.union_spectrum()
    oracle = full_linearization_spectrum(eq)
    match = compare_spectra(union, oracle, tol=request.compare_tol)
    if not match.matches:
        raise ConsistencyError("block union vs oracle", _mismatch(match, union, oracle))
    # labelled in the order the report prints the oracle spectrum
    verdict = classify(sorted_spectrum(oracle))

    dynamics_entry = None
    if request.with_dynamics:
        dynamics_entry = _dynamics_section(eq, verdict)
    timing = (time.perf_counter() - t0) if request.with_timing else 0.0

    # what the dict needs, and no more: holding eq or the decomposition
    # would keep every Hessian of a sweep alive
    omega = eq.omega
    lams = [(float(pair.lam1), float(pair.lam2)) for pair in decomposition.blocks]
    block_spectra, coupled_spectra = decomposition.block_spectra, decomposition.coupled_spectra
    masses, positions, inertia = config.masses, config.positions, config.inertia
    centrality = eq.centrality

    def build():
        blocks = [{
            "lam1": lam1,
            "lam2": lam2,
            "omega": omega,
            "eigenvalues": _c(eigs),
        } for (lam1, lam2), eigs in zip(
            lams, sorted_spectrum(np.reshape(block_spectra, (-1, 4))))]
        coupled = [{
            "dim": len(eigs) // 2,
            "eigenvalues": _spectrum_dicts(eigs),
        } for eigs in coupled_spectra]
        return {
            "schema_version": SCHEMA_VERSION,
            "request": {
                "case": request.case,
                "alpha": request.alpha,
                "compare_tol": request.compare_tol,
                "classify_tol": CLASSIFY_TOL,
            },
            "potential": spec.describe(),
            "configuration": {
                "n": masses.size,
                "masses": [float(m) for m in masses],
                "positions": [float(x) for x in positions],
            },
            "moment_of_inertia": inertia,
            "potential_terms": list(centrality.energy_terms),
            "centrality": {
                "residual": centrality.residual_norm,
                "tol": centrality.tol,
                "multiplier": centrality.multiplier,
            },
            "omega_squared": omega_entry,
            "hessian_entry_check": entry_check,
            "isotypic": isotypic,
            "hessian_eigenvalue_reference": eigen_reference,
            "blocks": blocks,
            "coupled_blocks": coupled,
            "block_union_spectrum": _spectrum_dicts(union),
            "oracle_spectrum": _c(verdict.eigenvalues),
            "spectra_match": {
                "matches": bool(match.matches),
                "max_distance": float(match.max_distance),
                "tol": float(match.tol),
                "scale": float(match.scale),
            },
            "verdict": {
                "verdict": verdict.verdict,
                "max_real_part": verdict.max_real_part,
                "tol": verdict.tol,
                "n_zero": verdict.n_zero,
                "n_pure_imaginary": verdict.n_pure_imaginary,
                "labels": list(verdict.labels),
            },
            "reference_notes": case.notes if case is not None else "",
            "discrepancies": discrepancies,
            "dynamics": dynamics_entry,
            "timing_seconds": timing,
        }

    report = StabilityReport(verdict.verdict, bool(match.matches), omega_entry["computed"],
                             discrepancies, build)
    return report, eq, decomposition


def _mismatch(match, union, oracle):
    """The quantity by which two spectra failed to match."""
    if match.cardinality_mismatch:
        return f"block union has {len(union)} eigenvalues, the oracle {len(oracle)}"
    a, b, _ = match.worst_pairs[0]
    return (
        f"max matched distance {match.max_distance:.3e} exceeds tol {match.tol:g} "
        f"x scale {match.scale:.3e}; worst pair {a:.10g} (union) vs {b:.10g} (oracle)"
    )


def _dynamics_section(eq, verdict):
    from .dynamics import equilibrium_check, estimate_growth_rate, worst_direction

    pin_ratio, drift, _ = equilibrium_check(eq.config, eq.spec, eq.omega2)
    entry = {
        "pin_ratio": pin_ratio,
        "equilibrium_drift": drift,
        "drift_periods": 1.0,
        "growth_rate": None,
        "predicted_rate": None,
        "relative_error": None,
    }
    predicted = verdict.max_real_part
    if predicted > 0.05 * eq.omega:
        est = estimate_growth_rate(eq, worst_direction(eq))
        entry["growth_rate"] = est.rate if not est.no_growth else 0.0
        entry["predicted_rate"] = predicted
        entry["relative_error"] = (
            abs(est.rate - predicted) / predicted if not est.no_growth else 1.0
        )
    return entry


@dataclass(frozen=True)
class SweepResult:
    reports: tuple              # (alpha, report-or-None) in grid order
    failures: tuple             # (alpha, InputError or ConsistencyError)
    summary: tuple              # (alpha, label of the non-structural pair modes)

    def render_table(self):
        lines = ["alpha   component-1 modes   verdict"]
        verdicts = {a: r.verdict for a, r in self.reports if r is not None}
        for alpha, label in self.summary:
            lines.append(
                f"{alpha:<7g} {label:<19} {verdicts.get(alpha, 'failed')}"
            )
        for alpha, error in self.failures:
            lines.append(f"{alpha:<7g} FAILED: {error}")
        return "\n".join(lines)


def run_sweep(base_request, grid):
    """Run the analysis across an alpha grid for a homogeneous case, or for
    an explicit configuration under c r^-alpha, c the coefficient of its one
    potential term (1 without one).

    The summary labels the two non-structural eigenvalues of the block
    that holds the configuration direction z (the trichotomy block): they
    move from pure-imaginary to zero to real as alpha crosses the critical
    exponent.  Explicit positions are resolved into one configuration for
    the whole grid, so what it builds once (its group, wave stack, trivial
    vectors and oracle basis) is built once per sweep.
    """
    if base_request.potential is not None and len(base_request.potential) != 1:
        raise InputError("alpha sweeps need a single-term potential")
    coef = None if base_request.potential is None else base_request.potential[0][0]
    config = None
    if base_request.case is None:
        try:
            config = base_request._configuration()
        except InputError:
            pass        # each grid point resolves it again and reports the error
    reports, failures, summary = [], [], []
    for alpha in grid:
        potential = None if coef is None else ((coef, float(alpha)),)
        try:
            report, eq, decomposition = _analysis(
                replace(base_request, alpha=float(alpha), potential=potential), config)
        except (InputError, ConsistencyError) as exc:
            failures.append((float(alpha), exc))
            reports.append((float(alpha), None))
            continue
        reports.append((float(alpha), report))
        summary.append((float(alpha), _trichotomy_label(decomposition, eq.omega)))
    return SweepResult(tuple(reports), tuple(failures), tuple(summary))


def _trichotomy_label(decomposition, omega):
    """Label of the non-structural mode pair of the block that holds z
    (``BlockDecomposition.z_block``); "unknown" where no block holds z or
    that block does not have four eigenvalues."""
    z = decomposition.z_block
    eigs = () if z is None else (decomposition.block_spectra + decomposition.coupled_spectra)[z]
    if len(eigs) != 4:
        return "unknown"
    keep = np.argsort(np.abs(eigs))[2:]      # drop the two structural zeros
    labels = set(eigenvalue_labels(eigs[keep], CLASSIFY_TOL * omega))
    return labels.pop() if len(labels) == 1 else "/".join(sorted(labels))
