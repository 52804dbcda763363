"""The benchmark's metrics: end to end, and per layer from the traced run.

``MOVES`` records, before any optimisation is measured, which end-to-end
metric (``metric@workload``) a change to each layer should move.  Layer
times and call counts are per attempted operation, so runs of different
lengths compare.
"""

from __future__ import annotations

import resource

import numpy as np

from spans import child_counts, summarize

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "passed_frac": "fraction",
    "peak_rss_mb": "MB",
}


def end_to_end(durations, outcomes, setup_s):
    """Every END_TO_END metric of one untraced run.

    A failed operation counts at the time it took to fail; only passed
    operations count towards the rate, over the time of all operations.
    """
    passed = outcomes.count("ok")
    ms = np.array(durations) * 1e3
    return {
        "setup_s": setup_s,
        "ops_per_s": passed / (ms.sum() / 1e3),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "passed_frac": passed / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


MOVES = {
    "symmetry.build_polygon_symmetry_group.ms": ("op_ms_p50@presets", "op_ms_p90@polygons"),
    "symmetry.character_table.ms": ("op_ms_p50@presets", "op_ms_p90@polygons"),
    "symmetry.eigenvalues_by_trace_equations.ms": ("op_ms_p50@presets", "op_ms_p90@polygons"),
    "symmetry.joint_invariant_subspaces.ms": (
        "op_ms_p90@polygons", "passed_frac@polygons", "op_ms_p50@collinear"),
    "spectrum.purify_eigenvalues.ms": ("op_ms_p50@presets", "op_ms_p90@polygons"),
    "spectrum.purify_moved_frac": ("op_ms_p50@presets", "op_ms_p90@polygons"),
    "spectrum.full_linearization_spectrum.self_ms": ("op_ms_p90@polygons",),
    "spectrum.linearization_matrix.ms": ("op_ms_p90@polygons",),
    "spectrum.decompose_blocks.self_ms": ("op_ms_p90@polygons",),
    "spectrum.compare_spectra.ms": ("op_ms_p90@polygons",),
    "spectrum.classify.ms": ("op_ms_p90@polygons",),
    "spectrum.closed_form_frac": ("passed_frac@polygons", "passed_frac@collinear"),
    "spectrum.match_rel_distance": ("passed_frac@polygons", "passed_frac@collinear"),
    "spectrum.cardinality_mismatch_frac": ("passed_frac@polygons", "passed_frac@collinear"),
    "model.potential_hessian.calls": ("op_ms_p50@presets", "op_ms_p50@collinear"),
    "model.potential_hessian.ms": ("op_ms_p50@presets", "op_ms_p50@collinear"),
    "model.angular_frequency_squared.calls": ("op_ms_p50@presets", "op_ms_p50@collinear"),
    "central.is_central_configuration.ms": ("op_ms_p50@collinear",),
    "central.refine_central_configuration.ms": ("op_ms_p50@collinear",),
    "central.newton_iters": ("op_ms_p50@collinear",),
    "pipeline.run_analysis.self_ms": ("op_ms_p50@presets",),
    "pipeline.polygon_group_for.self_ms": ("op_ms_p50@presets",),
    "dynamics.integrate_rotating_frame.ms": ("ops_per_s@dynamics", "op_ms_p50@dynamics"),
    "dynamics.us_per_step": ("ops_per_s@dynamics", "op_ms_p50@dynamics"),
    "failed_frac": ("passed_frac@polygons", "passed_frac@collinear"),
    "tracing_overhead_frac": (),
}

UNITS = {
    "ms": ("ms", "lower"),
    "self_ms": ("ms", "lower"),
    "calls": ("count", "lower"),
    "spectrum.purify_moved_frac": ("fraction", "lower"),
    "spectrum.closed_form_frac": ("fraction", "higher"),
    "spectrum.match_rel_distance": ("ratio", "lower"),
    "spectrum.cardinality_mismatch_frac": ("fraction", "lower"),
    "central.newton_iters": ("count", "lower"),
    "dynamics.us_per_step": ("us", "lower"),
    "failed_frac": ("fraction", "lower"),
    "tracing_overhead_frac": ("fraction", "lower"),
}


def unit_of(metric):
    """(unit, better) of a per-layer metric."""
    if metric in UNITS:
        return UNITS[metric]
    return UNITS[metric.rsplit(".", 1)[1]]


def _purify(args, kwargs, result):
    return int(np.count_nonzero(result != np.asarray(args[0], dtype=complex))), result.size


def _decompose(args, kwargs, result):
    return 4 * len(result.blocks), 4 * args[0].n


def _compare(args, kwargs, result):
    return result.max_distance / result.scale, result.cardinality_mismatch


def _integrate(args, kwargs, result):
    return int(round(float(result.times[-1]) / kwargs["dt"]))


PROBES = {
    "spectrum.purify_eigenvalues": _purify,
    "spectrum.decompose_blocks": _decompose,
    "spectrum.compare_spectra": _compare,
    "dynamics.integrate_rotating_frame": _integrate,
}


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer, attempted, failed, overhead_frac):
    """Every metric of ``MOVES`` from one traced run; 0.0 where a layer was idle."""
    table = summarize(tracer.spans)
    samples = tracer.samples
    out = {}
    for metric in MOVES:
        fn, _, stat = metric.rpartition(".")
        row = table.get(fn)
        if stat in ("ms", "self_ms", "calls"):
            value = 0.0 if row is None else {
                "ms": row["incl_s"] * 1e3, "self_ms": row["self_s"] * 1e3,
                "calls": row["calls"]}[stat]
            out[metric] = value / attempted
    purify = samples.get("spectrum.purify_eigenvalues", [])
    out["spectrum.purify_moved_frac"] = _ratio(sum(m for m, _ in purify), sum(t for _, t in purify))
    blocks = samples.get("spectrum.decompose_blocks", [])
    out["spectrum.closed_form_frac"] = _ratio(sum(b for b, _ in blocks), sum(t for _, t in blocks))
    compare = samples.get("spectrum.compare_spectra", [])
    finite = [d for d, mismatch in compare if not mismatch]
    out["spectrum.match_rel_distance"] = max(finite, default=0.0)
    out["spectrum.cardinality_mismatch_frac"] = _ratio(sum(m for _, m in compare), len(compare))
    iters = child_counts(tracer.spans, "central.refine_central_configuration",
                         "model.potential_hessian")
    out["central.newton_iters"] = _ratio(sum(iters), len(iters))
    steps = samples.get("dynamics.integrate_rotating_frame", [])
    integrate = table.get("dynamics.integrate_rotating_frame")
    out["dynamics.us_per_step"] = _ratio(integrate["incl_s"] * 1e6, sum(steps)) if steps else 0.0
    out["failed_frac"] = _ratio(failed, attempted)
    out["tracing_overhead_frac"] = overhead_frac
    return {m: out[m] for m in MOVES}, table
