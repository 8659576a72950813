"""Per-layer metrics of one traced pass, from its spans.

The layers are gcsf's four modules.  Function sets are named by
``module.function`` of the definition; the binding a call went through
(``@flow``, ``@geometry``, ...) tells which module made it.
"""

from __future__ import annotations

import math

from tracer import Spans

KERNEL = ["geometry.curvature_radius_samples"]
GEOMETRY_POST = [f"geometry.{name}" for name in (
    "recenter", "steiner_point", "translate", "inradius", "circumradius", "mode_amplitude")]
SOLVERS = ["flow.run_to_extinction", "flow.run_normalized"]
FLOW_POST = [f"flow.{name}" for name in (
    "trace_summary_rows", "extrapolate_extinction", "fit_decay_rate", "area_defect",
    "curvature_integral")]
FLOW_WRITE = ["flow.write_trace_csv"]
MARCHERS = ["solitons.radial_translator", "solitons.translator_1d", "solitons.comparison_ode"]
SOLITON_POST = [f"solitons.{name}" for name in (
    "legendre", "blow_down", "dual_power_fit", "l_sigma_residual", "growth_bound_check",
    "comparison_closed_form")]
SOLITON_WRITE = ["solitons.write_profile_csv", "solitons.write_profile1d_csv",
                 "solitons.write_ode_csv"]
SOLITON_READ = ["solitons.read_profile_csv"]

# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "geometry.kernel.calls": "count",
    "geometry.kernel.us_per_call": "us",
    "geometry.kernel.computed_gflops": "GFLOP/s",
    "geometry.kernel.useful_ratio": "1",
    "geometry.post.self_s": "s",
    "flow.rhs_evals": "count",
    "flow.solver.self_s": "s",
    "flow.solver.us_per_rhs": "us",
    "flow.snapshots": "count",
    "flow.post.calls": "count",
    "flow.post.self_s": "s",
    "flow.write.self_s": "s",
    "solitons.march.self_s": "s",
    "solitons.march.nodes": "count",
    "solitons.march.us_per_node": "us",
    "solitons.post.self_s": "s",
    "solitons.write.self_s": "s",
    "solitons.read.self_s": "s",
    "cli.run.self_s": "s",
    "cli.verify.s": "s",
    "cli.artifact_bytes": "B",
    "cli.artifact_files": "count",
    "cli.write_MBps": "MB/s",
    "cli.sweep.worker_busy_s": "s",
    "cli.sweep.efficiency": "1",
    "trace.overhead_ratio": "1",
}

# Counts that must repeat exactly between passes of one seed.
EXACT = ("geometry.kernel.calls", "flow.rhs_evals", "flow.snapshots", "flow.post.calls",
         "solitons.march.nodes")


def kernel_flops(m: int) -> float:
    """Computed operation count of one s'' + s evaluation on m samples:
    a real FFT and its inverse (2.5 m log2 m each), the spectral multiply
    on m/2 + 1 complex modes (6 each) and the final add (m)."""
    return 5.0 * m * math.log2(m) + 6.0 * (m // 2 + 1) + m


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: Spans, grid: int) -> dict[str, float]:
    """Metrics of one traced pass; the kernel runs on ``grid`` samples.

    Kernel time is inclusive: the only call it makes, ``trig_derivative``,
    is part of the kernel.  Every other time is self time.
    """
    kernel_calls = spans.calls(KERNEL)
    kernel_s = spans.total(KERNEL)
    rhs_evals = spans.calls(KERNEL, binding="flow")
    solver_s = spans.own(SOLVERS)
    nodes = spans.values(MARCHERS)
    march_s = spans.own(MARCHERS)
    write_s = spans.own(FLOW_WRITE) + spans.own(SOLITON_WRITE)
    written = spans.values(FLOW_WRITE + SOLITON_WRITE)
    return {
        "geometry.kernel.calls": kernel_calls,
        "geometry.kernel.us_per_call": 1e6 * _ratio(kernel_s, kernel_calls),
        "geometry.kernel.computed_gflops":
            1e-9 * _ratio(kernel_calls * kernel_flops(grid), kernel_s),
        "geometry.kernel.useful_ratio": _ratio(rhs_evals, kernel_calls),
        "geometry.post.self_s": spans.own(GEOMETRY_POST),
        "flow.rhs_evals": rhs_evals,
        "flow.solver.self_s": solver_s,
        "flow.solver.us_per_rhs":
            1e6 * _ratio(solver_s + spans.total(KERNEL, binding="flow"), rhs_evals),
        "flow.snapshots": int(spans.values(SOLVERS)),
        "flow.post.calls": spans.calls(FLOW_POST),
        "flow.post.self_s": spans.own(FLOW_POST),
        "flow.write.self_s": spans.own(FLOW_WRITE),
        "solitons.march.self_s": march_s,
        "solitons.march.nodes": int(nodes),
        "solitons.march.us_per_node": 1e6 * _ratio(march_s, nodes),
        "solitons.post.self_s": spans.own(SOLITON_POST),
        "solitons.write.self_s": spans.own(SOLITON_WRITE),
        "solitons.read.self_s": spans.own(SOLITON_READ),
        "cli.run.self_s": spans.own(["cli.run_config"]),
        "cli.verify.s": spans.total(["cli.cmd_verify"]),
        "cli.write_MBps": 1e-6 * _ratio(written, write_s),
    }
