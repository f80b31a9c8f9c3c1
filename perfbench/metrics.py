"""Every metric the benchmark reports: name, unit, better direction, scope.

``END_TO_END`` metrics come from untraced runs (``--trace 0``), ``PER_LAYER``
metrics from traced runs (``--trace 1``).  For a layer metric, ``moves``
names the end-to-end metric and workload it should move, written down
before any change is measured.  ``BENCHMARK.json`` lists the same names and
units; ``smoke.py`` checks that the two agree.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from tracing import LAYERS

WORKLOADS = ("stable_roundtrip", "vector_chains", "scalar_numerics")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    applies: tuple[str, ...] = WORKLOADS
    moves: str = ""


END_TO_END = [
    Metric("wall_ref", "ref", "lower",
           moves="median wall time of the whole job (all its CLI calls) at --threads 1, "
                 "in units of the reference computation timed around it"),
    Metric("wall_ref_2t", "ref", "lower",
           moves="the same job at --threads 2; thread scaling shows on vector_chains, "
                 "the one workload spanning several 16384-path blocks"),
    Metric("setup_s", "s", "lower",
           moves="median of fresh interpreters that import levylab and write the inputs"),
    Metric("peak_rss_mb", "MB", "lower",
           moves="peak resident memory of the benchmark process over the run's jobs"),
]

ALL = WORKLOADS
_RT, _VC, _SN = WORKLOADS
PER_LAYER = [
    Metric("cli.paths_to_csv.s", "s", "lower", ALL,
           "wall_ref and peak_rss_mb on stable_roundtrip; a small share of vector_chains"),
    Metric("cli.paths_to_csv.rows", "count", "lower", ALL, "output size; repeats exactly"),
    Metric("cli.paths_to_csv.mb", "MB", "lower", ALL,
           "peak_rss_mb and wall_ref on stable_roundtrip"),
    Metric("cli.atomic_write_text.s", "s", "lower", ALL, "wall_ref on stable_roundtrip"),
    Metric("cli.read_paths_csv.s", "s", "lower", (_RT,), "wall_ref on stable_roundtrip only"),
    Metric("cli.read_paths_csv.rows", "count", "lower", (_RT,),
           "read-back size on stable_roundtrip; repeats exactly"),
    Metric("cli.self_s", "s", "lower", ALL,
           "cli.run minus its child spans (parse, model load, manifest); wall_ref everywhere"),
    Metric("stable.stable_chain_simulate.s", "s", "lower", (_RT, _VC),
           "wall_ref and wall_ref_2t on vector_chains; ~11% of stable_roundtrip"),
    Metric("stable.stable_chain_simulate.path_steps_per_s", "1/s", "higher", (_RT, _VC),
           "wall_ref and wall_ref_2t on vector_chains"),
    Metric("euler.euler_chain_simulate.s", "s", "lower", (_VC,), "wall_ref on vector_chains"),
    Metric("euler.euler_chain_simulate.path_steps_per_s", "1/s", "higher", (_VC,),
           "wall_ref and wall_ref_2t on vector_chains"),
    Metric("potential.potential_chain_simulate.s", "s", "lower", (_VC, _SN),
           "wall_ref on vector_chains (lattice branch) and scalar_numerics (generic solver)"),
    Metric("potential.potential_chain_simulate.path_steps_per_s", "1/s", "higher", (_VC, _SN),
           "wall_ref on vector_chains and scalar_numerics"),
    Metric("environment.rwre_simulate.s", "s", "lower", (_VC,), "wall_ref on vector_chains"),
    Metric("environment.rwre_simulate.path_steps_per_s", "1/s", "higher", (_VC,),
           "wall_ref and wall_ref_2t on vector_chains"),
    Metric("potential.psi_solve_many.calls", "count", "lower", (_VC, _SN),
           "wall_ref on scalar_numerics; builds the lattice table on vector_chains"),
    Metric("potential.psi_solve_many.s", "s", "lower", (_VC, _SN), "wall_ref on scalar_numerics"),
    Metric("potential.phi_eval.calls", "count", "lower", (_VC, _SN),
           "wall_ref on scalar_numerics"),
    Metric("potential.phi_eval.s", "s", "lower", (_VC, _SN), "wall_ref on scalar_numerics"),
    Metric("potential.phi_per_psi", "ratio", "lower", (_VC, _SN),
           "phi_eval calls per psi_solve_many call; wall_ref on scalar_numerics"),
    Metric("potential.p_eval_many.s", "s", "lower", (_VC, _SN), "wall_ref on scalar_numerics"),
    Metric("potential.exp_integral.calls", "count", "lower", (_SN,),
           "wall_ref on scalar_numerics"),
    Metric("potential.exp_integral.s", "s", "lower", (_SN,), "wall_ref on scalar_numerics"),
    Metric("quad.calls", "count", "lower", (_SN,), "wall_ref on scalar_numerics"),
    Metric("operators.convergence_gaps.s", "s", "lower", (_SN,), "wall_ref on scalar_numerics"),
    Metric("operators.measure_integral.calls", "count", "lower", (_SN,),
           "wall_ref on scalar_numerics"),
    Metric("operators.chi_quadratic_matrix.calls", "count", "lower", (_SN,),
           "wall_ref on scalar_numerics"),
    Metric("diagnostics.explosion_stats.s", "s", "lower", (_RT, _VC),
           "stable_roundtrip; negligible today, kept as a guard"),
    *[Metric(f"layer_self_s.{layer}", "s", "lower", ALL,
             f"self time of every {layer} span; the layer self times sum to the traced wall")
      for layer in LAYERS],
    Metric("trace_overhead_frac", "frac", "lower", ALL,
           "traced wall_ref over untraced wall_ref, minus 1"),
    Metric("failed_frac", "frac", "lower", ALL,
           "failed operations (CLI calls and output checks) over attempted ones"),
]


def highest_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]


def describe(values: list[float]) -> dict:
    """Median, sample count and the highest supported percentile of ``values``."""
    out = {"median": statistics.median(values), "samples": len(values)}
    top = highest_percentile(values)
    if top is not None:
        out[f"p{top[0]}"] = top[1]
    return out
