"""roughsim's layers as the traced run sees them.

`install` wraps each public function under the name its caller looks it up
by: `pricing.smile` finds `draw_shocks` as `roughsim.pricing.draw_shocks`,
the per-path generators are looked up both as `roughsim.shocks.path_rng`
and as `roughsim.volterra.path_rng`, and so on. `op_layer_metrics` turns one
op's spans and counts into the per-layer metrics of `PER_LAYER`.
"""

from __future__ import annotations

from roughsim import models, pricing, shocks, trees, validation, volterra

from tracing import layer_times

TOTAL, SELF, CALLS, COUNT = "total", "self", "calls", "count"

# metric -> (unit, source, span name or count key); "total" is inclusive
# span time, "self" excludes child spans, "calls" counts spans
PER_LAYER = {
    "shocks.draw_s": ("s", TOTAL, "shocks.draw"),
    "shocks.rng_s": ("s", SELF, "shocks.rng"),
    "shocks.generators": ("count", CALLS, "shocks.rng"),
    "shocks.normals": ("count", COUNT, "shocks.normals"),
    "volterra.conv_s": ("s", SELF, "volterra.conv"),
    "volterra.conv_calls": ("count", CALLS, "volterra.conv"),
    "volterra.conv_bytes_computed": ("bytes", COUNT, "volterra.conv_bytes_computed"),
    "volterra.rdonsker_self_s": ("s", SELF, "volterra.rdonsker"),
    "volterra.hybrid_self_s": ("s", SELF, "volterra.hybrid"),
    "volterra.euler_s": ("s", SELF, "volterra.euler"),
    "volterra.covariance_s": ("s", SELF, "volterra.covariance"),
    "volterra.cholesky_self_s": ("s", SELF, "volterra.cholesky"),
    "kernels.weights_s": ("s", SELF, "kernels.weights"),
    "kernels.weight_tables": ("count", CALLS, "kernels.weights"),
    "models.phi_s": ("s", SELF, "models.phi"),
    "models.q_profile_s": ("s", SELF, "models.q_profile"),
    "models.clamp_cells": ("count", COUNT, "models.clamp_cells"),
    "pricing.smile_s": ("s", TOTAL, "pricing.smile"),
    "pricing.self_s": ("s", SELF, "pricing.smile"),
    "pricing.bs_s": ("s", SELF, "pricing.bs"),
    "pricing.iv_s": ("s", TOTAL, "pricing.iv"),
    "pricing.chunks": ("count", COUNT, "pricing.chunks"),
    "pricing.iv_nan": ("count", COUNT, "pricing.iv_nan"),
    "trees.build_s": ("s", TOTAL, "trees.build"),
    "trees.induction_s": ("s", TOTAL, "trees.induction"),
    "trees.nodes": ("count", COUNT, "trees.nodes"),
    "trees.ram_bytes": ("bytes", COUNT, "trees.ram_bytes"),
    "trees.spilled_bytes": ("bytes", COUNT, "trees.spilled_bytes"),
    "validation.check_s": ("s", TOTAL, "validation.check"),
    "validation.self_s": ("s", SELF, "validation.check"),
    "trace.unattributed_s": ("s", SELF, "op"),
}
# per-layer metrics of the whole run rather than of one op
RUN_LEVEL = {
    "validation.pass_ratio": "ratio",
    "trace.overhead_s": "s",
}
# counts that depend on the drawn paths; every other count is the same for
# every op of a workload
SEED_DEPENDENT = ("models.clamp_cells", "pricing.iv_nan")


def exact_counts():
    """Names of the per-layer metrics that are exact counts."""
    return [name for name, (unit, source, _) in PER_LAYER.items()
            if source in (CALLS, COUNT)]


def _count_chunk(tracer, result, *args, **kwargs):
    tracer.add("pricing.chunks", 1)
    rows, steps = result.zeta.shape
    # two normals per base path and step, whatever the antithetic layout
    tracer.add("shocks.normals", 2 * (rows // result.antithetic_group) * steps)


def _count_conv(tracer, result, weights, increments, *args, **kwargs):
    rows, steps = increments.shape
    # increments and weights read, paths written
    tracer.add("volterra.conv_bytes_computed",
               8 * (rows * steps + steps + rows * (steps + 1)))


def _count_hybrid(tracer, result, hurst, shocks_base, *args, antithetic_group=1,
                  **kwargs):
    rows, steps = shocks_base.shape
    if hurst != 0.5:
        tracer.add("shocks.normals", (rows // antithetic_group) * steps)


def _count_cholesky(tracer, result, kernel, grid, num_paths, seed):
    tracer.add("shocks.normals", num_paths * grid.n)


def _count_clamps(tracer, result, *args, **kwargs):
    tracer.add("models.clamp_cells", result.stats.get("clamp_cells", 0))


def install(tracer):
    """Wrap every traced entry point where its callers look it up."""
    wrap = tracer.wrap
    wrap(shocks, "path_rng", "shocks.rng")
    wrap(volterra, "path_rng", "shocks.rng")
    wrap(pricing, "draw_shocks", "shocks.draw", count=_count_chunk)
    wrap(volterra, "convolve_gfo", "volterra.conv", count=_count_conv)
    wrap(volterra, "euler_diffusion", "volterra.euler")
    wrap(pricing, "rdonsker_volterra", "volterra.rdonsker")
    wrap(pricing, "hybrid_scheme_rl", "volterra.hybrid", count=_count_hybrid)
    wrap(validation, "volterra_covariance", "volterra.covariance")
    wrap(volterra, "volterra_covariance", "volterra.covariance")
    wrap(validation, "cholesky_exact_rl", "volterra.cholesky",
         count=_count_cholesky)
    for module in (volterra, trees):
        wrap(module, "optimal_eval_weights", "kernels.weights")
        wrap(module, "left_point_weights", "kernels.weights")
    wrap(pricing, "phi_apply", "models.phi", count=_count_clamps)
    wrap(models, "squared_integral_profile", "models.q_profile")
    wrap(trees, "squared_integral_profile", "models.q_profile")
    wrap(pricing, "bs_call", "pricing.bs", skip_inside="pricing.iv")
    wrap(pricing, "bs_put", "pricing.bs", skip_inside="pricing.iv")
    wrap(pricing, "implied_vol", "pricing.iv")


def op_layer_metrics(tracer) -> dict:
    """Per-layer metrics of the op whose spans and counts `tracer` holds."""
    times = layer_times(tracer.spans)
    out = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if source == COUNT:
            out[name] = tracer.counts.get(key, 0)
        else:
            total, own, calls = times.get(key, (0.0, 0.0, 0))
            out[name] = {TOTAL: total, SELF: own, CALLS: calls}[source]
    return out
