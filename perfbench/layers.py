"""Which library functions the traced run wraps, and where each must show.

Layers are the modules of ``latticealign``.  ``lattice`` (the quantizer
toolkit) and ``closedform`` (``analyze symmetric``, microseconds) sit on no
user path that costs time, so they are left unmeasured on purpose.

Each entry of WRAPPED is ``(module, attribute)``; the metric prefix is
``<module>.<attribute>``.  ``solver.minimize`` is scipy's ``minimize`` as the
solver module sees it, and ``channel.ChannelSet`` times construction of a
channel set.
"""

WRAPPED = (
    ("solver", "multi_start"),
    ("solver", "solve"),
    ("solver", "optimize_receivers"),
    ("solver", "decorrelator_robust"),
    ("solver", "decorrelator_closed_form"),
    ("solver", "scaling_candidates"),
    ("solver", "optimize_precoders"),
    ("solver", "minimize"),
    ("rates", "rate_report"),
    ("rates", "goodput"),
    ("rates", "stage1_denominators"),
    ("rates", "stage2_denominators"),
    ("baselines", "distributive_ia_design"),
    ("baselines", "conventional_ia_design"),
    ("baselines", "tdma_design"),
    ("baselines", "two_stage_ml_design"),
    ("channel", "generate_channels"),
    ("channel", "perturb_csi"),
    ("channel", "sample_delta_in_ball"),
    ("channel", "ChannelSet"),
    ("channel", "channelset_from_json"),
    ("gaussint", "common_divisor"),
    ("harness", "run_experiment"),
    ("harness", "write_csv"),
    ("cli", "main"),
)

UNMEASURED_LAYERS = ("lattice", "closedform")

# The workloads listed in BENCHMARK.json, whose end-to-end metrics are gated.
# Together they reach every measured layer.
WORKLOADS = ("sweep-robust", "solve-large")

# Runnable by name and by ``--workload all``, but not gated: on a shared
# 2-core machine the whole run-time budget goes to longer runs of the two
# gated workloads.  ``certify``'s robust designs also vary so much in cost
# from channel to channel that its design-time median spreads by 0.15-0.3
# of itself across seeds.
EXTRA_WORKLOADS = ("sweep-nominal", "certify")

ALL_WORKLOADS = WORKLOADS + EXTRA_WORKLOADS

_SWEEPS = ("sweep-robust", "sweep-nominal")

# Workloads on which each wrapped function must record calls.  The self-test
# checks every pairing; later changes cite this map for where a layer change
# should move the end-to-end metrics:
#   decorrelator_robust, minimize, scaling_candidates -> design_ms_p50,
#       trial_ms_p50 on sweep-robust and solve-large, not sweep-nominal;
#   optimize_precoders -> design_ms_p50 on sweep-nominal and solve-large;
#   distributive_ia_design -> trial_ms_p50 on sweep-nominal (and ~12% of
#       sweep-robust);
#   rate_report, sample_delta_in_ball, ChannelSet -> draws_per_s,
#       trial_ms_p50 and peak_rss_mb on certify, nothing on the sweeps;
#   solve calls per design -> design_ms_p50 everywhere;
#   cli.main, channelset_from_json -> design_ms_p50 on solve-large only.
EXERCISED_ON = {
    "solver.multi_start": ALL_WORKLOADS,
    "solver.solve": ALL_WORKLOADS,
    "solver.optimize_receivers": ALL_WORKLOADS,
    "solver.decorrelator_robust": ("sweep-robust", "certify", "solve-large"),
    "solver.decorrelator_closed_form": ("sweep-nominal",),
    "solver.scaling_candidates": ALL_WORKLOADS,
    "solver.optimize_precoders": ALL_WORKLOADS,
    "solver.minimize": ALL_WORKLOADS,
    "rates.rate_report": ALL_WORKLOADS,
    "rates.goodput": _SWEEPS,
    "rates.stage1_denominators": ALL_WORKLOADS,
    "rates.stage2_denominators": ALL_WORKLOADS,
    "baselines.distributive_ia_design": _SWEEPS,
    "baselines.conventional_ia_design": ALL_WORKLOADS,
    "baselines.tdma_design": _SWEEPS,
    "baselines.two_stage_ml_design": _SWEEPS,
    "channel.generate_channels": _SWEEPS,
    "channel.perturb_csi": ("sweep-robust",),
    "channel.sample_delta_in_ball": ("sweep-robust", "certify"),
    "channel.ChannelSet": ALL_WORKLOADS,
    "channel.channelset_from_json": ("solve-large",),
    "gaussint.common_divisor": ALL_WORKLOADS,
    "harness.run_experiment": _SWEEPS,
    "harness.write_csv": _SWEEPS,
    "cli.main": ("solve-large",),
}

# Functions that must not run at all on a workload: the bypass side of the
# batched receive-side and shared-IA-design optimizations.
NEVER_ON = {
    "solver.decorrelator_robust": ("sweep-nominal",),
    "baselines.distributive_ia_design": ("certify", "solve-large"),
}
