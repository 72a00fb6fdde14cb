"""Experiment driver: sweep methods over SNR / uncertainty / user grids.

Every trial draws one true network and one estimate realization, shared by
all methods, so comparisons are paired.  Seeds for each trial are derived
by hashing the experiment seed together with the grid coordinates, which
keeps a trial's channels stable when other grid points are added or
removed.

Scoring uses goodput: a design commits to its nominal rates (computed on
the estimated channels) and a user collects those bits only if the true
channels support them, otherwise zero.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import baselines
from .channel import ChannelSet, SystemConfig, generate_channels, perturb_csi, snr_db_to_power
from .errors import ConfigurationError
from .rates import goodput, per_stream_rates, rate_report
from .solver import SolverConfig, multi_start

_OUTAGE_TOL = 1e-12

KNOWN_METHODS = (
    "lattice",
    "tdma",
    "two_stage_ml",
    "distributive_ia",
    "conventional_ia",
)

# Lighter tolerances for batch runs; the per-step safeguards in the solver
# still hold exactly, only the stopping points are coarser.
HARNESS_SOLVER = SolverConfig(
    barrier_nu=20.0,
    barrier_tol=1e-5,
    newton_tol=1e-6,
    max_outer_iters=10,
    max_inner_iters=150,
    rate_tol=1e-4,
)


@dataclass(frozen=True)
class ExperimentSpec:
    methods: tuple[str, ...]
    K_grid: tuple[int, ...]
    snr_db_grid: tuple[float, ...]
    epsilon_grid: tuple[float, ...]
    M: int
    N: int
    L: int = 1
    trials: int = 100
    seed: int = 0
    n_starts: int = 2
    objective: str = "worst"
    dist_ia_iters: int = 120
    output_path: str | None = None
    solver: SolverConfig | None = None

    def __post_init__(self):
        if not self.methods:
            raise ConfigurationError("methods must be non-empty")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigurationError(
                    f"unknown method {m!r}; known methods: {', '.join(KNOWN_METHODS)}"
                )
        for name in ("K_grid", "snr_db_grid", "epsilon_grid"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must be non-empty")
        if any(k < 1 for k in self.K_grid):
            raise ConfigurationError("K_grid entries must be >= 1")
        if any(e < 0 for e in self.epsilon_grid):
            raise ConfigurationError("epsilon_grid entries must be >= 0")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.n_starts < 1:
            raise ConfigurationError("n_starts must be >= 1")
        if self.dist_ia_iters < 1:
            raise ConfigurationError("dist_ia_iters must be >= 1")
        if self.objective not in ("worst", "sum"):
            raise ConfigurationError("objective must be 'worst' or 'sum'")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "K_grid", tuple(int(k) for k in self.K_grid))
        object.__setattr__(self, "snr_db_grid", tuple(float(s) for s in self.snr_db_grid))
        object.__setattr__(self, "epsilon_grid", tuple(float(e) for e in self.epsilon_grid))


@dataclass
class ResultRow:
    method: str
    K: int
    M: int
    N: int
    L: int
    snr_db: float
    epsilon: float
    trial: int
    seed: int
    worst_goodput: float
    sum_goodput: float
    r_min_design: float
    converged: bool
    wall_ms: float


def child_seed(base: int, K: int, snr_db: float, epsilon: float, trial: int, tag: str) -> int:
    """Stable per-trial seed from the grid coordinates, not the grid shape."""
    text = f"{base}|K={K}|snr={float(snr_db)!r}|eps={float(epsilon)!r}|trial={trial}|{tag}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _per_user_goodput(nominal: np.ndarray, achieved: np.ndarray) -> np.ndarray:
    out = np.where(nominal <= achieved + _OUTAGE_TOL, nominal, 0.0)
    return np.maximum(out, 0.0)


@dataclass
class _Trial:
    """One paired trial: the channels every method sees, and the designs
    that more than one method uses, each computed on first use."""

    ch: ChannelSet
    cfg: SystemConfig
    spec: ExperimentSpec

    @cached_property
    def ia_design(self):
        """Min-leakage alignment (V, U, leakage trace) on the estimates."""
        rho = self.cfg.gamma * self.cfg.P / self.cfg.L
        return baselines.distributive_ia_design(
            self.ch.Hhat, self.cfg.L, rho, self.spec.dist_ia_iters
        )


def _run_lattice(trial: _Trial):
    ch, cfg, spec = trial.ch, trial.cfg, trial.spec
    solver = spec.solver if spec.solver is not None else HARNESS_SOLVER
    # seed one start from the min-leakage alignment precoders: the plain
    # receive-side fit on those is already at least the alignment rates,
    # so the chosen design never trails that baseline on the same trial
    V_ia, _, _ = trial.ia_design
    st, report, trace = multi_start(
        ch, cfg, n_starts=spec.n_starts, solver=solver, objective=spec.objective,
        extra_precoders=(V_ia.transpose(0, 2, 1),),  # alignment columns -> stream rows
    )
    if spec.objective == "sum":
        designed = np.maximum(per_stream_rates(report, st.a), 0.0)
        true_rep = rate_report(ch.true_view(), st)
        sustained = per_stream_rates(true_rep, st.a)
        g = np.where(designed <= sustained + _OUTAGE_TOL, designed, 0.0)
        per_user = g.sum(axis=1)
    else:
        g = goodput(ch, st, max(0.0, report.r_min))
        per_user = np.full(cfg.K, cfg.L * g)
    return float(per_user.min()), float(per_user.sum()), report.r_min, trace.converged


def _run_tdma(trial: _Trial):
    ch, cfg = trial.ch, trial.cfg
    V = baselines.tdma_design(ch.Hhat, cfg.L)
    nominal = baselines.tdma_per_user_rates(ch.Hhat, V, cfg.P, cfg.gamma, cfg.L)
    achieved = baselines.tdma_per_user_rates(ch.H, V, cfg.P, cfg.gamma, cfg.L)
    g = _per_user_goodput(nominal, achieved)
    return float(g.min()), float(g.sum()), float(nominal.min()), True


def _run_two_stage_ml(trial: _Trial):
    ch, cfg = trial.ch, trial.cfg
    V, U = baselines.two_stage_ml_design(ch.Hhat, cfg.gamma)
    designed = baselines.two_stage_ml_common_rate(ch.Hhat, V, U, cfg.P)
    s1, s2 = baselines.two_stage_ml_constraints(ch.H, V, U, cfg.P)
    sustained = np.minimum(s1, s2)
    g = _per_user_goodput(np.full(cfg.K, designed), sustained)
    return float(g.min()), float(g.sum()), designed, True


def _score_alignment(trial: _Trial, V: np.ndarray, U: np.ndarray):
    """Goodput of an alignment design (V, U), with per-user rates as in ia_stream_rates."""
    ch, cfg = trial.ch, trial.cfg
    rho = cfg.gamma * cfg.P / cfg.L
    nominal = baselines.ia_stream_rates(ch.Hhat, V, U, rho).sum(axis=1)
    achieved = baselines.ia_stream_rates(ch.H, V, U, rho).sum(axis=1)
    g = _per_user_goodput(nominal, achieved)
    return float(g.min()), float(g.sum()), float(nominal.min()), True


def _run_distributive_ia(trial: _Trial):
    V, U, _ = trial.ia_design
    return _score_alignment(trial, V, U)


def _run_conventional_ia(trial: _Trial):
    design = baselines.conventional_ia_design(trial.ch.Hhat, trial.cfg.L)
    if design is None:
        return 0.0, 0.0, 0.0, True
    return _score_alignment(trial, *design)


_METHOD_RUNNERS = {
    "lattice": _run_lattice,
    "tdma": _run_tdma,
    "two_stage_ml": _run_two_stage_ml,
    "distributive_ia": _run_distributive_ia,
    "conventional_ia": _run_conventional_ia,
}


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for K in spec.K_grid:
        for snr_db in spec.snr_db_grid:
            P = snr_db_to_power(snr_db)
            for epsilon in spec.epsilon_grid:
                for trial in range(spec.trials):
                    seed_ch = child_seed(spec.seed, K, snr_db, epsilon, trial, "channel")
                    seed_pert = child_seed(spec.seed, K, snr_db, epsilon, trial, "perturb")
                    cfg = SystemConfig(
                        K=K, M=spec.M, N=spec.N, L=spec.L,
                        P=P, epsilon=epsilon, seed=seed_ch,
                    )
                    ch = generate_channels(cfg)
                    if epsilon > 0:
                        ch = perturb_csi(ch, epsilon, seed_pert)
                    # a shared design is timed as part of the first method using it
                    trial_data = _Trial(ch, cfg, spec)
                    for method in spec.methods:
                        runner = _METHOD_RUNNERS[method]
                        t0 = time.perf_counter()
                        worst_g, sum_g, r_design, converged = runner(trial_data)
                        wall_ms = (time.perf_counter() - t0) * 1e3
                        rows.append(ResultRow(
                            method=method, K=K, M=spec.M, N=spec.N, L=spec.L,
                            snr_db=snr_db, epsilon=epsilon, trial=trial,
                            seed=seed_ch, worst_goodput=worst_g, sum_goodput=sum_g,
                            r_min_design=r_design, converged=converged,
                            wall_ms=wall_ms,
                        ))
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: list[ResultRow], path: str, timing: bool = False) -> None:
    """Write rows with a fixed column order.

    wall_ms is zeroed unless timing is requested so that repeated runs of
    the same experiment produce byte-identical files.
    """
    names = [f.name for f in fields(ResultRow)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            rec = replace(row, wall_ms=row.wall_ms if timing else 0.0)
            writer.writerow([_format_cell(getattr(rec, n)) for n in names])


def read_csv(path: str) -> list[ResultRow]:
    rows: list[ResultRow] = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ResultRow(
                method=rec["method"], K=int(rec["K"]), M=int(rec["M"]),
                N=int(rec["N"]), L=int(rec["L"]), snr_db=float(rec["snr_db"]),
                epsilon=float(rec["epsilon"]), trial=int(rec["trial"]),
                seed=int(rec["seed"]), worst_goodput=float(rec["worst_goodput"]),
                sum_goodput=float(rec["sum_goodput"]),
                r_min_design=float(rec["r_min_design"]),
                converged=rec["converged"] == "1", wall_ms=float(rec["wall_ms"]),
            ))
    return rows


def summarize(rows: list[ResultRow]) -> list[dict]:
    """Per (method, K, snr_db, epsilon) cell: goodput means, spread, convergence."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.K, row.snr_db, row.epsilon), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3])):
        grp = groups[key]
        worst = np.array([r.worst_goodput for r in grp])
        total = np.array([r.sum_goodput for r in grp])
        out.append({
            "method": key[0], "K": key[1], "snr_db": key[2], "epsilon": key[3],
            "trials": len(grp),
            "worst_goodput_mean": float(worst.mean()),
            "worst_goodput_std": float(worst.std()),
            "worst_goodput_median": float(np.median(worst)),
            "sum_goodput_mean": float(total.mean()),
            "converged_frac": float(np.mean([r.converged for r in grp])),
        })
    return out


_SPEC_KEYS = {f.name for f in fields(ExperimentSpec)}
_SOLVER_KEYS = {f.name for f in fields(SolverConfig)}


def experiment_from_json(text: str) -> ExperimentSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    missing = {"methods", "K_grid", "snr_db_grid", "epsilon_grid", "M", "N"} - set(raw)
    if missing:
        raise ConfigurationError(f"missing config keys: {sorted(missing)}")
    kwargs = dict(raw)
    for name in ("methods", "K_grid", "snr_db_grid", "epsilon_grid"):
        if not isinstance(kwargs[name], (list, tuple)):
            raise ConfigurationError(f"{name} must be a list")
        kwargs[name] = tuple(kwargs[name])
    if kwargs.get("solver") is not None:
        sraw = kwargs["solver"]
        if not isinstance(sraw, dict):
            raise ConfigurationError("solver must be an object of solver settings")
        bad = set(sraw) - _SOLVER_KEYS
        if bad:
            raise ConfigurationError(f"unknown solver keys: {sorted(bad)}")
        kwargs["solver"] = SolverConfig(**sraw)
    return ExperimentSpec(**kwargs)
