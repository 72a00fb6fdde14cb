"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerances the package commits to; run with -v to get a
single pass/fail line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from latticealign.baselines import conventional_ia_design
from latticealign.channel import (
    ChannelSet,
    SystemConfig,
    complex_gaussian,
    generate_channels,
    perturb_csi,
    rank_one_worst_delta,
    sample_delta_in_ball,
    worst_case_crossterm_bound,
)
from latticealign.closedform import (
    SymmetricInstance,
    gain_condition_sq,
    ia_equivalent_state,
    symmetric_channelset,
    symmetric_rmin_lattice,
)
from latticealign.gaussint import GaussianInt, is_divisor_free
from latticealign.harness import ExperimentSpec, run_experiment, write_csv
from latticealign.lattice import Lattice, NestedPair, nested_rate, quantize
from latticealign.rates import goodput, rate_report, stage2_rates
from latticealign.solver import (
    _scaling_value,
    decorrelator_closed_form,
    decorrelator_objective,
    decorrelator_robust,
    initial_state,
    multi_start,
    optimize_scaling,
    solve,
)


def test_criterion_01_symmetric_pipeline_oracle():
    """Full pipeline on (K=3, h=2, P=4): rate, coefficients, scaling, runtime."""
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    t0 = time.perf_counter()
    st, report, trace = multi_start(ch, cfg, n_starts=2)
    elapsed = time.perf_counter() - t0
    oracle = symmetric_rmin_lattice(inst)
    assert oracle == pytest.approx(1.8875252707415873, abs=1e-12)
    assert report.r_min >= 0.95 * 1.8875
    for k in range(3):
        assert is_divisor_free(st.coeff_vector(k, 0))
    assert np.allclose(st.c, 2.0)
    assert elapsed < 10.0


def test_criterion_02_decorrelator_closed_form_equivalence():
    """Robust fit reduces to the closed form when the error ball is empty."""
    worst = 0.0
    for i in range(100):
        K = 2 + i % 2
        cfg = SystemConfig(K=K, M=2, N=2, L=1, P=float(2 + i % 17), seed=1000 + i)
        ch = generate_channels(cfg)
        st = initial_state(ch, cfg, "random_unit", seed=2000 + i, init_a="round")
        for k in range(K):
            for stage in (1, 2):
                if stage == 1 and np.all(st.a[k, 0] == 0):
                    continue
                f_cf = decorrelator_objective(
                    ch, st, k, 0, stage, decorrelator_closed_form(ch, st, k, 0, stage)
                )
                f_rb = decorrelator_objective(
                    ch, st, k, 0, stage, decorrelator_robust(ch, st, k, 0, stage)
                )
                worst = max(worst, abs(f_rb - f_cf) / abs(f_cf))
    assert worst < 1e-6


def test_criterion_03_monotone_rate_trace():
    """Pre-quantization worst-rate trace never decreases across 50 solves."""
    violations = 0
    cases = list(itertools.product((3, 4), (0.0, 0.1)))
    for i in range(50):
        K, eps = cases[i % 4]
        cfg = SystemConfig(K=K, M=2, N=2, L=1, P=10.0, epsilon=eps, seed=4000 + i)
        ch = generate_channels(cfg)
        if eps > 0:
            ch = perturb_csi(ch, eps, seed=4500 + i)
        _, _, trace = solve(ch, cfg)
        series = trace.pre_quantize_series()
        assert len(series) >= 2
        violations += sum(cur < prev - 1e-9 for prev, cur in zip(series, series[1:]))
    assert violations == 0


def test_criterion_04_zero_outage_in_uncertainty_ball():
    """Designed rate survives every sampled channel error: goodput == design."""
    eps = 0.1
    outages = 0
    rng = np.random.default_rng(999)
    for i in range(50):
        cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=eps, seed=5000 + i)
        ch = generate_channels(cfg)
        ch = perturb_csi(ch, eps, seed=5500 + i)
        st, report, _ = multi_start(ch, cfg, n_starts=2)
        designed = report.r_min
        assert designed > 0
        worst_true = math.inf
        worst_H = None
        for _ in range(1000):
            H_true = ch.Hhat.copy()
            for k in range(3):
                for j in range(3):
                    H_true[k, j] -= sample_delta_in_ball(rng, (2, 2), eps)
            r_true = rate_report(ChannelSet(H=H_true, Hhat=H_true, epsilon=0.0), st).r_min
            if r_true < worst_true:
                worst_true, worst_H = r_true, H_true
            if designed > r_true + 1e-12:
                outages += 1
        ch_worst = ChannelSet(H=worst_H, Hhat=ch.Hhat, epsilon=eps)
        assert goodput(ch_worst, st, designed) == designed
    assert outages == 0


def test_criterion_05_crossterm_worst_case_bound():
    """|u^H Delta v| never exceeds eps |u| |v|; rank-one error attains it."""
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.01, 2.0))
        u = complex_gaussian(rng, (n,))
        v = complex_gaussian(rng, (m,))
        delta = sample_delta_in_ball(rng, (n, m), eps)
        bound = worst_case_crossterm_bound(u, v, eps)
        assert abs(u.conj() @ delta @ v) <= bound + 1e-12
    for i in range(100):
        u = complex_gaussian(rng, (3,))
        v = complex_gaussian(rng, (2,))
        eps = float(rng.uniform(0.01, 2.0))
        star = rank_one_worst_delta(u, v, eps)
        attained = abs(u.conj() @ star @ v)
        bound = worst_case_crossterm_bound(u, v, eps)
        assert attained >= 0.999 * bound
        assert attained <= bound + 1e-12


def _enum_nearest(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Independent exhaustive search in a wide window of integer coordinates."""
    base = np.round(np.linalg.solve(G, x))
    T = G.shape[0]
    best, best_d = None, math.inf
    for off in itertools.product(range(-4, 5), repeat=T):
        pt = G @ (base + np.array(off))
        d = float(np.sum((pt - x) ** 2))
        if d < best_d - 1e-15:
            best, best_d = pt, d
    return best


def test_criterion_06_lattice_quantizer_oracles():
    """quantize matches exhaustive enumeration; nested rates add up."""
    rng = np.random.default_rng(6)
    lattices = [
        Lattice(np.array([[1.0]])),
        Lattice(np.eye(2)),
        Lattice(2.0 * np.eye(2)),
        Lattice(np.array([[1.1, 0.4], [-0.3, 0.9]])),
    ]
    for lat in lattices:
        scale = float(np.max(np.abs(lat.G))) * 3.0
        for _ in range(100):
            x = rng.uniform(-scale, scale, size=lat.T)
            q = quantize(lat, x)
            e = _enum_nearest(lat.G, x)
            assert np.sum((q - x) ** 2) == pytest.approx(np.sum((e - x) ** 2), abs=1e-9)
            assert np.allclose(q, e, atol=1e-9)

    fine = Lattice(np.array([[1.0, 0.2], [0.0, 0.8]]))
    mid = Lattice(fine.G @ np.array([[2.0, 1.0], [0.0, 3.0]]))
    coarse = Lattice(mid.G @ np.array([[1.0, 0.0], [2.0, 4.0]]))
    r_total = nested_rate(NestedPair(coarse=coarse, fine=fine))
    r_steps = nested_rate(NestedPair(coarse=coarse, fine=mid)) + nested_rate(
        NestedPair(coarse=mid, fine=fine)
    )
    assert abs(r_total - r_steps) < 1e-12


def test_criterion_07_scaling_integer_optimality():
    """Returned scaling beats every Gaussian integer of modulus <= 10."""
    rng = np.random.default_rng(7)
    sweep = [
        complex(re, im)
        for re in range(-10, 11)
        for im in range(-10, 11)
        if re * re + im * im <= 100 and (re, im) != (0, 0)
    ]
    for i in range(200):
        K = int(rng.integers(2, 5))
        eps = float(rng.choice([0.0, 0.1]))
        cfg = SystemConfig(
            K=K, M=2, N=2, L=1, P=float(rng.uniform(1, 50)),
            epsilon=eps, seed=7000 + i,
        )
        ch = generate_channels(cfg)
        if eps > 0:
            ch = perturb_csi(ch, eps, seed=7500 + i)
        st = initial_state(ch, cfg, "random_unit", seed=8000 + i, init_a="round")
        st.utilde[0, 0] = complex_gaussian(rng, (2,))
        c_star = optimize_scaling(ch, st, 0, 0)
        f_star = _scaling_value(ch, st, 0, 0, complex(c_star))
        f_best = min(_scaling_value(ch, st, 0, 0, g) for g in sweep)
        assert f_star <= f_best + 1e-12 * (1 + abs(f_best))


def test_criterion_08_alignment_equivalence_and_slope():
    """Alignment embeds as a stage-2-only design; rate slope is one DoF."""
    collected = 0
    i = 0
    while collected < 20:
        cfg = SystemConfig(K=3, M=2, N=2, L=1, P=1e3, seed=3000 + i)
        ch = generate_channels(cfg)
        design = conventional_ia_design(ch.Hhat, cfg.L)
        i += 1
        if design is None:
            continue
        collected += 1
        V, U = design
        rates = {}
        for P in (1e3, 4e3):
            st = ia_equivalent_state(V, U, ch, P)
            got = stage2_rates(ch, st)
            for k in range(3):
                u_ia = U[k][:, 0]
                zeta = u_ia.conj() @ ch.Hhat[k, k] @ V[k][:, 0]
                nu2 = float(np.sum(np.abs(u_ia) ** 2))
                expect = math.log2(1 + P * abs(zeta) ** 2 / nu2)
                assert got[k, 0] == pytest.approx(expect, abs=1e-9)
            rates[P] = float(got.min())
        gap = rates[4e3] - rates[1e3]
        assert abs(gap - 2.0) <= 0.1


def test_criterion_09_conventional_alignment_residuals():
    """Closed-form 3-user alignment nulls cross terms; K=4 is infeasible."""
    worst = 0.0
    for seed in range(100):
        cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, seed=9000 + seed)
        ch = generate_channels(cfg)
        design = conventional_ia_design(ch.Hhat, cfg.L)
        assert design is not None
        V, U = design
        for k in range(3):
            for j in range(3):
                if j != k:
                    leak = np.linalg.norm(U[k].conj().T @ ch.Hhat[k, j] @ V[j])
                    worst = max(worst, float(leak))
    assert worst <= 1e-8

    cfg4 = SystemConfig(K=4, M=2, N=2, L=1, P=10.0, seed=9999)
    ch4 = generate_channels(cfg4)
    assert conventional_ia_design(ch4.Hhat, cfg4.L) is None


def test_criterion_10_method_ordering_under_uncertainty():
    """Worst-case goodput: lattice design dominates every baseline."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        methods=("lattice", "distributive_ia", "conventional_ia", "tdma", "two_stage_ml"),
        K_grid=(3,),
        snr_db_grid=(11.5,),
        epsilon_grid=(0.0, 0.1),
        M=2,
        N=2,
        L=1,
        trials=100,
        seed=2026,
    )
    rows = run_experiment(spec)
    by = {}
    for r in rows:
        by.setdefault((r.epsilon, r.method), {})[r.trial] = r.worst_goodput

    lattice = by[(0.1, "lattice")]
    for method in ("distributive_ia", "conventional_ia", "tdma", "two_stage_ml"):
        base = by[(0.1, method)]
        assert np.mean(list(lattice.values())) > np.mean(list(base.values()))
        wins = sum(lattice[t] > base[t] for t in lattice)
        losses = sum(lattice[t] < base[t] for t in lattice)
        p = stats.binomtest(wins, wins + losses, alternative="greater").pvalue
        assert p < 0.01, f"sign test vs {method}: wins={wins} losses={losses} p={p}"

    mean_lat0 = np.mean(list(by[(0.0, "lattice")].values()))
    mean_dia0 = np.mean(list(by[(0.0, "distributive_ia")].values()))
    assert mean_lat0 >= mean_dia0

    assert time.perf_counter() - t0 < 1800.0


def test_criterion_11_gain_condition_brackets():
    """Lattice-vs-ML crossover sits where the closed forms say it does."""
    assert gain_condition_sq(64, 1.3, 10.0) is True
    assert gain_condition_sq(64, 1.0, 10.0) is False
    # K=3 at moderate power: the crossover lies between 1.4 and 1.6
    assert gain_condition_sq(3, 1.6, 100.0) is True
    assert gain_condition_sq(3, 1.4, 100.0) is False


def test_criterion_12_byte_identical_reruns(tmp_path):
    """The same experiment spec always produces the same CSV bytes."""
    spec = ExperimentSpec(
        methods=("lattice", "tdma"),
        K_grid=(3,),
        snr_db_grid=(10.0,),
        epsilon_grid=(0.1,),
        M=2,
        N=2,
        L=1,
        trials=3,
        seed=12,
        n_starts=1,
        dist_ia_iters=40,
    )
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_csv(run_experiment(spec), str(p1))
    write_csv(run_experiment(spec), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert len(b1.splitlines()) == 7
