"""Alternating solver: gradients, blocks, safeguards, full pipeline."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import latticealign
from latticealign.channel import (
    ChannelSet,
    SystemConfig,
    complex_gaussian,
    generate_channels,
    perturb_csi,
)
from latticealign.closedform import SymmetricInstance, symmetric_channelset, symmetric_rmin_lattice
from latticealign.errors import ConfigurationError, NonConvergenceError, PowerBudgetError
from latticealign.gaussint import GaussianInt, common_divisor
from latticealign.rates import (
    DesignState,
    cross_vectors,
    own_stream_indicator,
    rate_report,
    stage1_denominators,
    stage1_rates,
    stage2_denominators,
    stage2_rates,
    stage_targets,
)
from latticealign.solver import (
    SolveTrace,
    SolverConfig,
    TraceRecord,
    _fit_filters,
    _least_squares_filters,
    _newton_batch,
    _Problems,
    _round_coefficients,
    _scaling_value,
    _stage2_joint_update,
    _starts,
    _transmit_objective,
    decorrelator_closed_form,
    decorrelator_objective,
    decorrelator_robust,
    initial_state,
    minimize as solver_minimize,
    multi_start,
    optimize_precoders,
    optimize_receivers,
    optimize_scaling,
    scaling_candidates,
    solve,
    state_from_precoders,
)


def _random_instance(K=3, eps=0.0, seed=0, P=10.0):
    cfg = SystemConfig(K=K, M=2, N=2, L=1, P=P, epsilon=eps, seed=seed)
    ch = generate_channels(cfg)
    if eps > 0:
        ch = perturb_csi(ch, eps, seed=seed + 10_000)
    return ch, cfg


def _receive_block(ch, st, cfg=None):
    """The state of one design's receive block, which must converge."""
    (st,), (err,) = optimize_receivers(ch, [st], cfg)
    assert err is None, err
    return st


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ConfigurationError):
        SolverConfig(barrier_nu=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(rate_tol=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_outer_iters=0)
    for bad in ("5", 2.5, True, np.nan):
        for name in ("max_outer_iters", "max_inner_iters"):
            with pytest.raises(ConfigurationError, match=name):
                SolverConfig(**{name: bad})
    for bad in ("0.1", True, np.nan, np.inf, -np.inf):
        for name in ("barrier_nu", "barrier_tol", "newton_tol", "rate_tol"):
            with pytest.raises(ConfigurationError, match=name):
                SolverConfig(**{name: bad})
    SolverConfig(barrier_nu=10, max_outer_iters=np.int64(3), rate_tol=np.float64(1e-4))


@pytest.mark.parametrize("eps", [0.0, 0.15])
def test_robust_objective_gradient_finite_difference(eps):
    """The Newton kernel's value, gradient and Hessian agree with the exact
    objective and with central differences."""
    ch, cfg = _random_instance(eps=eps, seed=5)
    st = initial_state(ch, cfg, "random_unit", seed=7, init_a="round")
    w = cross_vectors(ch.Hhat, st.v)[0]
    b = stage_targets(st, 0, 0, 2)
    nv = np.sqrt(np.sum(np.abs(st.v) ** 2, axis=2)).reshape(-1)
    prob = _Problems.from_complex(w.conj()[None], b.conj()[None], eps * nv[None], cfg.P)
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(5):
        x0 = rng.standard_normal(4)
        f, g, H = (t[0] for t in prob.evaluate(x0[None], derivatives=True))
        exact = decorrelator_objective(ch, st, 0, 0, 2, x0[:2] + 1j * x0[2:])
        assert f == pytest.approx(exact, rel=1e-8)
        gfd = np.zeros(4)
        Hfd = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fp, gp, _ = prob.evaluate((x0 + e)[None], derivatives=True)
            fm, gm, _ = prob.evaluate((x0 - e)[None], derivatives=True)
            gfd[j] = (fp[0] - fm[0]) / (2 * h)
            Hfd[:, j] = (gp[0] - gm[0]) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(gfd))))
        assert np.max(np.abs(g - gfd)) / scale < 1e-6
        scale = max(1.0, float(np.max(np.abs(Hfd))))
        assert np.max(np.abs(H - Hfd)) / scale < 1e-5


def test_decorrelator_matches_closed_form_without_uncertainty():
    worst = 0.0
    for i in range(25):
        K = 2 + i % 2
        ch, cfg = _random_instance(K=K, seed=100 + i)
        st = initial_state(ch, cfg, "random_unit", seed=200 + i, init_a="round")
        for k in range(K):
            for stage in (1, 2):
                if stage == 1 and np.all(st.a[k, 0] == 0):
                    continue
                u_cf = decorrelator_closed_form(ch, st, k, 0, stage)
                u_rb = decorrelator_robust(ch, st, k, 0, stage)
                f_cf = decorrelator_objective(ch, st, k, 0, stage, u_cf)
                f_rb = decorrelator_objective(ch, st, k, 0, stage, u_rb)
                worst = max(worst, abs(f_rb - f_cf) / abs(f_cf))
    assert worst < 1e-6


def test_closed_form_is_stationary_point():
    ch, cfg = _random_instance(seed=11)
    st = initial_state(ch, cfg, "random_unit", seed=12, init_a="round")
    u = decorrelator_closed_form(ch, st, 0, 0, 2)
    f0 = decorrelator_objective(ch, st, 0, 0, 2, u)
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = 1e-5 * complex_gaussian(rng, u.shape)
        assert decorrelator_objective(ch, st, 0, 0, 2, u + d) >= f0 - 1e-12


def test_robust_decorrelator_handles_uncertainty_descent():
    """With eps > 0 the robust fit should beat the nominal closed form."""
    better = 0
    for i in range(10):
        ch, cfg = _random_instance(eps=0.25, seed=300 + i)
        st = initial_state(ch, cfg, "random_unit", seed=400 + i, init_a="round")
        if np.all(st.a[0, 0] == 0):
            continue
        u_cf = decorrelator_closed_form(ch, st, 0, 0, 1)
        u_rb = decorrelator_robust(ch, st, 0, 0, 1, u0=u_cf)
        f_cf = decorrelator_objective(ch, st, 0, 0, 1, u_cf)
        f_rb = decorrelator_objective(ch, st, 0, 0, 1, u_rb)
        assert f_rb <= f_cf + 1e-10
        if f_rb < f_cf * (1 - 1e-9):
            better += 1
    assert better > 0  # the worst-case penalty moves the optimum


def test_scaling_candidates_box_size():
    ch, cfg = _random_instance(seed=21)
    st = initial_state(ch, cfg, "random_unit", seed=22, init_a="round")
    rng = np.random.default_rng(23)
    st.utilde[0, 0] = complex_gaussian(rng, (2,))
    cands = scaling_candidates(ch, st, 0, 0)
    assert cands.shape == (9,)  # at most the 3x3 closed unit box
    n = np.count_nonzero(~np.isnan(cands))
    assert n >= 4 and np.all(np.isnan(cands[n:]))
    assert isinstance(optimize_scaling(ch, st, 0, 0), GaussianInt)


def test_scaling_beats_gaussian_integer_sweep():
    rng = np.random.default_rng(24)
    for i in range(50):
        K = int(rng.integers(2, 5))
        eps = float(rng.choice([0.0, 0.1]))
        ch, cfg = _random_instance(K=K, eps=eps, seed=500 + i, P=float(rng.uniform(1, 40)))
        st = initial_state(ch, cfg, "random_unit", seed=600 + i, init_a="round")
        st.utilde[0, 0] = complex_gaussian(rng, (2,))
        c_star = optimize_scaling(ch, st, 0, 0)
        f_star = _scaling_value(ch, st, 0, 0, complex(c_star))
        f_sweep = min(
            _scaling_value(ch, st, 0, 0, complex(re, im))
            for re in range(-4, 5)
            for im in range(-4, 5)
        )
        assert f_star <= f_sweep + 1e-12 * (1 + abs(f_sweep))


def test_scaling_all_zero_coefficients_returns_one():
    ch, cfg = _random_instance(seed=25)
    st = initial_state(ch, cfg, "identity_like", init_a="zero")
    cands = scaling_candidates(ch, st, 0, 0)
    assert cands[0] == 1 and np.all(np.isnan(cands[1:]))
    assert optimize_scaling(ch, st, 0, 0) == GaussianInt(1, 0)


def test_optimize_receivers_never_lowers_a_decoder_rate():
    """No decoder's stage-one or stage-two rate bound falls from the block's
    input to its output, and the block raises some of them."""
    for i, eps in enumerate([0.0, 0.1]):
        ch, cfg = _random_instance(eps=eps, seed=700 + i)
        st = initial_state(ch, cfg, "random_unit", seed=800 + i, init_a="round")
        st2 = _receive_block(ch, st)
        for rates in (stage1_rates, stage2_rates):
            before, after = rates(ch, st), rates(ch, st2)
            assert np.all(after >= before - 1e-9)
        assert np.any(after > before + 1e-6)


def test_optimize_receivers_zero_coefficients_use_zero_stage1_filter():
    ch, cfg = _random_instance(seed=26)
    st = initial_state(ch, cfg, "identity_like", init_a="zero")
    st2 = _receive_block(ch, st)
    assert np.all(st2.u == 0)
    assert np.all(st2.a == 0)


def test_optimize_receivers_escapes_initial_scaling():
    """Joint (utilde, c) scoring finds the better scaling on the oracle case."""
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    st = initial_state(ch, cfg, "identity_like", init_a="round")
    st2 = _receive_block(ch, st)
    assert np.allclose(st2.c, 2.0)


def test_optimize_precoders_stays_in_budget_and_helps():
    ch, cfg = _random_instance(seed=27)
    st = initial_state(ch, cfg, "random_unit", seed=28, init_a="round")
    st = _receive_block(ch, st)
    r_before = rate_report(ch, st).r_min
    st2, t_val = optimize_precoders(ch, st)
    for k in range(cfg.K):
        assert st2.power(k) <= 1 + 1e-9  # the unit budget
    assert np.isfinite(t_val)
    # the epigraph bound equals the worst denominator up to barrier slack
    assert rate_report(ch, st2).r_min >= r_before - 0.05


def test_solve_symmetric_reaches_oracle():
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    st, rep, trace = solve(ch, cfg)
    assert rep.r_min == pytest.approx(symmetric_rmin_lattice(inst), abs=1e-6)
    assert np.allclose(st.c, 2.0)
    assert trace.converged


def test_solve_trace_monotone_with_every_stage():
    """The trace holds the first receive block, then one record per transmit
    step, never decreases and ends with the returned design's own r_min."""
    ch, cfg = _random_instance(eps=0.1, seed=31)
    st, rep, trace = solve(ch, cfg)
    series = trace.pre_quantize_series()
    assert len(series) >= 2
    for prev, cur in zip(series, series[1:]):
        assert cur >= prev
    assert [(rec.iter, rec.stage) for rec in trace.records] == [(0, "receivers")] + [
        (i, "precoders") for i in range(1, len(series))
    ]
    assert trace.records[-1].r_min == rep.r_min


def test_solve_returns_integer_coefficients_and_budget():
    for seed in (32, 33):
        ch, cfg = _random_instance(eps=0.1, seed=seed)
        st, rep, trace = solve(ch, cfg)
        assert np.allclose(st.a.real, np.round(st.a.real))
        assert np.allclose(st.a.imag, np.round(st.a.imag))
        for k in range(cfg.K):
            assert st.power(k) <= 1 + 1e-9


def test_solve_final_coefficients_divisor_free():
    from latticealign.gaussint import is_divisor_free

    for seed in (34, 35, 36):
        ch, cfg = _random_instance(seed=seed)
        st, rep, trace = solve(ch, cfg)
        for k in range(cfg.K):
            for l in range(cfg.L):
                assert is_divisor_free(st.coeff_vector(k, l))


def test_solve_rejects_mismatched_dimensions():
    ch, _ = _random_instance(seed=37)
    bad = SystemConfig(K=4, M=2, N=2, L=1, P=10.0)
    with pytest.raises(ConfigurationError):
        solve(ch, bad)
    # multi_start checks before it builds its starts, which failed in numpy
    for bad in (replace(bad, K=2), replace(bad, K=3, M=3)):
        with pytest.raises(ConfigurationError, match="channel dimensions"):
            multi_start(ch, bad, n_starts=2)


def test_solve_with_explicit_initial_state():
    ch, cfg = _random_instance(seed=38)
    st0 = state_from_precoders(cfg, np.ones((3, 1, 2), dtype=complex))
    st, rep, trace = solve(ch, cfg, init_state=st0)
    assert np.isfinite(rep.r_min)


def test_state_from_precoders_normalizes_and_validates():
    _, cfg = _random_instance(seed=39)
    rng = np.random.default_rng(40)
    V = complex_gaussian(rng, (3, 1, 2))
    st = state_from_precoders(cfg, V)
    for k in range(3):
        assert st.power(k) == pytest.approx(1.0)
    assert np.all(st.a == 0) and np.all(st.c == 1.0)
    with pytest.raises(ConfigurationError):
        state_from_precoders(cfg, np.ones((2, 1, 2), dtype=complex))
    with pytest.raises(ConfigurationError):  # (K, M, L) columns, M != L
        state_from_precoders(cfg, V.transpose(0, 2, 1))


def test_multi_start_prefix_stable_objective():
    ch, cfg = _random_instance(eps=0.1, seed=41)
    _, rep1, _ = multi_start(ch, cfg, n_starts=1)
    _, rep3, _ = multi_start(ch, cfg, n_starts=3)
    assert rep3.r_min >= rep1.r_min - 1e-9


def test_multi_start_extra_precoders_floor():
    """The seeded start's first receive block makes a good precoder set a
    rate floor."""
    from latticealign.baselines import distributive_ia_design, ia_stream_rates

    ch, cfg = _random_instance(seed=42, P=20.0)
    rho = cfg.P / cfg.L
    V, U, _ = distributive_ia_design(ch.Hhat, cfg.L, rho, 80)
    ia_worst = ia_stream_rates(ch.Hhat, V, U, rho).sum(axis=1).min()
    _, rep, _ = multi_start(ch, cfg, n_starts=1, extra_precoders=(V.transpose(0, 2, 1),))
    assert rep.r_min >= ia_worst - 1e-9


def test_multi_start_objective_sum_vs_worst():
    ch, cfg = _random_instance(seed=43)
    st_w, rep_w, _ = multi_start(ch, cfg, n_starts=2, objective="worst")
    st_s, rep_s, _ = multi_start(ch, cfg, n_starts=2, objective="sum")
    from latticealign.rates import per_stream_rates

    sum_w = np.maximum(per_stream_rates(rep_w, st_w.a), 0).sum()
    sum_s = np.maximum(per_stream_rates(rep_s, st_s.a), 0).sum()
    assert sum_s >= sum_w - 1e-9
    with pytest.raises(ConfigurationError):
        multi_start(ch, cfg, n_starts=0)


def test_initial_state_strategies():
    ch, cfg = _random_instance(seed=44)
    st_id = initial_state(ch, cfg, "identity_like")
    assert st_id.power(0) == pytest.approx(1.0)
    st_rnd = initial_state(ch, cfg, "random_unit", seed=1)
    assert st_rnd.power(0) == pytest.approx(1.0)
    st_ia = initial_state(ch, cfg, "ia_seed")
    assert np.all(st_ia.a == 0)
    with pytest.raises(ConfigurationError):
        initial_state(ch, cfg, "bogus")
    with pytest.raises(ConfigurationError):
        initial_state(ch, cfg, "identity_like", init_a="bogus")


def test_initial_state_ia_seed_needs_right_geometry():
    cfg = SystemConfig(K=4, M=2, N=2, L=1, P=10.0, seed=45)
    ch = generate_channels(cfg)
    with pytest.raises(ConfigurationError):
        initial_state(ch, cfg, "ia_seed")


def test_initial_state_recovers_symmetric_coefficients():
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    st = initial_state(ch, cfg, "identity_like", init_a="round")
    expect = np.ones((3, 1), dtype=complex) * 0  # own entries zero
    for k in range(3):
        row = st.a[k, 0].ravel()
        assert row[k] == 0
        others = [row[i] for i in range(3) if i != k]
        assert others == [1.0 + 0j, 1.0 + 0j]


def test_nonconvergence_error_carries_best():
    err = NonConvergenceError("stuck", best="state", failed=[True])
    assert err.best == "state"
    assert err.failed == [True]
    assert "stuck" in str(err)


def test_solve_trace_records():
    tr = SolveTrace()
    tr.add(0, "receivers", 1.0)
    tr.add(1, "precoders", 1.5)
    tr.add(2, "precoders", np.float64(1.5))
    assert tr.records == [
        TraceRecord(0, "receivers", 1.0), TraceRecord(1, "precoders", 1.5),
        TraceRecord(2, "precoders", 1.5),
    ]
    assert type(tr.records[-1].r_min) is float
    assert tr.pre_quantize_series() == [1.0, 1.5, 1.5]


# ---------------------------------------------------------------------------
# batched receive side
# ---------------------------------------------------------------------------

# (K, L, M, N): the sweep geometry, L = 2 with K = 4, and M != N both ways
_SHAPES = [(3, 1, 2, 2), (4, 2, 3, 4), (3, 1, 3, 2), (2, 2, 4, 3)]


def _shaped_instance(K, L, M, N, eps, seed, P=10.0):
    cfg = SystemConfig(K=K, M=M, N=N, L=L, P=P, epsilon=eps, seed=seed)
    ch = perturb_csi(generate_channels(cfg), eps, seed=seed + 10_000)
    st = initial_state(ch, cfg, "random_unit", seed=seed + 1, init_a="round")
    st.utilde = complex_gaussian(np.random.default_rng(seed + 2), st.utilde.shape)
    return ch, cfg, st


def _decoder_grid(st):
    return np.divmod(np.arange(st.K * st.L), st.L)


def _fit_cases(st, kk, ll):
    """(stage, warm starts, stage-two scalings): zero and warm starts, and
    scalings other than the state's own."""
    rng = np.random.default_rng(17)
    c = rng.integers(-2, 3, len(kk)) + 1j * rng.integers(-2, 3, len(kk))
    return [
        (1, None, None), (1, st.u[kk, ll], None),
        (2, None, None), (2, st.utilde[kk, ll], None), (2, st.utilde[kk, ll], c),
    ]


def _pick(arr, d):
    return None if arr is None else arr[d]


@pytest.mark.parametrize("eps", [0.1, 0.25])
@pytest.mark.parametrize("shape", _SHAPES)
def test_batched_receive_fits_equal_per_decoder_fits(shape, eps):
    ch, cfg, st = _shaped_instance(*shape, eps, seed=900 + sum(shape))
    kk, ll = _decoder_grid(st)
    for stage, u0, c in _fit_cases(st, kk, ll):
        U = decorrelator_robust(ch, st, kk, ll, stage, u0=u0, c=c)
        f = decorrelator_objective(ch, st, kk, ll, stage, U, c=c)
        U_cf = decorrelator_closed_form(ch, st, kk, ll, stage, c=c)
        for d in range(len(kk)):
            args = (ch, st, int(kk[d]), int(ll[d]), stage)
            u1 = decorrelator_robust(*args, u0=_pick(u0, d), c=_pick(c, d))
            assert np.max(np.abs(U[d] - u1)) <= 1e-12 * max(1.0, np.max(np.abs(u1)))
            f1 = decorrelator_objective(*args, u1, c=_pick(c, d))
            assert abs(f[d] - f1) <= 1e-12 * abs(f1)
            assert np.allclose(U_cf[d], decorrelator_closed_form(*args, c=_pick(c, d)),
                               rtol=1e-12, atol=0)

    cands = scaling_candidates(ch, st, kk, ll)
    for d in range(len(kk)):
        cands1 = scaling_candidates(ch, st, int(kk[d]), int(ll[d]))
        assert np.array_equal(cands[d], cands1, equal_nan=True)
        cands1 = cands1[~np.isnan(cands1)]
        values = _scaling_value(ch, st, np.full(len(cands1), kk[d]), np.full(len(cands1), ll[d]),
                                cands1)
        for g, v in zip(cands1, values):
            assert v == pytest.approx(_scaling_value(ch, st, int(kk[d]), int(ll[d]), g), rel=1e-12)


def _tensor_reference(ch, st):
    """Both denominators and the alignment in the explicit (K, L, K, L)
    tensor form: G[k, l, i, n] = u_kl^H H_ki v_in."""
    K, L, eps, P = st.K, st.L, ch.epsilon, st.P
    E = own_stream_indicator(K, L)
    nv = np.sqrt(np.sum(np.abs(st.v) ** 2, axis=2))
    out = []
    for U, targets in ((st.u, st.a), (st.utilde, st.c[:, :, None, None] * st.a + E)):
        G = np.einsum("kla,kiab,inb->klin", U.conj(), ch.Hhat, st.v)
        nu = np.sqrt(np.sum(np.abs(U) ** 2, axis=2))
        pen = np.abs(G - targets) + eps * nv[None, None] * nu[:, :, None, None]
        out.append(nu**2 + P * np.sum(pen**2, axis=(2, 3)))
    G = np.einsum("kla,kiab,inb->klin", st.u.conj(), ch.H, st.v)
    out.append(P * np.sum(np.abs(G - st.a) ** 2 * (1 - E), axis=(2, 3)))
    return out


def _scaling_reference(ch, st, k, l, c):
    """sum_j (|q_j - c a_j| + s_j)^2 with q_j the post-filter gain of
    decoder (k, l) minus its own-stream target and s_j = eps ||v_j|| ||utilde||."""
    ut = st.utilde[k, l]
    q = np.einsum("a,iab,inb->in", ut.conj(), ch.Hhat[k], st.v).reshape(-1)
    q[k * st.L + l] -= 1.0
    s = ch.epsilon * np.sqrt(np.sum(np.abs(st.v) ** 2, axis=2)).reshape(-1) * np.linalg.norm(ut)
    return np.sum((np.abs(q - c * st.a[k, l].reshape(-1)) + s) ** 2)


def _close(x, ref):
    return np.max(np.abs(np.asarray(x) - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("shape", _SHAPES)
def test_robust_kernel_matches_explicit_formulas(shape, eps):
    """Every caller of the robust-noise kernel agrees with the explicit
    formulas it replaced, and the scaling search picks the same best c."""
    ch, cfg, st = _shaped_instance(*shape, eps, seed=600 + sum(shape))
    rng = np.random.default_rng(61)
    st.c = rng.integers(-2, 3, st.c.shape) + 1j * rng.integers(-2, 3, st.c.shape)
    den1, den2, align = _tensor_reference(ch, st)
    assert _close(stage1_denominators(ch, st), den1)
    assert _close(stage2_denominators(ch, st), den2)
    assert _close(rate_report(ch, st).alignment, align)
    kk, ll = _decoder_grid(st)
    for stage, U, den in ((1, st.u, den1), (2, st.utilde, den2)):
        f = decorrelator_objective(ch, st, kk, ll, stage, U[kk, ll])
        assert _close(f, den.reshape(-1))

    cands = scaling_candidates(ch, st, kk, ll)
    for d, (k, l) in enumerate(zip(kk, ll)):
        if not np.any(st.a[k, l]):
            continue
        cvals = cands[d][~np.isnan(cands[d])]
        ref = np.array([_scaling_reference(ch, st, k, l, c) for c in cvals])
        nut2 = np.sum(np.abs(st.utilde[k, l]) ** 2)
        values = _scaling_value(ch, st, np.full(len(cvals), k), np.full(len(cvals), l), cvals)
        assert _close(values, nut2 + st.P * ref)
        tied = [GaussianInt(int(c.real), int(c.imag))
                for c, f in zip(cvals, ref) if f <= ref.min() + 1e-12 * (1 + ref.min())]
        assert optimize_scaling(ch, st, int(k), int(l)) == min(
            tied, key=lambda g: (g.norm(), not (g.re > 0 and g.im >= 0), g.re, g.im))


def _round_init_reference(ch, st):
    """The per-decoder loop of initial_state(init_a="round") before it was
    batched: one least-squares fit to unit cross gains per decoder."""
    st = st.copy()
    K, L, N = st.K, st.L, st.u.shape[2]
    cross = 1.0 - own_stream_indicator(K, L)
    for k in range(K):
        w = np.einsum("iab,inb->ina", ch.Hhat[k], st.v).reshape(-1, N)
        for l in range(L):
            u_fit = _least_squares_filters(w, cross[k, l].reshape(-1), st.P)
            gains = (w @ u_fit.conj()).reshape(K, L)
            a0 = np.round(gains.real) + 1j * np.round(gains.imag)
            a0[k, l] = 0.0
            st.a[k, l] = a0
            st.u[k, l] = u_fit
    return st


@pytest.mark.parametrize("shape", _SHAPES)
def test_batched_round_init_equals_per_decoder_loop(shape):
    cfg = SystemConfig(K=shape[0], L=shape[1], M=shape[2], N=shape[3], P=10.0, seed=77)
    ch = generate_channels(cfg)
    for strategy, seed in (("identity_like", None), ("random_unit", 78), ("random_unit", 79)):
        st = initial_state(ch, cfg, strategy, seed=seed, init_a="round")
        ref = _round_init_reference(ch, initial_state(ch, cfg, strategy, seed=seed, init_a="zero"))
        assert np.array_equal(st.a, ref.a) and np.array_equal(st.u, ref.u)
        assert np.array_equal(st.v, ref.v)


def _lbfgs_reference(ch, st, k, l, stage, u0, c=None):
    """The smoothed robust objective minimized by scipy L-BFGS-B: an oracle
    for the Newton kernel, with the settings the solver once used."""
    from scipy.optimize import minimize

    w = cross_vectors(ch.Hhat, st.v)[k]
    b = stage_targets(st, k, l, stage, c)
    nv = np.sqrt(np.sum(np.abs(st.v) ** 2, axis=2)).reshape(-1)
    eps, P, d2 = ch.epsilon, st.P, 1e-18
    N = w.shape[1]

    def fun_grad(x):
        u = x[:N] + 1j * x[N:]
        z = w @ u.conj() - b
        az = np.sqrt(np.abs(z) ** 2 + d2)
        nu2 = float(np.sum(np.abs(u) ** 2))
        nus = np.sqrt(nu2 + d2)
        s = eps * nv * nus
        f = nu2 + P * float(np.sum((az + s) ** 2 - d2))
        g = u + P * np.einsum("j,ja->a", (az + s) / az * z.conj(), w)
        g = g + P * float(np.sum((az + s) * eps * nv)) * u / nus
        return f, np.concatenate([2 * g.real, 2 * g.imag])

    u0 = np.zeros(N, dtype=complex) if u0 is None else u0
    res = minimize(fun_grad, np.concatenate([u0.real, u0.imag]), jac=True, method="L-BFGS-B",
                   options={"maxiter": 1000, "ftol": 1e-15, "gtol": 1e-7})
    return res.x[:N] + 1j * res.x[N:]


@pytest.mark.parametrize("eps", [0.1, 0.25])
@pytest.mark.parametrize("shape", _SHAPES)
def test_newton_fit_never_worse_than_lbfgs_reference(shape, eps):
    ch, cfg, st = _shaped_instance(*shape, eps, seed=950 + sum(shape))
    kk, ll = _decoder_grid(st)
    for stage, u0, c in _fit_cases(st, kk, ll):
        U = decorrelator_robust(ch, st, kk, ll, stage, u0=u0, c=c)
        for d in range(len(kk)):
            args = (ch, st, int(kk[d]), int(ll[d]), stage)
            u_ref = _lbfgs_reference(*args, _pick(u0, d), c=_pick(c, d))
            f_new = decorrelator_objective(*args, U[d], c=_pick(c, d))
            f_ref = decorrelator_objective(*args, u_ref, c=_pick(c, d))
            assert f_new <= f_ref * (1 + 1e-9)


def _captured_newton_batches(monkeypatch, eps):
    """(problem fields, x0, tol, max_iter) of every _newton_batch call that
    receive blocks make on the _SHAPES instances: the filter fits of both
    stages."""
    from latticealign import solver as solver_mod

    real, batches = solver_mod._newton_batch, []

    def captured(prob, x0, tol, max_iter):
        fields = (prob.A, prob.beta, prob.sigma, prob.P)
        batches.append((tuple(np.array(f) for f in fields), np.array(x0), tol, max_iter))
        return real(prob, x0, tol, max_iter)

    monkeypatch.setattr(solver_mod, "_newton_batch", captured)
    for shape in _SHAPES:
        ch, cfg, st = _shaped_instance(*shape, eps, seed=1500 + sum(shape))
        optimize_receivers(ch, [st])
    monkeypatch.undo()
    return batches


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_newton_batch_rows_equal_their_solves_alone(eps, monkeypatch):
    """Each row of a stacked Newton solve ends with the bits, and the
    converged flag, of that row solved on its own, kink steps included."""
    batches = _captured_newton_batches(monkeypatch, eps)
    assert any(len(x0) > 1 for _, x0, _, _ in batches)
    for (A, beta, sigma, P), x0, tol, max_iter in batches:
        x, ok = _newton_batch(_Problems(A, beta, sigma, P), x0, tol, max_iter)
        for i in range(len(x0)):
            alone = _Problems(*(f[i : i + 1] for f in (A, beta, sigma)), P)
            x1, ok1 = _newton_batch(alone, x0[i : i + 1], tol, max_iter)
            assert _same_bits(x[i : i + 1], x1) and ok[i] == ok1[0]


def test_a_singular_kink_system_drops_only_its_own_step():
    """Both rows' steps cross the kink of |x_0 + i x_1 - 5|.  Row 0's kink
    system, the kink's rank-two stiffness on a zero Hessian in four
    dimensions, is singular, which failed the whole batched solve; it gets
    no kink step and row 1 keeps its own."""
    A = np.zeros((2, 1, 2, 4))
    A[:, 0, [0, 1], [0, 1]] = 1.0
    prob = _Problems(A, np.tile([5.0, 0.0], (2, 1, 1)), np.zeros((2, 1)), 10.0)
    x, dx = np.zeros((2, 4)), np.tile([10.0, 0, 0, 0], (2, 1))
    grad, hess = np.zeros((2, 4)), np.stack([np.zeros((4, 4)), np.eye(4)])
    _, rows, steps = prob.kinks(dx, grad, hess, 1e-7, prob._terms(x))
    assert rows.tolist() == [1] and steps.shape == (1, 4)
    alone = prob.take([1])
    _, rows1, steps1 = alone.kinks(dx[1:], grad[1:], hess[1:], 1e-7, alone._terms(x[1:]))
    assert rows1.tolist() == [0] and _same_bits(steps, steps1)


def _two_call_receive_reference(ch, st, cfg):
    """The receive block as two kinds of call: one batch of stage-one fits,
    then the stage-two sweeps, each its own batch, until the block's stop
    rule.  Returns the state and the number of sweeps."""
    st = st.copy()
    kk, ll = _decoder_grid(st)
    live = np.any(st.a != 0, axis=(2, 3)).reshape(-1)
    st.u[kk[~live], ll[~live]] = 0.0
    k1, l1 = kk[live], ll[live]
    cur = st.u[k1, l1]
    cand = decorrelator_robust(ch, st, k1, l1, 1, cfg, u0=cur)
    better = decorrelator_objective(ch, st, k1, l1, 1, cand) < decorrelator_objective(
        ch, st, k1, l1, 1, cur
    )
    st.u[k1[better], l1[better]] = cand[better]
    for sweeps in range(1, cfg.max_inner_iters + 1):
        changed, _ = _stage2_joint_update(ch, st, cfg, kk, ll)
        if not changed.any():
            break
    return st, sweeps


@pytest.mark.parametrize("eps", [0.1, 0.25])
@pytest.mark.parametrize("shape", _SHAPES)
def test_shared_first_sweep_batch_equals_two_calls(shape, eps, monkeypatch):
    """Fitting the stage-one filters in the first sweep's batch gives the
    bits of a stage-one call followed by the stage-two sweeps.  The start is
    a receive block's output with fresh stage-two filters and scalings: the
    stage-one fits start from their warm starts, and the sweeps have work
    to do."""
    ch, cfg, st = _shaped_instance(*shape, eps, seed=1400 + sum(shape))
    st.a[0, 0] = 0.0  # one decoder without an aggregate
    cfg = SolverConfig()
    st = _receive_block(ch, st, cfg)
    rng = np.random.default_rng(1401)
    st.utilde = complex_gaussian(rng, st.utilde.shape)
    st.c = rng.integers(-3, 4, st.c.shape) + 1j * rng.integers(-3, 4, st.c.shape)
    want, sweeps = _two_call_receive_reference(ch, st, cfg)
    calls = _count_calls(monkeypatch, "_stage2_joint_update")
    got = _receive_block(ch, st, cfg)
    assert _same_design(got, want)
    assert len(calls["_stage2_joint_update"]) == sweeps > 1


def test_receive_block_makes_no_scipy_calls(monkeypatch):
    from latticealign import solver as solver_mod

    calls = []
    real = solver_mod.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "minimize", counted)
    for shape in _SHAPES[:2]:
        ch, cfg, st = _shaped_instance(*shape, 0.1, seed=990 + sum(shape))
        st = _receive_block(ch, st)
        assert calls == []
    optimize_precoders(ch, st)  # the transmit block's barrier stages
    assert calls


_FRESH_RUNS = {
    "import": "import latticealign",
    "analyze": 'from latticealign import cli; cli.main(["analyze", "symmetric", "--K", "3", '
    '"--h", "2", "--P", "4"])',
    "tdma": "from latticealign import ExperimentSpec, run_experiment; run_experiment("
    'ExperimentSpec(methods=("tdma",), K_grid=(3,), snr_db_grid=(10.0,), '
    "epsilon_grid=(0.0, 0.1), M=2, N=2, trials=1))",
    "solve": "from latticealign import SystemConfig, generate_channels, solve; "
    "cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, seed=5); solve(generate_channels(cfg), cfg)",
}


def _run_fresh(code: str) -> str:
    """Run code in a fresh interpreter on this source tree (pytest itself has
    loaded scipy already); returns its standard output."""
    src = str(Path(latticealign.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("run", sorted(_FRESH_RUNS))
def test_no_run_loads_scipy_optimize(run):
    """The barrier stages run on the package's own minimize, so no run loads
    scipy.optimize, a solve included."""
    code = _FRESH_RUNS[run] + "; import sys; print('scipy.optimize' in sys.modules)"
    assert _run_fresh(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_no_solve_loads_numpy_ma(eps):
    """A receive sweep with no capped fit notes nothing: it makes no np.unique
    call, whose first call would import numpy.ma (about 1 MB and 30 ms)."""
    code = (
        "import sys; from latticealign import SystemConfig, generate_channels, perturb_csi, "
        f"solve; cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon={eps}, seed=5); "
        f"solve(perturb_csi(generate_channels(cfg), {eps}, seed=6), cfg); "
        "print('numpy.ma' in sys.modules)"
    )
    assert _run_fresh(code).splitlines()[-1] == "False"


def test_solve_simulate_and_analyze_run_with_scipy_blocked():
    """With every scipy import failing, a solve, a five-method simulate and
    analyze symmetric still run: scipy is needed by the tests only."""
    code = (
        'import sys; sys.modules["scipy"] = None\n'
        "from latticealign import SystemConfig, cli, generate_channels, perturb_csi, solve\n"
        "from latticealign.harness import KNOWN_METHODS, ExperimentSpec, run_experiment\n"
        "cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1, seed=5)\n"
        "print(solve(perturb_csi(generate_channels(cfg), 0.1, seed=6), cfg)[1].r_min)\n"
        "rows = run_experiment(ExperimentSpec(methods=KNOWN_METHODS, K_grid=(3,), "
        "snr_db_grid=(10.0,), epsilon_grid=(0.0, 0.1), M=2, N=2, trials=1))\n"
        "print(sorted({row.method for row in rows}))\n"
        'cli.main(["analyze", "symmetric", "--K", "3", "--h", "2", "--P", "4"])\n'
        'print("scipy" in [name.split(".")[0] for name, mod in sys.modules.items() if mod])\n'
    )
    out = _run_fresh(code).splitlines()
    from latticealign.harness import KNOWN_METHODS

    assert float(out[0]) > 0
    assert out[1] == str(sorted(KNOWN_METHODS)) and len(KNOWN_METHODS) == 5
    assert out[-1] == "False"


def test_capped_filter_fit_keeps_the_refit_state():
    """Hitting the Newton iteration cap keeps the best filters found and
    flags the solve, instead of discarding the receive-side refit.  A capped
    first receive block ends the solve with that block's own design; at a
    cap of 2 the solve still gets within 10% of the default r_min."""
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=14.0, epsilon=0.1, seed=5)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=6)
    capped = SolverConfig(max_inner_iters=1)
    st0 = initial_state(ch, cfg, "identity_like")
    with pytest.raises(NonConvergenceError, match=r"\(0, 0\)") as info:
        decorrelator_robust(ch, st0, 0, 0, 1, capped)
    assert info.value.best.shape == (2,)
    (block,), (err,) = optimize_receivers(ch, [_round_coefficients(st0)], capped)
    assert isinstance(block, DesignState) and err is not None
    st, rep, trace = solve(ch, cfg, capped)
    assert not trace.converged and trace.stop_reason == f"optimize_receivers: {err}"
    assert _same_design(st, block)
    assert _same_bits(rep.mu_tilde, rate_report(ch, block).mu_tilde)
    assert trace.records == [TraceRecord(0, "receivers", rep.r_min)]
    _, rep_default, _ = solve(ch, cfg)
    _, rep, _ = solve(ch, cfg, SolverConfig(max_inner_iters=2))
    assert rep.r_min >= 0.9 * rep_default.r_min > 0


def test_power_budget_violation_names_user_and_power(monkeypatch):
    from latticealign import solver as solver_mod

    ch, cfg = _random_instance(seed=46)
    st0 = state_from_precoders(cfg, np.ones((3, 1, 2), dtype=complex))
    st0.v = st0.v * 2.0
    monkeypatch.setattr(solver_mod, "optimize_precoders", lambda ch, st, cfg=None: (st, 0.0))
    with pytest.raises(PowerBudgetError, match="user 0") as info:
        solve(ch, cfg, init_state=st0)
    assert info.value.power == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# outer-loop stopping rule
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, *names):
    from latticealign import solver as solver_mod

    calls = {name: [] for name in names}
    for name in names:
        real = getattr(solver_mod, name)

        def counted(*args, _real=real, _log=calls[name], **kwargs):
            out = _real(*args, **kwargs)
            _log.append(out)
            return out

        monkeypatch.setattr(solver_mod, name, counted)
    return calls


def _receive_block_output(seed=28):
    """A K=3, M=N=2 design after one receive block, every user on its power budget."""
    ch, cfg = _random_instance(eps=0.1, seed=seed)
    st = _receive_block(ch, initial_state(ch, cfg, "random_unit", seed=seed + 1, init_a="round"))
    return ch, cfg, st


def test_barrier_sweep_ends_at_a_stalled_first_stage(monkeypatch):
    """With every user on the budget the first barrier stage stalls, and the
    sweep ends there instead of running its remaining stages from the same x."""
    ch, cfg, st = _receive_block_output()
    assert np.allclose([st.power(k) for k in range(cfg.K)], 1.0)
    calls = _count_calls(monkeypatch, "minimize")
    optimize_precoders(ch, st)
    assert [res.nit for res in calls["minimize"]] == [1]


def test_barrier_sweep_continues_after_a_stage_that_moves(monkeypatch):
    """At half the budget the power barrier is not stiff, so the first stage
    moves and the sweep goes on; it ends at its first stalled stage."""
    ch, cfg, st = _receive_block_output()
    st.v = st.v * np.sqrt(0.5)
    calls = _count_calls(monkeypatch, "minimize")
    out, _ = optimize_precoders(ch, st)
    nits = [res.nit for res in calls["minimize"]]
    assert len(nits) > 1
    assert min(nits[:-1]) >= 2
    assert max(out.power(k) for k in range(cfg.K)) <= 1


def test_barrier_stages_ignore_max_inner_iters():
    """max_inner_iters caps the receive side only: on the half-budget
    instance, whose stages move, the transmit block gives the same bits at
    a cap of 1 as at the default."""
    ch, cfg, st = _receive_block_output()
    st.v = st.v * np.sqrt(0.5)
    out, t = optimize_precoders(ch, st)
    capped, t1 = optimize_precoders(ch, st, SolverConfig(max_inner_iters=1))
    assert _same_design(capped, out) and t1 == t


def _quadratic(n=25, cond=1e4, seed=0):
    """A convex quadratic in n variables whose Hessian has condition number cond."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.logspace(0, np.log10(cond), n)) @ Q.T
    b = rng.standard_normal(n)
    return lambda x: (0.5 * x @ A @ x - b @ x, A @ x - b), np.zeros(n)


def _rosenbrock(n):
    from scipy.optimize import rosen, rosen_der

    return lambda x: (rosen(x), rosen_der(x)), np.linspace(-1.2, 1.0, n)


def _barrier_stage(scale, q):
    """The barrier objective at weight q of a receive block's output whose
    precoders carry scale times the power budget."""
    ch, cfg, st = _receive_block_output()
    st.v = st.v * np.sqrt(scale)
    fun_grad, x0 = _transmit_objective(ch, st)
    return lambda x: fun_grad(x, q), x0


# words of scipy's L-BFGS-B stop messages (upper case, "_" read as " ", as
# both its Fortran and its C builds write them), by solver.minimize's message
_STOP_KINDS = {
    "gradient below gtol": "PROJECTED GRADIENT",
    "relative reduction of f below ftol": "REDUCTION OF F",
    "iteration limit reached": "ITERATIONS REACHED LIMIT",
    "line search failed": "ABNORMAL",
}


@pytest.mark.parametrize(
    "problem, maxiter, gtol",
    [
        # at gtol 1e-7 this quadratic ends at its rounding floor, where the
        # kind of stop is down to the last bits; at 1e-5 it is the gradient
        (lambda: _quadratic(), 1000, 1e-5),
        (lambda: _rosenbrock(2), 1000, 1e-7),
        (lambda: _rosenbrock(10), 1000, 1e-7),
        (lambda: _barrier_stage(1.0, 1.0), 1000, 1e-7),  # the stalled stage
        (lambda: _barrier_stage(0.5, 10.0), 1000, 1e-7),
        # from about 100 iterations on, this ill-conditioned stage's paths in
        # the two codes part through rounding alone, so its start is compared
        (lambda: _barrier_stage(0.5, 1.0), 20, 1e-7),
    ],
    ids=["quadratic-cond-1e4", "rosenbrock-2", "rosenbrock-10", "barrier-full-power",
         "barrier-half-power-q10", "barrier-half-power-q1"],
)
def test_minimize_matches_scipy_lbfgsb(problem, maxiter, gtol):
    """solver.minimize follows L-BFGS-B without bounds: under the same
    options (ftol 1e-15 as in the barrier stages) it stops for the same
    reason at the same f."""
    from scipy.optimize import minimize as lbfgsb

    fun, x0 = problem()
    opts = {"maxiter": maxiter, "ftol": 1e-15, "gtol": gtol}
    ours = solver_minimize(fun, x0, **opts)
    ref = lbfgsb(fun, x0, jac=True, method="L-BFGS-B", options=opts)
    assert _STOP_KINDS[ours.message] in ref.message.upper().replace("_", " ")
    assert abs(ours.fun - ref.fun) <= 1e-10 * max(1.0, abs(ref.fun))
    assert ours.fun == fun(ours.x)[0]
    if maxiter == 20:
        assert ours.nit == ref.nit == 20


def test_minimize_restarts_from_the_gradient_after_a_failed_search(monkeypatch):
    """A line search that fails with pairs in memory clears them and goes on
    from -g with a trial step of 1; one that fails with the memory empty ends
    the run at the last accepted iterate."""
    from latticealign import solver as solver_mod

    searches = []
    real = solver_mod._line_search

    def first_only(fun, x, d, f0, g0, stp):
        searches.append((x.copy(), d.copy(), stp))
        return real(fun, x, d, f0, g0, stp) if len(searches) == 1 else None

    monkeypatch.setattr(solver_mod, "_line_search", first_only)
    A = np.diag([1.0, 10.0])
    res = solver_minimize(lambda x: (x @ A @ x, 2 * A @ x), np.array([3.0, -4.0]),
                          maxiter=100, ftol=1e-15, gtol=1e-7)
    assert res.message == "line search failed" and res.nit == 1
    (x0, d0, stp0), (x1, d1, stp1), (x2, d2, stp2) = searches
    assert np.array_equal(d0, -2 * A @ x0) and stp0 == 1 / np.linalg.norm(d0)
    assert not np.allclose(d1 / np.linalg.norm(d1), d2 / np.linalg.norm(d2))  # d1 used a pair
    assert np.array_equal(x2, x1) and np.array_equal(d2, -2 * A @ x1) and stp2 == 1.0
    assert np.array_equal(res.x, x1) and res.fun == x1 @ A @ x1 < x0 @ A @ x0


def test_solve_stops_at_the_first_rejected_transmit_step(monkeypatch):
    """A rejected transmit step leaves the receive block's own output, so the
    loop ends there instead of repeating the block and the barrier solve,
    and the block's own rate report is returned, not computed again."""
    calls = _count_calls(monkeypatch, "optimize_receivers", "optimize_precoders", "rate_report")
    ch, cfg = _random_instance(eps=0.1, seed=30)
    st, rep, trace = solve(ch, cfg)
    assert len(calls["optimize_precoders"]) == 1
    assert len(calls["optimize_receivers"]) == 1  # the loop's block only
    # the block's report and the rejected step's: the block's is returned
    assert len(calls["rate_report"]) == 2 and calls["rate_report"][0] is rep
    fresh = rate_report(ch, st)
    for name in ("mu", "mu_tilde", "alignment"):
        assert _same_bits(getattr(rep, name), getattr(fresh, name))
    series = trace.pre_quantize_series()
    assert rate_report(ch, calls["optimize_precoders"][0][0]).r_min < series[0]
    assert trace.converged and trace.stop_reason == "transmit step rejected"
    assert [(rec.iter, rec.stage) for rec in trace.records] == [(0, "receivers"), (1, "precoders")]
    assert series[1] == series[0] == rep.r_min


def test_an_idle_transmit_step_ends_the_solve(monkeypatch):
    """A transmit step that returns its input ties r_min, which rejects it:
    the solve makes no refit and stops after its first receive block."""
    from latticealign import solver as solver_mod

    monkeypatch.setattr(solver_mod, "optimize_precoders", lambda ch, st, cfg=None: (st, 0.0))
    calls = _count_calls(monkeypatch, "optimize_receivers")
    ch, cfg = _random_instance(eps=0.1, seed=30)
    _, rep, trace = solve(ch, cfg)
    assert len(calls["optimize_receivers"]) == 1
    assert trace.converged and trace.stop_reason == "transmit step rejected"
    assert trace.pre_quantize_series() == [rep.r_min] * 2


def test_solve_stop_reasons():
    ch, cfg = _random_instance(eps=0.1, seed=31)
    _, _, trace = solve(ch, cfg)
    assert trace.converged and trace.stop_reason == "transmit step rejected"
    series = trace.pre_quantize_series()
    assert len(series) == 3 and series[2] == series[1] > series[0]  # a kept step, then a tie
    _, _, trace = solve(ch, cfg, SolverConfig(rate_tol=1.0))
    assert trace.converged and trace.stop_reason == "rate_tol reached"
    assert trace.pre_quantize_series() == series[:2]  # the kept step gained under 1 bit
    _, _, trace = solve(ch, cfg, SolverConfig(max_outer_iters=1))
    assert not trace.converged and trace.stop_reason == "max_outer_iters reached"
    _, _, trace = solve(ch, cfg, SolverConfig(max_inner_iters=1))
    assert not trace.converged
    assert trace.stop_reason.startswith("optimize_receivers: receive-side")
    assert len(trace.records) == 1  # the capped first block ends the solve


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("shape", _SHAPES)
def test_receive_block_is_idempotent(shape, eps, monkeypatch):
    """Refitting the receive side on its own output accepts nothing that
    moves a rate: the property that lets solve stop at a rejected step.  Its
    first sweep writes nothing, so the refit stops after that one sweep."""
    ch, cfg, st = _shaped_instance(*shape, eps, seed=700 + sum(shape))
    once = _receive_block(ch, st)
    calls = _count_calls(monkeypatch, "_stage2_joint_update")
    twice = _receive_block(ch, once)
    assert len(calls["_stage2_joint_update"]) == 1
    assert np.array_equal(twice.utilde, once.utilde)  # nothing written
    assert np.array_equal(twice.c, once.c) and np.array_equal(twice.a, once.a)
    assert abs(rate_report(ch, twice).r_min - rate_report(ch, once).r_min) <= 1e-12
    if eps == 0:
        for name in ("v", "u", "utilde"):
            assert np.array_equal(getattr(twice, name), getattr(once, name))


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_receive_block_stops_at_a_sweep_that_changes_no_scaling(eps, monkeypatch):
    """A sweep that writes new stage-two filters but changes no scaling ends
    the fixed point: each new filter is already fitted to its scaling."""
    ch, cfg, st = _shaped_instance(*_SHAPES[1], eps, seed=1600)
    once = _receive_block(ch, st)
    moved = once.copy()
    moved.utilde = moved.utilde * 1.1
    calls = _count_calls(monkeypatch, "_stage2_joint_update")
    twice = _receive_block(ch, moved)
    ((changed, _),) = calls["_stage2_joint_update"]
    assert not changed.any() and np.array_equal(twice.c, once.c)
    assert not np.array_equal(twice.utilde, moved.utilde)  # the sweep wrote


def test_receive_fixed_point_cap_of_one(monkeypatch):
    """A sweep that changes no scaling ends the receive fixed point whatever
    the cap: with a cap of 1, the block on its own output returns after that
    one sweep, while a block whose only sweep changes a scaling still hits
    the cap."""
    ch, cfg = _random_instance(eps=0.0, seed=3)
    st = initial_state(ch, cfg)
    once = _receive_block(ch, st)
    calls = _count_calls(monkeypatch, "_stage2_joint_update")
    twice = _receive_block(ch, once, SolverConfig(max_inner_iters=1))
    assert len(calls["_stage2_joint_update"]) == 1 and _same_design(twice, once)
    _, errors = optimize_receivers(ch, [st], SolverConfig(max_inner_iters=1))
    assert errors == ["receive-side fixed-point iteration hit the iteration cap"]


def test_capped_fit_message_names_each_decoder_once():
    """A stage-two refit batch has one row per candidate scaling, yet the
    message of a capped block lists each decoder once, sorted."""
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1, seed=1)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=101)
    _, errors = optimize_receivers(ch, [initial_state(ch, cfg)], SolverConfig(max_inner_iters=3))
    assert errors[0].endswith("within 3 steps for decoders [(0, 0), (1, 0)]")


def test_denominators_are_evaluated_only_by_rate_report(monkeypatch):
    """solve and multi_start evaluate each stage's denominators once per
    rate_report call and nowhere else."""
    from latticealign import rates as rates_mod
    from latticealign import solver as solver_mod

    calls = dict.fromkeys(("rate_report", "stage1_denominators", "stage2_denominators"), 0)
    for mod in (rates_mod, solver_mod):
        for name in calls:
            if hasattr(mod, name):

                def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
    ch, cfg = _random_instance(eps=0.1, seed=31)
    solve(ch, cfg)
    multi_start(ch, cfg, 2)
    assert calls["rate_report"] > 0
    assert calls["stage1_denominators"] == calls["stage2_denominators"] == calls["rate_report"]


def test_multi_start_runs_each_extra_precoder_set_as_one_start(monkeypatch):
    """An extra precoder set is one more start of multi_start's one solve
    call: two candidates at n_starts=1, the second the seeded solve's own
    design, and every receive fit runs inside that solve."""
    from latticealign import solver as solver_mod
    from latticealign.baselines import distributive_ia_design

    ch, cfg = _random_instance(eps=0.1, seed=42, P=20.0)
    V, _, _ = distributive_ia_design(ch.Hhat, cfg.L, cfg.P / cfg.L, 80)
    V = V.transpose(0, 2, 1)  # alignment columns -> stream rows
    expect, _, _ = solve(ch, cfg, init_state=state_from_precoders(cfg, V))

    depth, solves, outside, candidates = [0], [], [], []
    real_solve, real_rx = solver_mod.solve, solver_mod.optimize_receivers
    real_key = solver_mod._objective_key

    def nested_solve(*args, **kwargs):
        solves.append(kwargs["init_state"])
        depth[0] += 1
        try:
            return real_solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    def receivers(*args, **kwargs):
        outside.append(depth[0] == 0)
        return real_rx(*args, **kwargs)

    def key(st, report, objective):
        candidates.append(st)
        return real_key(st, report, objective)

    monkeypatch.setattr(solver_mod, "solve", nested_solve)
    monkeypatch.setattr(solver_mod, "optimize_receivers", receivers)
    monkeypatch.setattr(solver_mod, "_objective_key", key)
    multi_start(ch, cfg, n_starts=1, extra_precoders=(V,))
    assert outside and not any(outside)  # every receive fit runs inside a solve
    assert len(solves) == 1 and len(solves[0]) == 2
    assert len(candidates) == 2 and _same_design(candidates[-1], expect)


# ---------------------------------------------------------------------------
# decoder x candidate scaling array against the per-decoder list code
# ---------------------------------------------------------------------------


def _box_reference(ch, st, kk, ll):
    """The list-based candidate builder: the closed unit box around the
    weighted least-squares scaling, as GaussianInt lists."""
    a = st.a[kk, ll].reshape(len(kk), -1)
    ut = st.utilde[kk, ll]
    q = np.einsum("...ja,...a->...j", cross_vectors(ch.Hhat, st.v)[kk], ut.conj())
    q = q - own_stream_indicator(st.K, st.L)[kk, ll].reshape(q.shape)
    live = np.any(a != 0, axis=1)
    c_rel = np.zeros(len(kk), dtype=complex)
    al, ql = a[live], q[live]
    c_rel[live] = np.sum(al.conj() * ql, axis=1) / np.sum(np.abs(al) ** 2, axis=1)
    cands = []
    for d in range(len(kk)):
        if not live[d]:
            cands.append([GaussianInt(1, 0)])
            continue
        cr = c_rel[d]
        box = [
            GaussianInt(re, im)
            for re in range(int(np.ceil(cr.real - 1 - 1e-12)), int(np.floor(cr.real + 1 + 1e-12)) + 1)
            for im in range(int(np.ceil(cr.imag - 1 - 1e-12)), int(np.floor(cr.imag + 1 + 1e-12)) + 1)
        ]
        cands.append(box)
    return cands


def _joint_update_reference(ch, st, cfg):
    """The per-decoder (scaling, filter) update: score, rank, refit and accept
    decoder by decoder over flat candidate lists."""
    kk, ll = _decoder_grid(st)
    cands = _box_reference(ch, st, kk, ll)
    owner = np.repeat(np.arange(len(kk)), [len(cs) for cs in cands])
    cvals = np.array([complex(g) for cs in cands for g in cs])
    proxy = _scaling_value(ch, st, kk[owner], ll[owner], cvals)
    pick = np.concatenate([
        idx[np.argsort(proxy[idx], kind="stable")][:4]
        for idx in (np.flatnonzero(owner == d) for d in range(len(kk)))
    ])
    kr, lr, cr = kk[owner[pick]], ll[owner[pick]], cvals[pick]
    if ch.epsilon == 0:
        u_g = decorrelator_closed_form(ch, st, kr, lr, 2, cr)
    else:
        try:
            u_g = decorrelator_robust(ch, st, kr, lr, 2, cfg, u0=st.utilde[kr, lr], c=cr)
        except NonConvergenceError as exc:
            u_g = exc.best
    f_g = decorrelator_objective(ch, st, kr, lr, 2, u_g, c=cr)
    f_cur = decorrelator_objective(ch, st, kk, ll, 2, st.utilde[kk, ll])
    changed = False
    for d in range(len(kk)):
        mine = np.flatnonzero(owner[pick] == d)
        j = mine[np.argmin(f_g[mine])]
        if f_g[j] < f_cur[d]:
            changed = changed or cr[j] != st.c[kk[d], ll[d]]
            st.c[kk[d], ll[d]] = cr[j]
            st.utilde[kk[d], ll[d]] = u_g[j]
    return changed


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("shape", _SHAPES)
def test_scaling_array_matches_per_decoder_lists(shape, eps):
    """Candidate order, chosen scalings, stage-two filters and the changed
    flag are bitwise those of the list-based update, sweep after sweep."""
    ch, cfg, st = _shaped_instance(*shape, eps, seed=1100 + sum(shape))
    rng = np.random.default_rng(1101)
    st.c = rng.integers(-3, 4, st.c.shape) + 1j * rng.integers(-3, 4, st.c.shape)
    st.a[0, 0] = 0.0  # one decoder without an aggregate
    ref = st.copy()
    kk, ll = _decoder_grid(st)
    changes = []
    for _ in range(3):
        cands = scaling_candidates(ch, st, kk, ll)
        for d, box in enumerate(_box_reference(ch, st, kk, ll)):
            assert _same_bits(cands[d, : len(box)], np.array([complex(g) for g in box]))
            assert np.all(np.isnan(cands[d, len(box):]))
        changed, _ = _stage2_joint_update(ch, st, SolverConfig(), kk, ll)
        changed = bool(changed.any())
        assert changed == _joint_update_reference(ch, ref, SolverConfig())
        assert _same_bits(st.c, ref.c) and _same_bits(st.utilde, ref.utilde)
        changes.append(changed)
    assert changes[0]  # the random start scalings are not all kept


def test_scaling_box_around_an_integer_centre():
    """An integer least-squares scaling spans three integers per axis, and an
    incumbent outside that box is no candidate."""
    ch, cfg = _random_instance(seed=26)
    st = initial_state(ch, cfg, "random_unit", seed=27, init_a="zero")
    st.a[0, 0, 1, 0] = 1.0
    w = cross_vectors(ch.Hhat, st.v)[0, 1]
    st.utilde[0, 0] = 2 * w / np.vdot(w, w).real  # relaxed minimizer 2
    st.c[0, 0] = -2.0
    cands = scaling_candidates(ch, st, 0, 0)
    expect = [re + 1j * im for re in (1, 2, 3) for im in (-1, 0, 1)]
    assert _same_bits(cands, np.array(expect, dtype=complex))
    box = _box_reference(ch, st, np.array([0]), np.array([0]))[0]
    assert _same_bits(cands, np.array([complex(g) for g in box]))


def test_scaling_candidates_make_no_newton_call(monkeypatch):
    """The box is centred on the least-squares scaling at every CSI bound:
    building it runs no Newton fit."""
    calls = _count_calls(monkeypatch, "_newton_batch")
    for shape in _SHAPES:
        ch, cfg, st = _shaped_instance(*shape, 0.1, seed=1250 + sum(shape))
        cands = scaling_candidates(ch, st, *_decoder_grid(st))
        assert cands.shape == (st.K * st.L, 9)
        optimize_scaling(ch, st, 0, 0)
    assert calls["_newton_batch"] == []


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_joint_update_never_raises_an_objective_past_the_box(eps, monkeypatch):
    """An incumbent scaling 7+7j, with its own refit filter, lies outside
    most boxes.  A stage-two update never raises a decoder's objective, and
    where no refit candidate beats the incumbent pair it keeps its bits."""
    from latticealign import solver as solver_mod

    outside = 0
    for shift in (0, 20 + 20j):  # 20 + 20j moves every box far past the incumbent
        monkeypatch.setattr(
            solver_mod, "scaling_candidates", lambda *args: scaling_candidates(*args) + shift
        )
        for shape in _SHAPES:
            ch, cfg, st = _shaped_instance(*shape, eps, seed=1300 + sum(shape))
            kk, ll = _decoder_grid(st)
            st.a[kk[0], ll[0]] = 0.0  # one decoder without an aggregate
            st.c[:] = 7 + 7j
            st.utilde[kk, ll] = _fit_filters(
                ch, st, kk, ll, 2, SolverConfig(), st.utilde[kk, ll], st.c[kk, ll]
            )[0]
            before = st.copy()
            f0 = decorrelator_objective(ch, st, kk, ll, 2, st.utilde[kk, ll])
            if not shift:
                boxes = scaling_candidates(ch, st, kk, ll)
                outside += int(np.sum(np.all(boxes != 7 + 7j, axis=1)))
            _stage2_joint_update(ch, st, SolverConfig(), kk, ll)
            f = decorrelator_objective(ch, st, kk, ll, 2, st.utilde[kk, ll])
            assert np.all(f <= f0)
            take = f < f0  # a written pair has a lower objective
            kept = kk[~take], ll[~take]
            assert _same_bits(st.c[kept], before.c[kept])
            assert _same_bits(st.utilde[kept], before.utilde[kept])
            if shift:  # every decoder of an aggregate keeps its incumbent pair
                assert not take[np.any(st.a[kk, ll] != 0, axis=(1, 2))].any()
    assert outside > 0


def test_joint_update_scores_the_candidates_once(monkeypatch):
    from latticealign import solver as solver_mod

    calls = _count_calls(monkeypatch, "_scaling_value", "_stage2_joint_update")
    for eps in (0.0, 0.1):
        ch, cfg, st = _shaped_instance(*_SHAPES[1], eps, seed=1200)
        optimize_receivers(ch, [st])
    assert len(calls["_scaling_value"]) == len(calls["_stage2_joint_update"]) > 2

    def no_gaussian_ints(*args, **kwargs):
        raise AssertionError("GaussianInt built on the receive side")

    monkeypatch.setattr(solver_mod, "GaussianInt", no_gaussian_ints)
    ch, cfg, st = _shaped_instance(*_SHAPES[0], 0.1, seed=1201)
    optimize_receivers(ch, [st])


def test_multi_start_builds_the_alignment_start_once(monkeypatch):
    from latticealign import baselines

    calls = []
    real = baselines.conventional_ia_design

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "conventional_ia_design", counted)
    ch, cfg = _random_instance(seed=47)
    multi_start(ch, cfg, n_starts=1)
    assert calls == []
    multi_start(ch, cfg, n_starts=2)
    assert calls == [1]


def _rank_one_links(ch, links=((0, 0), (2, 0))):
    """ch with the estimates of the given links (here a direct and a cross
    link) cut to rank one, and the true channels moved with them, so that
    every link keeps its estimation error and stays inside the ball."""
    delta = ch.Hhat - ch.H
    Hhat = ch.Hhat.copy()
    for k, i in links:
        U, s, Vh = np.linalg.svd(Hhat[k, i])
        Hhat[k, i] = s[0] * np.outer(U[:, 0], Vh[0])
    return ChannelSet(H=Hhat - delta, Hhat=Hhat, epsilon=ch.epsilon)


# every _SHAPES entry at eps 0 and 0.1, then K = 3, M = N = 2 at 10 dB with
# rank-one links, with an error ball of radius 2, and with both
_CASES = [
    pytest.param(shape, eps, id=f"shape{i}-{eps}")
    for i, shape in enumerate(_SHAPES)
    for eps in (0.0, 0.1)
] + [
    pytest.param("rank_one", 0.1, id="rank_one-0.1"),
    pytest.param("full_rank", 2.0, id="full_rank-2.0"),
    pytest.param("rank_one", 2.0, id="rank_one-2.0"),
]


def _case_instance(shape, eps):
    if isinstance(shape, str):
        cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=eps, seed=11)
        ch = perturb_csi(generate_channels(cfg), eps, seed=12)
        return (_rank_one_links(ch) if shape == "rank_one" else ch), cfg
    K, L, M, N = shape
    cfg = SystemConfig(K=K, M=M, N=N, L=L, P=10.0, epsilon=eps, seed=1300 + sum(shape))
    return perturb_csi(generate_channels(cfg), eps, seed=cfg.seed + 10_000), cfg


@pytest.mark.parametrize("shape, eps", _CASES)
def test_multi_start_invariants_on_every_shape(shape, eps):
    """A full multi-start design keeps the solver's promises on L >= 2,
    K = 4, M != N, rank-one links and an error ball of radius 2: monotone
    trace, power budget, divisor-free integer coefficients and
    Gaussian-integer scalings."""
    ch, cfg = _case_instance(shape, eps)
    K, L = cfg.K, cfg.L
    st, _, trace = multi_start(ch, cfg, n_starts=2)
    series = trace.pre_quantize_series()
    assert all(cur >= prev - 1e-9 for prev, cur in zip(series, series[1:]))
    assert all(st.power(k) <= 1 + 1e-9 for k in range(K))
    for k in range(K):
        for l in range(L):
            assert common_divisor(st.coeff_vector(k, l)) is None
    assert np.array_equal(st.c, np.round(st.c.real) + 1j * np.round(st.c.imag))
    assert trace.converged


# ---------------------------------------------------------------------------
# solve over a start list against one-design solves
# ---------------------------------------------------------------------------


def _same_design(x, y):
    return all(_same_bits(getattr(x, f), getattr(y, f)) for f in ("v", "u", "utilde", "a", "c"))


def _assert_same_solve(got, want):
    (st, rep, tr), (st1, rep1, tr1) = got, want
    assert _same_design(st, st1)
    for name in ("mu", "mu_tilde", "alignment"):
        assert _same_bits(getattr(rep, name), getattr(rep1, name))
    assert rep.r_min == rep1.r_min
    assert tr.records == tr1.records
    assert (tr.stop_reason, tr.converged) == (tr1.stop_reason, tr1.converged)


def _lockstep_starts(ch, cfg):
    """multi_start's start list at n_starts=3 plus one seeded precoder set."""
    extra = complex_gaussian(np.random.default_rng(cfg.seed + 1), (cfg.K, cfg.L, cfg.M))
    return _starts(ch, cfg, 3) + [state_from_precoders(cfg, extra)]


@pytest.mark.parametrize("shape, eps", _CASES)
def test_lockstep_solve_equals_one_design_solves(shape, eps):
    """Solving a list of designs in lock-step gives every design the bits of
    a solve of that design alone: state, report, trace and first block."""
    ch, cfg = _case_instance(shape, eps)
    starts = _lockstep_starts(ch, cfg)
    states, reports, traces = solve(ch, cfg, init_state=starts)
    assert len(states) == len(reports) == len(traces) == len(starts)
    for d, st0 in enumerate(starts):
        _assert_same_solve((states[d], reports[d], traces[d]), solve(ch, cfg, init_state=st0))


@pytest.mark.parametrize("shape, eps", _CASES)
def test_solve_returns_at_least_its_first_receive_block(shape, eps):
    """Every design, in lock-step and alone, ends with an r_min at or above
    its solve's first receive block."""
    ch, cfg = _case_instance(shape, eps)
    starts = _lockstep_starts(ch, cfg)
    _, reports, traces = solve(ch, cfg, init_state=starts)
    alone = [solve(ch, cfg, init_state=st0)[1:] for st0 in starts]
    for rep, trace in [*zip(reports, traces), *alone]:
        assert trace.records[0].stage == "receivers"
        assert rep.r_min >= trace.records[0].r_min


def test_solve_rejects_a_rounded_step_that_loses_rate(monkeypatch):
    """A transmit step that relaxes a badly (u and a shrunk, c grown, which
    raises the stage-one bound of non-integer coefficients) passes the
    transmit test, but rounding its coefficients loses more than it gained:
    the refit of the rounded step is rejected and solve returns the first
    receive block, integer and divisor-free."""
    from latticealign import solver as solver_mod

    def transmit(ch, st, cfg=None):
        out = st.copy()
        out.u, out.a, out.c = st.u / 4, st.a / 4, st.c * 4
        return out, 0.0

    ch, cfg = _random_instance(eps=0.1, seed=40)
    st0 = initial_state(ch, cfg)
    first = _receive_block(ch, _round_coefficients(st0))
    monkeypatch.setattr(solver_mod, "optimize_precoders", transmit)
    st, rep, trace = solve(ch, cfg, init_state=st0)
    assert rate_report(ch, transmit(ch, first)[0]).r_min >= rate_report(ch, first).r_min
    assert trace.stop_reason == "rounded transmit step rejected"
    assert trace.converged
    assert _same_design(st, first)
    assert rep.r_min == rate_report(ch, st).r_min == trace.records[-1].r_min
    assert trace.pre_quantize_series() == [rep.r_min, rep.r_min]
    assert np.array_equal(st.a, np.round(st.a.real) + 1j * np.round(st.a.imag))
    for k in range(cfg.K):
        for l in range(cfg.L):
            assert common_divisor(st.coeff_vector(k, l)) is None


def test_lockstep_capped_designs_keep_their_own_errors():
    """With a receive cap that some designs hit and others do not, each
    design's error names only its own decoders, as a solve of it alone."""
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1, seed=42)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=52)
    extra = complex_gaussian(np.random.default_rng(2), (3, 1, 2))
    starts = _starts(ch, cfg, 3) + [state_from_precoders(cfg, extra)]
    capped = SolverConfig(max_inner_iters=4)
    states, reports, traces = solve(ch, cfg, capped, init_state=starts)
    assert {tr.converged for tr in traces} == {True, False}
    assert not traces.converged
    for d, st0 in enumerate(starts):
        _assert_same_solve((states[d], reports[d], traces[d]), solve(ch, cfg, capped, init_state=st0))
        named = re.findall(r"\((\d+), (\d+)\)", traces[d].stop_reason)
        assert all(int(k) < cfg.K for k, _ in named)

    states, errors = optimize_receivers(ch, starts, capped)
    assert len(states) == len(errors) == len(starts)
    assert any(err is None for err in errors) and any(err is not None for err in errors)
    for st0, st_d, err in zip(starts, states, errors):
        (alone,), (msg,) = optimize_receivers(ch, [st0], capped)
        assert err == msg
        assert _same_design(st_d, alone)


def test_receive_block_builds_each_designs_cross_vectors_once(monkeypatch):
    """A receive block builds the cross vectors of each of its designs once,
    not once per per-decoder call."""
    ch, cfg = _random_instance(eps=0.1, seed=42)
    starts = _lockstep_starts(ch, cfg)
    calls = _count_calls(monkeypatch, "cross_vectors")
    optimize_receivers(ch, [starts[0]])
    assert len(calls["cross_vectors"]) == 1
    optimize_receivers(ch, starts)
    assert len(calls["cross_vectors"]) == 1 + len(starts)


def test_solve_rejects_a_config_epsilon_other_than_the_channels():
    ch, cfg = _random_instance(eps=0.1, seed=42)
    for eps in (0.0, 0.2):
        with pytest.raises(ConfigurationError, match=rf"{eps!r}.*0\.1"):
            solve(ch, replace(cfg, epsilon=eps))
        with pytest.raises(ConfigurationError, match="epsilon"):
            multi_start(ch, replace(cfg, epsilon=eps), n_starts=1)


def _receive_call_sizes(monkeypatch):
    """The number of designs in each optimize_receivers call solve makes, in order."""
    from latticealign import solver as solver_mod

    real, sizes = solver_mod.optimize_receivers, []

    def counted(ch, designs, *args, **kwargs):
        sizes.append(len(designs))
        return real(ch, designs, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "optimize_receivers", counted)
    return sizes


def test_solve_batches_only_the_first_receive_blocks(monkeypatch):
    """One receive call holds every start's first block; every later block
    is a one-design call.  A transmit step that keeps the design does not
    raise r_min, so every start rejects it and makes no further call; with
    the real transmit block the one kept step is refit in its own call."""
    from latticealign import solver as solver_mod

    sizes = _receive_call_sizes(monkeypatch)
    ch, cfg = _random_instance(eps=0.1, seed=42)
    starts = _lockstep_starts(ch, cfg)
    _, _, traces = solve(ch, cfg, init_state=starts)
    kept = [len(tr.records) - 1 - (tr.stop_reason == "transmit step rejected") for tr in traces]
    assert kept == [0, 0, 0, 1] and sizes == [len(starts), 1]
    sizes.clear()
    monkeypatch.setattr(solver_mod, "optimize_precoders", lambda ch, st, cfg=None: (st, 0.0))
    _, _, traces = solve(ch, cfg, init_state=starts)
    assert [tr.stop_reason for tr in traces] == ["transmit step rejected"] * len(starts)
    assert sizes == [len(starts)]


def test_lockstep_raises_the_first_failing_design_in_start_order(monkeypatch):
    """Each start runs to its end in start order after the shared first
    block, so the error raised is the first one in start order, and the
    starts after it are not run."""
    from latticealign import solver as solver_mod

    ch, cfg = _random_instance(seed=46)
    fine = state_from_precoders(cfg, np.ones((3, 1, 2), dtype=complex))
    over = {}
    for user in (0, 2):
        over[user] = fine.copy()
        over[user].v[user] *= 2.0

    ran = []  # the users over budget of each design that takes a transmit step

    def transmit(ch, st, cfg=None):
        # keep the design: a tie, which ends each start's loop
        ran.append([k for k in (0, 2) if st.power(k) > 2])
        return st, 0.0

    monkeypatch.setattr(solver_mod, "optimize_precoders", transmit)
    sizes = _receive_call_sizes(monkeypatch)
    with pytest.raises(PowerBudgetError, match="user 2"):
        solve(ch, cfg, init_state=[fine, over[2], over[0]])
    # the shared first blocks only: each start stops at its rejected step,
    # over[2] then raises, so over[0] never runs
    assert sizes == [3] and ran == [[], [2]]
    sizes.clear()
    ran.clear()
    with pytest.raises(PowerBudgetError, match="user 0"):
        solve(ch, cfg, init_state=[fine, over[0], over[2]])
    assert sizes == [3] and ran == [[], [0]]  # over[0] runs like fine before it raises
    states, _, traces = solve(ch, cfg, init_state=[fine, fine])
    assert traces.converged and _same_design(states[0], states[1])


# ---------------------------------------------------------------------------
# transmit block: the real residual map against the einsum objective
# ---------------------------------------------------------------------------


def _transmit_reference(ch, st):
    """The barrier objective of the transmit block in its einsum form, which
    unpacks x to complex (v, a) and rebuilds both stages' residuals per call;
    returns (fun_grad, x0) like _transmit_objective."""
    K, L, M = st.v.shape
    P, eps, Hhat = st.P, ch.epsilon, ch.Hhat
    U, Ut, c = st.u, st.utilde, st.c
    nu, nut = (np.sqrt(np.sum(np.abs(X) ** 2, axis=-1)) for X in (U, Ut))
    E = own_stream_indicator(K, L)
    free = E.reshape(-1) == 0
    HU = np.einsum("kiab,kla->kilb", Hhat.conj(), U)
    HUt = np.einsum("kiab,kla->kilb", Hhat.conj(), Ut)
    cc, ccb = c[:, :, None, None], np.conj(c)[:, :, None, None]
    n_v, d2 = K * L * M, 1e-18

    def unpack(x):
        V = (x[1 : 1 + n_v] + 1j * x[1 + n_v : 1 + 2 * n_v]).reshape(K, L, M)
        Af = np.zeros(K * L * K * L, dtype=complex)
        Af[free] = x[1 + 2 * n_v : 1 + 2 * n_v + free.sum()] + 1j * x[1 + 2 * n_v + free.sum() :]
        return x[0], V, Af.reshape(K, L, K, L)

    def bounds(V, A):
        TT = np.einsum("kiab,inb->kina", Hhat, V)
        nvs = np.sqrt(np.sum(np.abs(V) ** 2, axis=-1) + d2)
        stages = []
        for Uf, nf, B in ((U, nu, A), (Ut, nut, cc * A + E)):
            Z = np.einsum("kla,kina->klin", Uf.conj(), TT) - B
            Hs = np.sqrt(np.abs(Z) ** 2 + d2)
            S = eps * nf[:, :, None, None] * nvs[None, None, :, :]
            g = nf**2 + P * np.sum((Hs + S) ** 2 - d2, axis=(2, 3))
            stages.append((Z, Hs, S, g))
        return stages, nvs

    def fun_grad(x, q):
        t, V, A = unpack(x)
        ps = 1.0 - np.sum(np.abs(V) ** 2, axis=(1, 2))
        ((Z1, H1, S1, g1), (Z2, H2, S2, g2)), nvs = bounds(V, A)
        s1, s2 = t - g1, t - g2
        if s1.min() > 0 and s2.min() > 0 and ps.min() > 0:
            lam1, lam2, lamp = 1.0 / (q * s1), 1.0 / (q * s2), 1.0 / (q * ps)
            F = t - (np.sum(np.log(s1)) + np.sum(np.log(s2)) + np.sum(np.log(ps))) / q
            gt = 1.0 - lam1.sum() - lam2.sum()
        else:
            lam1, lam2, lamp = 1e30 * (s1 <= 0), 1e30 * (s2 <= 0), 1e30 * (ps <= 0)
            viol = (
                np.sum(np.maximum(-s1, 0)) + np.sum(np.maximum(-s2, 0))
                + np.sum(np.maximum(-ps, 0))
            )
            F = 1e30 * (1.0 + viol)
            gt = -(lam1.sum() + lam2.sum())
        C1 = lam1[:, :, None, None] * P * ((H1 + S1) / H1) * Z1
        C2 = lam2[:, :, None, None] * P * ((H2 + S2) / H2) * Z2
        gA = -C1 - C2 * ccb
        gV = np.einsum("klin,kilb->inb", C1, HU) + np.einsum("klin,kilb->inb", C2, HUt)
        if eps > 0:
            e1 = P * eps * np.einsum("klin,kl->in", lam1[:, :, None, None] * (H1 + S1), nu)
            e2 = P * eps * np.einsum("klin,kl->in", lam2[:, :, None, None] * (H2 + S2), nut)
            gV = gV + ((e1 + e2) / nvs)[:, :, None] * V
        gV = gV + lamp[:, None, None] * V
        gAf = gA.reshape(-1)[free]
        grad = np.concatenate(
            [[gt], 2 * gV.real.ravel(), 2 * gV.imag.ravel(), 2 * gAf.real, 2 * gAf.imag]
        )
        return F, grad

    V0 = st.v.copy()
    for k in range(K):
        p = float(np.sum(np.abs(V0[k]) ** 2))
        if p >= 1 - 1e-9:
            V0[k] *= np.sqrt((1 - 1e-8) / p)
    (_, _, _, g1), (_, _, _, g2) = bounds(V0, st.a)[0]
    m0 = float(max(g1.max(), g2.max()))
    t0 = m0 + max(1e-4, 0.02 * (1 + abs(m0)))
    Af = st.a.reshape(-1)[free]
    return fun_grad, np.concatenate([[t0], V0.real.ravel(), V0.imag.ravel(), Af.real, Af.imag])


def _rel_err(x, ref):
    return np.max(np.abs(np.asarray(x) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("shape", _SHAPES)
def test_transmit_map_matches_the_einsum_objective(shape, eps):
    """The precomputed real residual map gives the einsum objective's value
    and gradient at the start, at a perturbed feasible point and, in its
    _BIG branch, at an infeasible one; its gradient passes a central
    finite-difference check, and its start vector is the einsum one."""
    ch, cfg, st = _shaped_instance(*shape, eps, seed=1400 + sum(shape))
    rng = np.random.default_rng(1401)
    st.c = rng.integers(-2, 3, st.c.shape) + 1j * rng.integers(-2, 3, st.c.shape)
    st.a[own_stream_indicator(st.K, st.L) == 0] += 0.3 * complex_gaussian(
        rng, st.a.shape
    )[own_stream_indicator(st.K, st.L) == 0]
    fun_grad, x0 = _transmit_objective(ch, st)
    ref, x0_ref = _transmit_reference(ch, st)
    assert np.array_equal(x0[1:], x0_ref[1:])
    assert x0[0] == pytest.approx(x0_ref[0], rel=1e-12)

    x1 = x0_ref + 0.01 * rng.standard_normal(len(x0))
    x1[1 : 1 + 2 * st.v.size] *= 0.9  # inside the power budget
    x1[0] = 2 * x0_ref[0]
    bad = x0_ref.copy()
    bad[0] = -1e20  # every epigraph slack negative
    bad[1 : 1 + 2 * st.v.size] *= 2.0  # and every user over budget
    for q in (1.0, 20.0, 4e5):
        for x in (x0_ref, x1):
            F, g = fun_grad(x, q)
            F_ref, g_ref = ref(x, q)
            assert F_ref < 1e30  # a feasible point
            assert abs(F - F_ref) <= 1e-9 * abs(F_ref) and _rel_err(g, g_ref) <= 1e-9
        h = 1e-6
        fd = np.array(
            [(fun_grad(x1 + h * e, q)[0] - fun_grad(x1 - h * e, q)[0]) / (2 * h)
             for e in np.eye(len(x1))]
        )
        assert _rel_err(fd, fun_grad(x1, q)[1]) <= 1e-5
        F, g = fun_grad(bad, q)
        F_ref, g_ref = ref(bad, q)
        assert F == F_ref > 1e30
        assert _rel_err(g, g_ref) <= 1e-9


# ---------------------------------------------------------------------------
# every kept state integral: the whole trace never decreases
# ---------------------------------------------------------------------------


def _assert_monotone_to_the_end(rep, trace):
    series = trace.pre_quantize_series()
    assert all(cur >= prev for prev, cur in zip(series, series[1:])), series
    assert series[-1] == rep.r_min


# the last case once reached r_min 1.19 on relaxed designs, and rounding
# them at the end of the solve returned 0.61
_TRACE_CASES = [
    pytest.param(shape, eps, 900 + sum(shape), id=f"shape{i}-{eps}")
    for i, shape in enumerate(_SHAPES)
    for eps in (0.0, 0.1)
] + [pytest.param((3, 1, 2, 2), 0.1, 0, id="seed0-0.1")]


@pytest.mark.parametrize("shape, eps, seed", _TRACE_CASES)
def test_solve_and_multi_start_traces_never_decrease(shape, eps, seed):
    """Every state a solve keeps is integral, so its whole trace never
    decreases and ends at the returned r_min, for solve and multi_start."""
    K, L, M, N = shape
    cfg = SystemConfig(K=K, M=M, N=N, L=L, P=10.0, epsilon=eps, seed=seed)
    ch = perturb_csi(generate_channels(cfg), eps, seed=seed + 1000)
    _assert_monotone_to_the_end(*solve(ch, cfg)[1:])
    _assert_monotone_to_the_end(*multi_start(ch, cfg, n_starts=2)[1:])


# ---------------------------------------------------------------------------
# start designs
# ---------------------------------------------------------------------------


def _ci_channel():
    """The CI 2x2 channel at eps 0.1."""
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, seed=5)
    return perturb_csi(generate_channels(cfg), 0.1, seed=6)


def test_solve_rejects_a_start_that_does_not_fit_the_config():
    """A start at another power would be solved at that power, past the
    range check, and a start of the wrong shape failed in numpy's
    broadcasting; both are rejected naming the field."""
    ch = _ci_channel()
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1)
    st0 = initial_state(ch, replace(cfg, P=1e150))
    with pytest.raises(ConfigurationError, match="P=1e"):
        solve(ch, cfg, init_state=st0)
    st0 = initial_state(ch, cfg)
    wrong = {"v": (3, 1, 1), "u": (3, 1, 3), "utilde": (3, 2, 2), "a": (3, 1, 3, 2), "c": (3, 2)}
    for name, shape in wrong.items():
        bad = st0.copy()
        setattr(bad, name, np.zeros(shape, dtype=complex))
        with pytest.raises(ConfigurationError, match=f"field {name} "):
            solve(ch, cfg, init_state=[initial_state(ch, cfg), bad])
    bad = state_from_precoders(replace(cfg, K=2), np.ones((2, 1, 2)))
    with pytest.raises(ConfigurationError, match="field v "):
        solve(ch, cfg, init_state=bad)


def test_solve_rejects_an_empty_start_list_and_a_non_finite_start():
    """An empty list failed in numpy's concatenate, and a start with a NaN ran
    every Newton fit to its cap and returned r_min NaN; both are rejected,
    naming the list or the field."""
    ch = _ci_channel()
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1)
    for empty in ([], ()):
        with pytest.raises(ConfigurationError, match="empty list"):
            solve(ch, cfg, init_state=empty)
    st0 = initial_state(ch, cfg)
    entries = {"v": (0, 0, 1), "u": (1, 0, 0), "utilde": (2, 0, 1), "a": (0, 0, 1, 0), "c": (2, 0)}
    for name, at in entries.items():
        for value in (np.nan, np.inf):
            bad = st0.copy()
            getattr(bad, name)[at] = value
            with pytest.raises(ConfigurationError, match=f"field {name} has a non-finite entry"):
                solve(ch, cfg, init_state=[st0, bad])


def test_a_start_user_without_power_is_named():
    """Precoders of zero power divided by zero (a RuntimeWarning), and
    multi_start dropped such an extra start as a NaN design; the user is
    named instead."""
    ch = _ci_channel()
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1)
    for user, value in ((0, 0.0), (1, np.nan), (2, np.inf)):
        V = np.ones((3, 1, 2), dtype=complex)
        V[user] = value
        with pytest.raises(ConfigurationError, match=f"user {user} "):
            state_from_precoders(cfg, V)
        with pytest.raises(ConfigurationError, match=f"user {user} "):
            multi_start(ch, cfg, n_starts=1, extra_precoders=(V,))


@pytest.mark.parametrize("n_starts", [True, 2.5, "2", 0, -1, None, np.float64(2.0)])
def test_multi_start_names_an_n_starts_that_is_no_positive_integer(n_starts):
    """True ran one start, and 2.5 or "2" raised a bare TypeError."""
    ch = _ci_channel()
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1)
    with pytest.raises(ConfigurationError, match="n_starts must be a positive integer"):
        multi_start(ch, cfg, n_starts=n_starts)


# ---------------------------------------------------------------------------
# bound-pruned stage-two refits
# ---------------------------------------------------------------------------


def _spy_on_pruning(monkeypatch, fit_all=False):
    """Wrap decorrelator_robust.  Each call that prunes records its bounds
    and mask; with fit_all, no call prunes (the reference that refits every
    candidate)."""
    from latticealign import solver as solver_mod

    real, log = solver_mod.decorrelator_robust, []

    def spy(*args, prune=None, **kwargs):
        if prune is None or fit_all:
            return real(*args, **kwargs)

        def recorded(lb, ub):
            mask = prune(lb, ub)
            log.append({"args": args, "kwargs": kwargs, "lb": lb, "ub": ub, "pruned": mask})
            return mask

        return real(*args, prune=recorded, **kwargs)

    monkeypatch.setattr(solver_mod, "decorrelator_robust", spy)
    return log


def _pruning_designs(K, L, eps, seed):
    """A channel, its config and three designs with random filters and scalings."""
    ch, cfg, st = _shaped_instance(K, L, L + 1, L + 1, eps, seed)
    rng = np.random.default_rng(seed + 3)
    designs = [st] + [
        initial_state(ch, cfg, "random_unit", seed=seed + 4 + i, init_a="round") for i in range(2)
    ]
    for d in designs:
        d.c = rng.integers(-3, 4, d.c.shape) + 1j * rng.integers(-3, 4, d.c.shape)
    return ch, cfg, designs


_PRUNE_CASES = [
    pytest.param(K, L, eps, id=f"K{K}-L{L}-{eps}")
    for K in (3, 4) for L in (1, 2) for eps in (0.05, 0.1, 0.3)
]


@pytest.mark.parametrize("K, L, eps", _PRUNE_CASES)
def test_pruned_refits_give_the_bits_of_refitting_every_candidate(K, L, eps, monkeypatch):
    """Receive blocks on one design and on a stack of three, and a full
    solve, give the bits of a reference that refits every stage-two
    candidate, errors and traces included, while some refits are pruned."""
    ch, cfg, designs = _pruning_designs(K, L, eps, seed=2300 + 10 * K + L)
    runs = [
        lambda: optimize_receivers(ch, [d.copy() for d in designs]),
        lambda: optimize_receivers(ch, [designs[1].copy()]),
        lambda: solve(ch, cfg),
    ]
    log = _spy_on_pruning(monkeypatch)
    got = [run() for run in runs]
    assert sum(int(rec["pruned"].sum()) for rec in log) > 0
    monkeypatch.undo()
    _spy_on_pruning(monkeypatch, fit_all=True)
    want = [run() for run in runs]
    for (states, errs), (ref_states, ref_errs) in zip(got[:2], want[:2]):
        assert errs == ref_errs
        assert all(_same_design(x, y) for x, y in zip(states, ref_states))
    _assert_same_solve(got[2], want[2])


@pytest.mark.parametrize("K, L, eps", _PRUNE_CASES[::2])
def test_every_pruned_refit_lies_at_or_above_its_threshold(K, L, eps, monkeypatch):
    """lb bounds the exact objective of every full refit from below and ub
    bounds every fitted row's from above.  A pruned row's full refit is at
    or above its threshold: the least of its decoder's incumbent objective
    and its candidates' upper bounds.  Stage-one rows are never pruned."""
    from latticealign import solver as solver_mod

    real = solver_mod.decorrelator_robust
    ch, cfg, designs = _pruning_designs(K, L, eps, seed=2400 + 10 * K + L)
    log = _spy_on_pruning(monkeypatch)
    optimize_receivers(ch, designs)
    assert sum(int(rec["pruned"].sum()) for rec in log) > 0
    for rec in log:
        (ch_, S, k, l, stage, cfg_), kw = rec["args"], rec["kwargs"]
        try:
            full = real(ch_, S, k, l, stage, cfg_, **kw)
        except NonConvergenceError as exc:
            full = exc.best
        c = np.where(stage == 2, kw["c"], S.c[k, l])
        f_full = np.array([
            decorrelator_objective(ch, S, k[i], l[i], stage[i], full[i], c=c[i])
            for i in range(len(k))
        ])
        lb, ub, pruned = rec["lb"], rec["ub"], rec["pruned"]
        assert not pruned[stage == 1].any()
        assert np.all(lb <= f_full * (1 + 1e-12))
        assert np.all(f_full[~pruned] <= ub[~pruned] * (1 + 1e-12))
        for i in np.flatnonzero(pruned):
            mine = (stage == 2) & (k == k[i]) & (l == l[i])
            f_cur = decorrelator_objective(ch, S, k[i], l[i], 2, S.utilde[k[i], l[i]])
            assert f_full[i] >= min(f_cur, ub[mine].min())


@pytest.mark.parametrize("P", [1e-100, 1e100])
@pytest.mark.parametrize("eps", [0.1, 1e20])
def test_refit_bounds_raise_no_warning_at_the_carried_corners(P, eps, monkeypatch):
    """At the corners of the carried range (check_carried) the bound
    arithmetic raises no RuntimeWarning (the suite turns each one into an
    error), and every bound is a finite number.  As solve --epsilon does,
    the error bound is set on a channel estimated at 0.1."""
    ch, cfg, designs = _pruning_designs(3, 2, 0.1, seed=2500)
    ch = ChannelSet(H=ch.H, Hhat=ch.Hhat, epsilon=eps)
    for d in designs:
        d.P = P
    log = _spy_on_pruning(monkeypatch)
    optimize_receivers(ch, designs)
    solve(ch, replace(cfg, P=P, epsilon=eps))
    assert log
    for rec in log:
        assert np.all(np.isfinite(rec["lb"])) and np.all(np.isfinite(rec["ub"]))
