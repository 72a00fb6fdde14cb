"""Alternating solver: gradients, blocks, safeguards, full pipeline."""

import numpy as np
import pytest

from latticealign.channel import (
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
    stage2_denominators,
    stage2_rates,
    stage_targets,
)
from latticealign.solver import (
    SolveTrace,
    SolverConfig,
    _least_squares_filters,
    _newton_batch,
    _Problems,
    _scaling_value,
    _stage2_joint_update,
    decorrelator_closed_form,
    decorrelator_objective,
    decorrelator_robust,
    initial_state,
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


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ConfigurationError):
        SolverConfig(barrier_nu=1.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(rate_tol=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_outer_iters=0)


@pytest.mark.parametrize("eps", [0.0, 0.15])
def test_robust_objective_gradient_finite_difference(eps):
    """The Newton kernel's value, gradient and Hessian agree with the exact
    objective and with central differences."""
    ch, cfg = _random_instance(eps=eps, seed=5)
    st = initial_state(ch, cfg, "random_unit", seed=7, init_a="round")
    w = cross_vectors(ch.Hhat, st.v)[0]
    b = stage_targets(st, 0, 0, 2)
    nv = np.sqrt(np.sum(np.abs(st.v) ** 2, axis=2)).reshape(-1)
    prob = _Problems.from_complex(w.conj()[None], b.conj()[None], 0.0, eps * nv, 1.0, cfg.P)
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


def test_scaling_candidates_box_size_and_incumbent():
    ch, cfg = _random_instance(seed=21)
    st = initial_state(ch, cfg, "random_unit", seed=22, init_a="round")
    rng = np.random.default_rng(23)
    st.utilde[0, 0] = complex_gaussian(rng, (2,))
    cands = scaling_candidates(ch, st, 0, 0)
    assert cands.shape == (10,)  # 3x3 closed unit box plus the incumbent
    n = np.count_nonzero(~np.isnan(cands))
    assert n >= 4 and np.all(np.isnan(cands[n:]))
    assert st.c[0, 0] in cands[:n]
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


def test_optimize_receivers_monotone_stage2_trace():
    for i, eps in enumerate([0.0, 0.1]):
        ch, cfg = _random_instance(eps=eps, seed=700 + i)
        st = initial_state(ch, cfg, "random_unit", seed=800 + i, init_a="round")
        st2, trace = optimize_receivers(ch, st)
        for prev, cur in zip(trace, trace[1:]):
            assert np.all(cur >= prev - 1e-9)
        # returned state realizes the last trace entry
        assert np.allclose(stage2_rates(ch, st2), trace[-1])


def test_optimize_receivers_zero_coefficients_use_zero_stage1_filter():
    ch, cfg = _random_instance(seed=26)
    st = initial_state(ch, cfg, "identity_like", init_a="zero")
    st2, _ = optimize_receivers(ch, st)
    assert np.all(st2.u == 0)
    assert np.all(st2.a == 0)


def test_optimize_receivers_escapes_initial_scaling():
    """Joint (utilde, c) scoring finds the better scaling on the oracle case."""
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    st = initial_state(ch, cfg, "identity_like", init_a="round")
    st2, _ = optimize_receivers(ch, st)
    assert np.allclose(st2.c, 2.0)


def test_optimize_precoders_stays_in_budget_and_helps():
    ch, cfg = _random_instance(seed=27)
    st = initial_state(ch, cfg, "random_unit", seed=28, init_a="round")
    st, _ = optimize_receivers(ch, st)
    r_before = rate_report(ch, st).r_min
    st2, t_val = optimize_precoders(ch, st, cfg.gamma)
    for k in range(cfg.K):
        assert st2.power(k) <= cfg.gamma + 1e-9
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


def test_solve_trace_monotone_and_csv():
    ch, cfg = _random_instance(eps=0.1, seed=31)
    st, rep, trace = solve(ch, cfg)
    series = trace.pre_quantize_series()
    assert len(series) >= 2
    for prev, cur in zip(series, series[1:]):
        assert cur >= prev - 1e-9
    text = trace.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "iter,r_min,stage,objective"
    assert any(",receivers," in ln for ln in lines[1:])
    assert any(",precoders," in ln for ln in lines[1:])
    assert any(",quantize," in ln for ln in lines[1:])


def test_solve_returns_integer_coefficients_and_budget():
    for seed in (32, 33):
        ch, cfg = _random_instance(eps=0.1, seed=seed)
        st, rep, trace = solve(ch, cfg)
        assert np.allclose(st.a.real, np.round(st.a.real))
        assert np.allclose(st.a.imag, np.round(st.a.imag))
        for k in range(cfg.K):
            assert st.power(k) <= cfg.gamma + 1e-9


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
        assert st.power(k) == pytest.approx(cfg.gamma)
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
    """The receive-only candidate makes a good precoder set a rate floor."""
    from latticealign.baselines import distributive_ia_design, ia_stream_rates

    ch, cfg = _random_instance(seed=42, P=20.0)
    rho = cfg.gamma * cfg.P / cfg.L
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
    assert st_id.power(0) == pytest.approx(cfg.gamma)
    st_rnd = initial_state(ch, cfg, "random_unit", seed=1)
    assert st_rnd.power(0) == pytest.approx(cfg.gamma)
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
    err = NonConvergenceError("stuck", best="state", trace=[1, 2])
    assert err.best == "state"
    assert err.trace == [1, 2]
    assert "stuck" in str(err)


def test_solve_trace_records():
    tr = SolveTrace()
    tr.add(0, "receivers", 1.0, 2.0)
    tr.add(0, "precoders", 1.5, 1.0)
    tr.add(1, "quantize", 1.4, 0.5)
    assert tr.r_min_series() == [1.0, 1.5, 1.4]
    assert tr.pre_quantize_series() == [1.0, 1.5]


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
        st, _ = optimize_receivers(ch, st)
        assert calls == []
    optimize_precoders(ch, st, cfg.gamma)  # the transmit block still uses scipy
    assert calls


def test_capped_filter_fit_keeps_the_refit_state():
    """Hitting the Newton iteration cap keeps the best filters found and
    flags the solve, instead of discarding the receive-side refit."""
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=14.0, epsilon=0.1, seed=5)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=6)
    capped = SolverConfig(max_inner_iters=1)
    st0 = initial_state(ch, cfg, "identity_like")
    with pytest.raises(NonConvergenceError, match=r"\(0, 0\)") as info:
        decorrelator_robust(ch, st0, 0, 0, 1, capped)
    assert info.value.best.shape == (2,)
    with pytest.raises(NonConvergenceError) as info:
        optimize_receivers(ch, st0, capped)
    assert isinstance(info.value.best, DesignState)
    _, rep_default, _ = solve(ch, cfg)
    _, rep, trace = solve(ch, cfg, capped)
    assert not trace.converged
    assert rep.r_min >= 0.9 * rep_default.r_min > 0


def test_power_budget_violation_names_user_and_power(monkeypatch):
    from latticealign import solver as solver_mod

    ch, cfg = _random_instance(seed=46)
    st0 = state_from_precoders(cfg, np.ones((3, 1, 2), dtype=complex))
    st0.v = st0.v * 2.0
    monkeypatch.setattr(solver_mod, "optimize_precoders", lambda ch, st, gamma, cfg=None: (st, 0.0))
    with pytest.raises(PowerBudgetError, match="user 0") as info:
        solve(ch, cfg, init_state=st0)
    assert info.value.power == pytest.approx(4 * cfg.gamma)


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


def test_solve_stops_at_the_first_rejected_transmit_step(monkeypatch):
    """A rejected transmit step leaves the receive block's own output, so the
    loop ends there instead of repeating the block and the barrier solve."""
    calls = _count_calls(monkeypatch, "optimize_receivers", "optimize_precoders")
    ch, cfg = _random_instance(eps=0.1, seed=30)
    _, _, trace = solve(ch, cfg)
    assert len(calls["optimize_precoders"]) == 1
    assert len(calls["optimize_receivers"]) == 2  # the loop's block and the final refit
    series = trace.pre_quantize_series()
    assert rate_report(ch, calls["optimize_precoders"][0][0]).r_min < series[0]
    assert trace.converged and trace.stop_reason == "transmit step rejected"
    assert [(rec.iter, rec.stage) for rec in trace.records] == [
        (0, "receivers"), (0, "precoders"), (1, "quantize")
    ]
    assert series[1] >= series[0]


def test_solve_stop_reasons():
    ch, cfg = _random_instance(eps=0.1, seed=31)
    _, _, trace = solve(ch, cfg)
    assert trace.converged and trace.stop_reason == "rate_tol reached"
    assert len(trace.pre_quantize_series()) > 4  # several accepted transmit steps
    _, _, trace = solve(ch, cfg, SolverConfig(max_outer_iters=2))
    assert not trace.converged and trace.stop_reason == "max_outer_iters reached"
    _, _, trace = solve(ch, cfg, SolverConfig(max_inner_iters=1))
    assert not trace.converged
    assert trace.stop_reason.startswith("optimize_receivers: receive-side")
    assert "final receive refit" in trace.stop_reason


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("shape", _SHAPES)
def test_receive_block_is_idempotent(shape, eps):
    """Refitting the receive side on its own output accepts nothing that
    moves a rate: the property that lets solve stop at a rejected step."""
    ch, cfg, st = _shaped_instance(*shape, eps, seed=700 + sum(shape))
    once, _ = optimize_receivers(ch, st)
    twice, _ = optimize_receivers(ch, once)
    assert np.array_equal(twice.c, once.c) and np.array_equal(twice.a, once.a)
    assert abs(rate_report(ch, twice).r_min - rate_report(ch, once).r_min) <= 1e-12
    if eps == 0:
        for name in ("v", "u", "utilde"):
            assert np.array_equal(getattr(twice, name), getattr(once, name))


def test_multi_start_reuses_the_seeded_first_receive_block(monkeypatch):
    """The receive-only candidate of an extra precoder set is the seeded
    solve's first receive block, not a second fit of the same input."""
    from latticealign import solver as solver_mod
    from latticealign.baselines import distributive_ia_design

    ch, cfg = _random_instance(eps=0.1, seed=42, P=20.0)
    V, _, _ = distributive_ia_design(ch.Hhat, cfg.L, cfg.gamma * cfg.P / cfg.L, 80)
    V = V.transpose(0, 2, 1)  # alignment columns -> stream rows
    expect, _ = optimize_receivers(ch, state_from_precoders(cfg, V))

    depth, outside, candidates = [0], [], []
    real_solve, real_rx = solver_mod.solve, solver_mod.optimize_receivers
    real_key = solver_mod._objective_key

    def nested_solve(*args, **kwargs):
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
    assert len(candidates) == 3
    for name in ("v", "u", "utilde", "a", "c"):
        assert np.array_equal(getattr(candidates[-1], name), getattr(expect, name))


# ---------------------------------------------------------------------------
# decoder x candidate scaling array against the per-decoder list code
# ---------------------------------------------------------------------------


def _box_reference(ch, st, kk, ll):
    """The list-based candidate builder: relaxed minimizer, closed unit box
    around it as GaussianInt lists, then the incumbent when outside."""
    a = st.a[kk, ll].reshape(len(kk), -1)
    ut = st.utilde[kk, ll]
    q = np.einsum("...ja,...a->...j", cross_vectors(ch.Hhat, st.v)[kk], ut.conj())
    q = q - own_stream_indicator(st.K, st.L)[kk, ll].reshape(q.shape)
    s = ch.epsilon * np.sqrt(np.sum(np.abs(st.v) ** 2, axis=2)).reshape(-1)
    s = s * np.sqrt(np.sum(np.abs(ut) ** 2, axis=-1))[..., None]
    live = np.any(a != 0, axis=1)
    c_rel = np.zeros(len(kk), dtype=complex)
    al, ql = a[live], q[live]
    c_rel[live] = np.sum(al.conj() * ql, axis=1) / np.sum(np.abs(al) ** 2, axis=1)
    if ch.epsilon > 0 and live.any():
        cfg = SolverConfig()
        prob = _Problems.from_complex(al[..., None], ql, s[live], 0.0, 0.0, 1.0)
        x0 = np.stack([c_rel[live].real, c_rel[live].imag], axis=1)
        x, _ = _newton_batch(prob, x0, cfg.newton_tol, cfg.max_inner_iters)
        c_rel[live] = x[:, 0] + 1j * x[:, 1]
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
        cur = st.c[kk[d], ll[d]]
        if abs(cur.real - round(cur.real)) < 1e-9 and abs(cur.imag - round(cur.imag)) < 1e-9:
            inc = GaussianInt(int(round(cur.real)), int(round(cur.imag)))
            if inc not in box:
                box.append(inc)
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
    n_refit = None if ch.epsilon == 0 else 4
    pick = np.concatenate([
        idx[np.argsort(proxy[idx], kind="stable")][:n_refit]
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
        changed, _ = _stage2_joint_update(ch, st, SolverConfig())
        assert changed == _joint_update_reference(ch, ref, SolverConfig())
        assert _same_bits(st.c, ref.c) and _same_bits(st.utilde, ref.utilde)
        changes.append(changed)
    assert changes[0]  # the random start scalings are not all kept


def test_scaling_box_around_an_integer_centre():
    """An integer relaxed minimizer spans three integers per axis, and an
    incumbent outside that box fills the tenth slot."""
    ch, cfg = _random_instance(seed=26)
    st = initial_state(ch, cfg, "random_unit", seed=27, init_a="zero")
    st.a[0, 0, 1, 0] = 1.0
    w = cross_vectors(ch.Hhat, st.v)[0, 1]
    st.utilde[0, 0] = 2 * w / np.vdot(w, w).real  # relaxed minimizer 2
    st.c[0, 0] = -2.0
    cands = scaling_candidates(ch, st, 0, 0)
    expect = [re + 1j * im for re in (1, 2, 3) for im in (-1, 0, 1)] + [-2]
    assert _same_bits(cands, np.array(expect, dtype=complex))
    box = _box_reference(ch, st, np.array([0]), np.array([0]))[0]
    assert _same_bits(cands, np.array([complex(g) for g in box]))


def test_joint_update_scores_the_candidates_once(monkeypatch):
    from latticealign import solver as solver_mod

    calls = _count_calls(monkeypatch, "_scaling_value", "_stage2_joint_update")
    for eps in (0.0, 0.1):
        ch, cfg, st = _shaped_instance(*_SHAPES[1], eps, seed=1200)
        optimize_receivers(ch, st)
    assert len(calls["_scaling_value"]) == len(calls["_stage2_joint_update"]) > 2

    def no_gaussian_ints(*args, **kwargs):
        raise AssertionError("GaussianInt built on the receive side")

    monkeypatch.setattr(solver_mod, "GaussianInt", no_gaussian_ints)
    ch, cfg, st = _shaped_instance(*_SHAPES[0], 0.1, seed=1201)
    optimize_receivers(ch, st)


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


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("shape", _SHAPES)
def test_multi_start_invariants_on_every_shape(shape, eps):
    """A full multi-start design keeps the solver's promises on L >= 2,
    K = 4 and M != N: monotone trace, power budget, divisor-free integer
    coefficients and Gaussian-integer scalings."""
    K, L, M, N = shape
    cfg = SystemConfig(K=K, M=M, N=N, L=L, P=10.0, epsilon=eps, seed=1300 + sum(shape))
    ch = perturb_csi(generate_channels(cfg), eps, seed=cfg.seed + 10_000)
    st, _, trace = multi_start(ch, cfg, n_starts=2)
    series = trace.pre_quantize_series()
    assert all(cur >= prev - 1e-9 for prev, cur in zip(series, series[1:]))
    assert all(st.power(k) <= cfg.gamma + 1e-9 for k in range(K))
    for k in range(K):
        for l in range(L):
            assert common_divisor(st.coeff_vector(k, l)) is None
    assert np.array_equal(st.c, np.round(st.c.real) + 1j * np.round(st.c.imag))
    assert trace.converged
