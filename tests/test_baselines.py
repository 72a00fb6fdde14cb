"""Baseline designs: TDMA, two-stage ML, distributive IA, conventional IA."""

import math

import numpy as np
import pytest

from latticealign.baselines import (
    conventional_ia_design,
    distributive_ia_design,
    ia_stream_rates,
    interference_covariances,
    tdma_design,
    tdma_per_user_rates,
    two_stage_ml_common_rate,
    two_stage_ml_constraints,
    two_stage_ml_design,
)
from latticealign.channel import SystemConfig, complex_gaussian, generate_channels, perturb_csi
from latticealign.closedform import SymmetricInstance, symmetric_channelset, symmetric_rmin_ml
from latticealign.gaussint import GaussianInt


def _instance(K=3, M=2, N=2, L=1, P=10.0, eps=0.0, seed=0):
    cfg = SystemConfig(K=K, M=M, N=N, L=L, P=P, epsilon=eps, seed=seed)
    ch = generate_channels(cfg)
    if eps > 0:
        ch = perturb_csi(ch, eps, seed=seed + 50_000)
    return ch, cfg


def _leakage(Q, U):
    """Interference power sum_k trace(U_k^H Q_k U_k) left in the receive subspaces."""
    return float(sum(np.real(np.trace(U[k].conj().T @ Q[k] @ U[k])) for k in range(len(Q))))


def total_leakage(H, V, U, rho):
    return _leakage(interference_covariances(H, V, rho), U)


# Per-user loop forms of the batched baselines: the oracles they must match.


def _tdma_design_reference(Hhat, L):
    K, M = Hhat.shape[0], Hhat.shape[3]
    V = np.zeros((K, M, L), dtype=complex)
    for k in range(K):
        _, _, vh = np.linalg.svd(Hhat[k, k])
        V[k] = vh.conj().T[:, :L]
    return V


def _tdma_per_user_rates_reference(H, V, P, L):
    K, N = H.shape[0], H.shape[2]
    rho = P / L
    rates = np.zeros(K)
    for k in range(K):
        HV = H[k, k] @ V[k]
        _, logdet = np.linalg.slogdet(np.eye(N) + rho * (HV @ HV.conj().T))
        rates[k] = logdet / np.log(2) / K
    return rates


def _two_stage_ml_design_reference(Hhat):
    K, _, N, M = Hhat.shape
    V = np.zeros((K, M), dtype=complex)
    U = np.zeros((K, N), dtype=complex)
    for k in range(K):
        uu, _, vh = np.linalg.svd(Hhat[k, k])
        V[k] = vh.conj().T[:, 0]
        U[k] = uu[:, 0]
    return V, U


def _two_stage_ml_constraints_reference(H, V, U, P):
    K = H.shape[0]
    stage1 = np.full(K, np.inf)
    stage2 = np.zeros(K)
    for k in range(K):
        d = U[k].conj() @ H[k, k] @ V[k]
        stage2[k] = np.log2(1 + P * abs(d) ** 2)
        if K > 1:
            cross = sum(
                abs(U[k].conj() @ H[k, i] @ V[i]) ** 2 for i in range(K) if i != k
            )
            stage1[k] = np.log2(1 + P * cross / (1 + P * abs(d) ** 2)) / (K - 1)
    return stage1, stage2


def _ia_stream_rates_reference(H, V, U, rho):
    K, L = H.shape[0], V.shape[2]
    rates = np.zeros((K, L))
    for k in range(K):
        for l in range(L):
            u = U[k][:, l]
            nu2 = float(np.sum(np.abs(u) ** 2))
            sig = rho * abs(u.conj() @ H[k, k] @ V[k][:, l]) ** 2
            intf = 0.0
            for i in range(K):
                for n in range(L):
                    if not (i == k and n == l):
                        intf += rho * abs(u.conj() @ H[k, i] @ V[i][:, n]) ** 2
            rates[k, l] = np.log2(1 + sig / (nu2 + intf))
    return rates


def _zero_forcing_filters_reference(H, V):
    """Each receive filter of the 3-user closed form: the last left singular
    vector of every other stream's column at that receiver."""
    N, L = H.shape[2], V.shape[2]
    U = np.zeros((3, N, L), dtype=complex)
    for k in range(3):
        others = [H[k, i] @ V[i] for i in range(3) if i != k]
        for l in range(L):
            own = [H[k, k] @ V[k][:, [n]] for n in range(L) if n != l]
            uu = np.linalg.svd(np.concatenate(others + own, axis=1))[0]
            U[k][:, l] = uu[:, -1]
    return U


def test_tdma_single_stream_matches_top_mode_formula():
    """With L=1 the slot rate is (1/K) log2(1 + rho * sigma_max^2)."""
    for seed in range(10):
        ch, cfg = _instance(seed=seed, P=float(5 + seed))
        V = tdma_design(ch.Hhat, cfg.L)
        rates = tdma_per_user_rates(ch.H, V, cfg.P, cfg.L)
        rho = cfg.P / cfg.L
        for k in range(cfg.K):
            smax = np.linalg.svd(ch.H[k, k], compute_uv=False)[0]
            expect = math.log2(1 + rho * smax**2) / cfg.K
            assert rates[k] == pytest.approx(expect, rel=1e-9)


def test_tdma_multistream_determinant_oracle():
    ch, cfg = _instance(M=3, N=3, L=2, seed=3)
    V = tdma_design(ch.Hhat, cfg.L)
    rates = tdma_per_user_rates(ch.H, V, cfg.P, cfg.L)
    rho = cfg.P / cfg.L
    for k in range(cfg.K):
        G = ch.H[k, k] @ V[k]
        gram = np.eye(cfg.N) + rho * G @ G.conj().T
        expect = math.log2(abs(np.linalg.det(gram))) / cfg.K
        assert rates[k] == pytest.approx(expect, rel=1e-9)


def test_two_stage_ml_symmetric_oracle():
    """Scalar symmetric case: both stage bounds known in closed form."""
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    V, U = two_stage_ml_design(ch.Hhat)
    s1, s2 = two_stage_ml_constraints(ch.H, V, U, cfg.P)
    # interference power at each receiver: P * (K-1) h^2 = 32; desired-as-noise 1 + P
    assert s1[0] == pytest.approx(math.log2(1 + 32 / 5) / 2, rel=1e-12)
    assert s2[0] == pytest.approx(math.log2(1 + 4.0), rel=1e-12)
    rate = two_stage_ml_common_rate(ch.H, V, U, cfg.P)
    assert rate == pytest.approx(symmetric_rmin_ml(inst), rel=1e-12)


def test_two_stage_ml_single_user_skips_interference_stage():
    ch, cfg = _instance(K=1, seed=5)
    V, U = two_stage_ml_design(ch.Hhat)
    s1, s2 = two_stage_ml_constraints(ch.H, V, U, cfg.P)
    assert np.isinf(s1[0])
    assert np.isfinite(s2[0]) and s2[0] > 0


def test_interference_covariances_exclude_own_link():
    ch, cfg = _instance(seed=7)
    rng = np.random.default_rng(8)
    V = np.linalg.qr(complex_gaussian(rng, (3, 2, 2)))[0][:, :, :1]
    Q = interference_covariances(ch.Hhat, V, rho=5.0)
    for k in range(3):
        assert np.all(np.linalg.eigvalsh(Q[k]) >= -1e-12)
        other = sum(
            5.0 * ch.Hhat[k, j] @ V[j] @ V[j].conj().T @ ch.Hhat[k, j].conj().T
            for j in range(3)
            if j != k
        )
        assert np.allclose(Q[k], other)


def test_distributive_ia_leakage_non_increasing():
    for seed in range(8):
        ch, cfg = _instance(seed=100 + seed)
        rho = cfg.P / cfg.L
        V, U, trace = distributive_ia_design(ch.Hhat, cfg.L, rho, iters=60)
        assert len(trace) == 60
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-9
        # the final precoder half-step can only shrink leakage further
        assert total_leakage(ch.Hhat, V, U, rho) <= trace[-1] + 1e-9


def _distributive_ia_reference(Hhat, L, rho, iters):
    """The per-user loop form of distributive_ia_design: the reference its
    batched half-steps must match bit for bit.  Also returns each receive
    half-step's leakage sum_k trace(U_k^H Q_k U_k) and its total
    interference power sum_k trace(Q_k), the scale of the eigenvalues'
    rounding errors."""
    K, _, N, M = Hhat.shape
    V = _tdma_design_reference(Hhat, L)
    U = np.zeros((K, N, L), dtype=complex)
    lam = np.zeros((K, N))
    trace, leakage, power = [], [], []

    def covariances(links, X, n):
        Q = np.zeros((K, n, n), dtype=complex)
        for k in range(K):
            for i in range(K):
                if i != k:
                    T = links(k, i) @ X[i]
                    Q[k] += rho * (T @ T.conj().T)
        return Q

    for _ in range(iters):
        Q = covariances(lambda k, i: Hhat[k, i], V, N)
        for k in range(K):
            lam[k], vecs = np.linalg.eigh(Q[k])
            U[k] = vecs[:, :L]
        trace.append(float(lam[:, :L].sum()))
        leakage.append(_leakage(Q, U))
        power.append(float(np.trace(Q, axis1=1, axis2=2).real.sum()))
        Qr = covariances(lambda k, i: Hhat[i, k].conj().T, U, M)
        for k in range(K):
            V[k] = np.linalg.eigh(Qr[k])[1][:, :L]
    return V, U, trace, leakage, power


@pytest.mark.parametrize("K,L,M,N", [(3, 1, 2, 2), (4, 2, 3, 4), (3, 1, 3, 2)])
def test_distributive_ia_batched_equals_per_user_loop(K, L, M, N):
    ch, cfg = _instance(K=K, M=M, N=N, L=L, eps=0.1, seed=60 + K + M + N)
    rho = cfg.P / cfg.L
    V, U, trace = distributive_ia_design(ch.Hhat, L, rho, iters=40)
    V_ref, U_ref, trace_ref, leakage, power = _distributive_ia_reference(ch.Hhat, L, rho, 40)
    assert np.array_equal(V, V_ref)
    assert np.array_equal(U, U_ref)
    assert trace == trace_ref
    # an aligned network's leakage is itself rounding noise, so the error is
    # measured against the interference power
    assert np.all(np.abs(np.subtract(trace, leakage)) <= 1e-12 * np.array(power))


def _distributive_ia_all_links_reference(Hhat, L, rho, iters):
    """distributive_ia_design as it was batched over all K x K links: each
    half-step forms every H_ki X_i, zeroes the own links' covariances and
    sums over i.  Returns (V, U, trace)."""
    K, _, N, _ = Hhat.shape

    def covariances(H, X):
        T = H @ X[None]
        R = rho * (T @ T.conj().swapaxes(-1, -2))
        R[np.arange(K), np.arange(K)] = 0.0
        return R.sum(axis=1)

    V = tdma_design(Hhat, L)
    U = np.zeros((K, N, L), dtype=complex)
    Hrec = Hhat.conj().transpose(1, 0, 3, 2)
    lam = np.empty((iters, K, N))
    for i in range(iters):
        lam[i], U = np.linalg.eigh(covariances(Hhat, V))
        U = U[..., :L]
        V = np.linalg.eigh(covariances(Hrec, U))[1][..., :L]
    return V, U, lam[..., :L].sum(axis=(1, 2)).tolist()


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_distributive_ia_cross_links_equal_all_links(K, L):
    """Gathering each receiver's K-1 cross links once, for both directions,
    gives the bits of the all-links loop with its own links zeroed."""
    rng = np.random.default_rng(900 + 10 * K + L)
    for M, N in ((L, L + 1), (L + 1, L), (L + 2, L + 2)):
        ch, cfg = _instance(K=K, M=M, N=N, L=L, eps=0.1, seed=int(rng.integers(1 << 30)))
        rho = cfg.P / cfg.L
        V, U, trace = distributive_ia_design(ch.Hhat, L, rho, iters=25)
        V_ref, U_ref, trace_ref = _distributive_ia_all_links_reference(ch.Hhat, L, rho, 25)
        assert V.tobytes() == V_ref.tobytes() and V.shape == V_ref.shape
        assert U.tobytes() == U_ref.tobytes() and U.shape == U_ref.shape
        assert trace == trace_ref


def test_distributive_ia_three_user_alignment_nearly_exact():
    """3-user 2x2 with one stream is alignable: leakage collapses."""
    ch, cfg = _instance(seed=9)
    rho = cfg.P / cfg.L
    _, _, trace = distributive_ia_design(ch.Hhat, cfg.L, rho, iters=4000)
    assert trace[-1] < 1e-6 * trace[0]


def test_distributive_ia_columns_unit_norm():
    ch, cfg = _instance(M=3, N=3, L=2, seed=10)
    rho = cfg.P / cfg.L
    V, U, _ = distributive_ia_design(ch.Hhat, cfg.L, rho, iters=30)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0)


def test_ia_stream_rates_single_link_oracle():
    """One user, one stream: rate must be log2(1 + rho |u^H H v|^2 / |u|^2)."""
    rng = np.random.default_rng(11)
    H = complex_gaussian(rng, (1, 1, 2, 2))
    v = complex_gaussian(rng, (1, 2, 1))
    v /= np.linalg.norm(v)
    u = 2.0 * complex_gaussian(rng, (1, 2, 1))  # deliberately not unit norm
    rho = 7.0
    rates = ia_stream_rates(H, v, u, rho)
    g = (u[0][:, 0].conj() @ H[0, 0] @ v[0][:, 0]).item()
    nu2 = float(np.sum(np.abs(u) ** 2))
    assert rates[0, 0] == pytest.approx(math.log2(1 + rho * abs(g) ** 2 / nu2), rel=1e-12)


def test_ia_stream_rates_count_cross_and_self_streams():
    ch, cfg = _instance(M=3, N=3, L=2, seed=18)
    rng = np.random.default_rng(19)
    V = np.linalg.qr(complex_gaussian(rng, (3, 3, 3)))[0][:, :, :2]
    U = np.linalg.qr(complex_gaussian(rng, (3, 3, 3)))[0][:, :, :2]
    rho = 3.0
    rates = ia_stream_rates(ch.H, V, U, rho)
    k, l = 1, 0
    u = U[k][:, l]
    sig = rho * abs(u.conj() @ ch.H[k, k] @ V[k][:, l]) ** 2
    intf = sum(
        rho * abs(u.conj() @ ch.H[k, i] @ V[i][:, n]) ** 2
        for i in range(3)
        for n in range(2)
        if not (i == k and n == l)
    )
    assert rates[k, l] == pytest.approx(math.log2(1 + sig / (1 + intf)), rel=1e-12)


def test_conventional_ia_residuals():
    worst = 0.0
    for seed in range(20):
        ch, cfg = _instance(seed=200 + seed)
        design = conventional_ia_design(ch.Hhat, cfg.L)
        assert design is not None
        V, U = design
        for k in range(3):
            for j in range(3):
                if j == k:
                    continue
                leak = np.linalg.norm(U[k].conj().T @ ch.Hhat[k, j] @ V[j])
                worst = max(worst, float(leak))
            kept = np.linalg.norm(U[k].conj().T @ ch.Hhat[k, k] @ V[k])
            assert kept > 1e-3  # the desired stream survives zero-forcing
    assert worst < 1e-8


def test_conventional_ia_infeasible_geometries():
    cfg = SystemConfig(K=4, M=2, N=2, L=1, P=10.0, seed=13)
    ch = generate_channels(cfg)
    assert conventional_ia_design(ch.Hhat, cfg.L) is None

    cfg3 = SystemConfig(K=3, M=3, N=3, L=1, P=10.0, seed=14)
    ch3 = generate_channels(cfg3)
    assert conventional_ia_design(ch3.Hhat, cfg3.L) is None  # odd M has no half split


def test_conventional_ia_deterministic():
    ch, cfg = _instance(seed=16)
    V1, U1 = conventional_ia_design(ch.Hhat, cfg.L)
    V2, U2 = conventional_ia_design(ch.Hhat, cfg.L)
    assert np.array_equal(V1, V2) and np.array_equal(U1, U2)


# (K, L, M, N): every user count the suite names, several streams and
# unequal antenna counts wherever they fit
SHAPES = [(1, 2, 2, 3), (2, 2, 3, 2), (3, 1, 2, 2), (3, 2, 4, 3), (4, 3, 3, 4)]


def _assert_rel(got, expect, rel=1e-12):
    assert got.shape == expect.shape
    assert np.array_equal(np.isinf(got), np.isinf(expect))
    fin = np.isfinite(expect)
    assert np.all(np.abs(got[fin] - expect[fin]) <= rel * np.abs(expect[fin]))


@pytest.mark.parametrize("K,L,M,N", SHAPES)
def test_tdma_batched_equals_per_user_loop(K, L, M, N):
    ch, cfg = _instance(K=K, M=M, N=N, L=L, eps=0.1, seed=70 + K)
    V = tdma_design(ch.Hhat, L)
    assert np.array_equal(V, _tdma_design_reference(ch.Hhat, L))
    for H in (ch.Hhat, ch.H):
        _assert_rel(
            tdma_per_user_rates(H, V, cfg.P, L),
            _tdma_per_user_rates_reference(H, V, cfg.P, L),
        )


@pytest.mark.parametrize("K,L,M,N", SHAPES)
def test_two_stage_ml_batched_equals_per_user_loop(K, L, M, N):
    ch, cfg = _instance(K=K, M=M, N=N, L=L, eps=0.1, seed=80 + K)
    V, U = two_stage_ml_design(ch.Hhat)
    V_ref, U_ref = _two_stage_ml_design_reference(ch.Hhat)
    assert np.array_equal(V, V_ref) and np.array_equal(U, U_ref)
    for H in (ch.Hhat, ch.H):
        s1, s2 = two_stage_ml_constraints(H, V, U, cfg.P)
        s1_ref, s2_ref = _two_stage_ml_constraints_reference(H, V, U, cfg.P)
        assert np.all(np.isinf(s1)) == (K == 1)
        _assert_rel(s1, s1_ref)
        _assert_rel(s2, s2_ref)


@pytest.mark.parametrize("K,L,M,N", SHAPES)
def test_ia_stream_rates_batched_equals_per_user_loop(K, L, M, N):
    ch, cfg = _instance(K=K, M=M, N=N, L=L, eps=0.1, seed=90 + K)
    rho = cfg.P / L
    V, U, _ = distributive_ia_design(ch.Hhat, L, rho, iters=20)
    for H in (ch.Hhat, ch.H):
        _assert_rel(ia_stream_rates(H, V, U, rho), _ia_stream_rates_reference(H, V, U, rho))


@pytest.mark.parametrize("L", [1, 2, 3])
def test_conventional_ia_filters_batched_equal_per_stream_loop(L):
    for seed in range(5):
        ch, _ = _instance(M=2 * L, N=2 * L, L=L, seed=300 + 10 * L + seed)
        V, U = conventional_ia_design(ch.Hhat, L)
        U_ref = _zero_forcing_filters_reference(ch.Hhat, V)
        # |u^H H_ki v_in| of every receive filter against every stream
        gains = [
            np.abs(np.einsum("kal,kiab,ibn->klin", X.conj(), ch.Hhat, V)).reshape(3, L, -1)
            for X in (U, U_ref)
        ]
        own = np.eye(3 * L, dtype=bool).reshape(3, L, -1)
        residual, residual_ref = (g[~own].max() for g in gains)
        assert residual <= 10 * residual_ref + 1e-12
        # the desired stream survives, with the loop's gain up to rounding
        _assert_rel(gains[0][own], gains[1][own])
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0)
