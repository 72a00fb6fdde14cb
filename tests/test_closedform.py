"""Closed-form symmetric rates against direct numerical optimization."""

import numpy as np
import pytest
from scipy.optimize import minimize

from latticealign.channel import SystemConfig
from latticealign.closedform import (
    SymmetricInstance,
    gain_condition,
    gain_condition_sq,
    ia_equivalence_params,
    ia_equivalent_state,
    symmetric_channelset,
    symmetric_design,
    symmetric_rmin_lattice,
    symmetric_rmin_ml,
)
from latticealign.errors import ConfigurationError
from latticealign.gaussint import GaussianInt
from latticealign.rates import rate_report, stage1_rates, stage2_rates
from latticealign.solver import solve


def _numeric_stage1(K: int, h: complex, P: float) -> float:
    """Best aggregate-stage rate by direct descent over the complex filter."""

    def f(x):
        u = x[0] + 1j * x[1]
        pen = abs(u) ** 2 + (K - 1) * abs(np.conj(u) * h - 1) ** 2
        return abs(u) ** 2 + P * pen

    best = np.inf
    for x0 in ([0.1, 0.0], [0.5, 0.5], [1.0, -0.5]):
        res = minimize(f, x0, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
        best = min(best, res.fun)
    return float(np.log2(P / best))


def _numeric_stage2(K: int, h: complex, c: complex, P: float) -> float:
    """Best desired-stage rate for a fixed scaling by direct descent."""

    def f(x):
        u = x[0] + 1j * x[1]
        pen = abs(np.conj(u) - 1) ** 2 + (K - 1) * abs(np.conj(u) * h - c) ** 2
        return abs(u) ** 2 + P * pen

    best = np.inf
    for x0 in ([0.1, 0.0], [0.5, 0.5], [1.0, -0.5]):
        res = minimize(f, x0, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
        best = min(best, res.fun)
    return float(np.log2(P / best))


@pytest.mark.parametrize("K,h,P", [
    (3, GaussianInt(2, 0), 4.0),
    (2, GaussianInt(1, 0), 10.0),
    (4, GaussianInt(2, 0), 8.0),
    (3, GaussianInt(1, 1), 20.0),
    (2, GaussianInt(3, 0), 2.0),
])
def test_canonical_rate_matches_numeric_optimum(K, h, P):
    inst = SymmetricInstance(K=K, h=h, P=P)
    r1 = _numeric_stage1(K, complex(h), P)
    r2 = _numeric_stage2(K, complex(h), complex(h), P)
    assert symmetric_rmin_lattice(inst) == pytest.approx(min(r1, r2), abs=1e-9)


def test_oracle_instance_value():
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    assert symmetric_rmin_lattice(inst) == pytest.approx(np.log2(3.7), rel=1e-12)
    assert symmetric_rmin_lattice(inst) == pytest.approx(1.8875, abs=1e-4)


def test_symmetric_design_reproduces_formula_through_rate_engine():
    for K, h, P in [(3, GaussianInt(2, 0), 4.0), (4, GaussianInt(1, 1), 12.0)]:
        inst = SymmetricInstance(K=K, h=h, P=P)
        ch, cfg = symmetric_channelset(inst)
        st = symmetric_design(inst)
        rep = rate_report(ch, st)
        assert rep.r_min == pytest.approx(symmetric_rmin_lattice(inst), abs=1e-9)
        # filters are stationary: nudging them only hurts
        mu0 = stage1_rates(ch, st)[0, 0]
        mut0 = stage2_rates(ch, st)[0, 0]
        for d in (1e-4, -1e-4, 1e-4j):
            st2 = st.copy()
            st2.u[0, 0, 0] += d
            st2.utilde[0, 0, 0] += d
            assert stage1_rates(ch, st2)[0, 0] <= mu0 + 1e-12
            assert stage2_rates(ch, st2)[0, 0] <= mut0 + 1e-12


def test_closed_form_is_lower_bound_for_solver():
    """A corner where a non-canonical scaling wins: solver must beat it."""
    inst = SymmetricInstance(K=2, h=GaussianInt(3, 0), P=2.0)
    ch, cfg = symmetric_channelset(inst)
    _, rep, _ = solve(ch, cfg)
    assert rep.r_min >= symmetric_rmin_lattice(inst) - 1e-9
    # the better scaling c=2 gives log2(3) on the desired stage
    assert rep.r_min > symmetric_rmin_lattice(inst) + 0.3


def test_ml_rate_from_first_principles():
    K, h2, P = 3, 4.0, 4.0
    inst = SymmetricInstance(K=K, h=GaussianInt(2, 0), P=P)
    stage1 = np.log2(1 + (K - 1) * P * h2 / (1 + P)) / (K - 1)
    stage2 = np.log2(1 + P)
    assert symmetric_rmin_ml(inst) == pytest.approx(min(stage1, stage2), rel=1e-12)
    assert symmetric_rmin_ml(inst) == pytest.approx(1.4438, abs=1e-4)


def test_gain_condition_matches_direct_comparison():
    rng = np.random.default_rng(40)
    for _ in range(100):
        K = int(rng.integers(2, 8))
        h2 = float(rng.uniform(0.5, 4.0))
        P = float(rng.uniform(1.0, 200.0))
        from latticealign.closedform import _lattice_rate, _ml_rate

        assert gain_condition_sq(K, h2, P) == (_lattice_rate(K, h2, P) > _ml_rate(K, h2, P))


def test_gain_condition_thresholds():
    # large K: threshold approaches |h|^2 = 1 + 1/P
    assert gain_condition_sq(64, 1.3, 10.0)
    assert not gain_condition_sq(64, 1.0, 10.0)
    # K = 3 at medium power: threshold sits between 1.4 and 1.6
    assert gain_condition_sq(3, 1.6, 100.0)
    assert not gain_condition_sq(3, 1.4, 100.0)
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    assert gain_condition(inst)


def test_gain_condition_validation():
    with pytest.raises(ConfigurationError):
        gain_condition_sq(1, 1.0, 10.0)
    with pytest.raises(ConfigurationError):
        gain_condition_sq(3, -0.5, 10.0)
    with pytest.raises(ConfigurationError):
        gain_condition_sq(3, 1.0, 0.0)


def test_symmetric_instance_validation():
    with pytest.raises(ConfigurationError):
        SymmetricInstance(K=1, h=GaussianInt(2, 0), P=4.0)
    with pytest.raises(ConfigurationError):
        SymmetricInstance(K=3, h=2, P=4.0)  # not a GaussianInt
    with pytest.raises(ConfigurationError):
        SymmetricInstance(K=3, h=GaussianInt(2, 0), P=0.0)


def test_symmetric_channelset_layout():
    inst = SymmetricInstance(K=3, h=GaussianInt(2, 0), P=4.0)
    ch, cfg = symmetric_channelset(inst)
    assert ch.H.shape == (3, 3, 1, 1)
    assert ch.H[0, 0, 0, 0] == 1.0 and ch.H[0, 1, 0, 0] == 2.0
    assert cfg.K == 3 and cfg.M == cfg.N == cfg.L == 1


def test_ia_equivalence_rate_identity():
    """Stage-two bound of the constructed state equals the alignment rate."""
    from latticealign.baselines import conventional_ia_design
    from latticealign.channel import generate_channels

    for i in range(5):
        cfg = SystemConfig(K=3, M=2, N=2, L=1, P=1000.0, seed=3000 + i)
        ch = generate_channels(cfg)
        V, U = conventional_ia_design(ch.Hhat, 1)
        st = ia_equivalent_state(V, U, ch, cfg.P)
        rep = rate_report(ch, st)
        for k in range(3):
            zeta, utilde, rate = ia_equivalence_params(
                V[k][:, 0], U[k][:, 0], ch.Hhat[k, k], cfg.P
            )
            assert rep.mu_tilde[k, 0] == pytest.approx(rate, abs=1e-9)
            assert np.allclose(st.utilde[k, 0], utilde)
        assert np.all(st.a == 0)
        assert np.all(st.c == 1.0)
        assert np.all(np.isinf(rep.mu))
    for bad_v, bad_u in ((V[:, :, 0], U), (V, U[:, :, 0]), (V.transpose(0, 2, 1), U)):
        with pytest.raises(ConfigurationError, match=r"got V \(3, .*\) and U \(3, "):
            ia_equivalent_state(bad_v, bad_u, ch, cfg.P)
