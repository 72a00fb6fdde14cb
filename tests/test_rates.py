"""Rate engine: two-stage bounds, reports, goodput scoring."""

import json

import numpy as np
import pytest

from latticealign.channel import ChannelSet, SystemConfig, generate_channels, perturb_csi
from latticealign.closedform import SymmetricInstance, symmetric_channelset, symmetric_design
from latticealign.gaussint import GaussianInt
from latticealign.rates import (
    DesignState,
    goodput,
    own_stream_indicator,
    per_stream_rates,
    rate_report,
    stage1_rates,
    stage2_rates,
)


def _symmetric_setup(K=3, h=2, P=4.0):
    inst = SymmetricInstance(K=K, h=GaussianInt(h, 0), P=P)
    ch, cfg = symmetric_channelset(inst)
    st = symmetric_design(inst)
    return inst, ch, cfg, st


def test_own_stream_indicator():
    E = own_stream_indicator(2, 2)
    assert E.shape == (2, 2, 2, 2)
    for k in range(2):
        for l in range(2):
            expect = np.zeros((2, 2))
            expect[k, l] = 1.0
            assert np.array_equal(E[k, l], expect)


def test_symmetric_stage_rates_scalar_oracle():
    """Recompute both stage bounds from scalars, no tensor machinery."""
    _, ch, cfg, st = _symmetric_setup()
    P, h, K = 4.0, 2.0, 3
    u = st.u[0, 0, 0]
    ut = st.utilde[0, 0, 0]
    c = st.c[0, 0]
    # aggregate stage: targets are the coefficients, own stream target 0
    d1 = abs(u) ** 2 + P * ((K - 1) * abs(u * h - 1) ** 2 + abs(u) ** 2)
    # desired stage: targets c * a off-diagonal and 1 on the own stream
    d2 = abs(ut) ** 2 + P * ((K - 1) * abs(ut * h - c) ** 2 + abs(ut - 1) ** 2)
    mu = stage1_rates(ch, st)
    mut = stage2_rates(ch, st)
    assert mu[0, 0] == pytest.approx(np.log2(P / d1), rel=1e-12)
    assert mut[0, 0] == pytest.approx(np.log2(P / d2), rel=1e-12)


def test_stage1_infinite_iff_all_zero_coefficients():
    _, ch, cfg, st = _symmetric_setup()
    st.a[1, 0] = 0.0
    mu = stage1_rates(ch, st)
    assert np.isinf(mu[1, 0])
    assert np.isfinite(mu[0, 0]) and np.isfinite(mu[2, 0])


def test_rate_report_min_over_finite_and_stage2():
    _, ch, cfg, st = _symmetric_setup()
    st.a[1, 0] = 0.0  # decoder (1,0) skips the aggregate stage
    rep = rate_report(ch, st)
    mu = stage1_rates(ch, st)
    mut = stage2_rates(ch, st)
    finite = mu[np.isfinite(mu)]
    assert rep.r_min == pytest.approx(min(finite.min(), mut.min()))


def test_rates_can_be_negative_but_report_raw():
    cfg = SystemConfig(K=2, M=1, N=1, L=1, P=0.1, seed=1)
    ch = generate_channels(cfg)
    st = DesignState(
        v=np.ones((2, 1, 1), dtype=complex),
        u=np.ones((2, 1, 1), dtype=complex),
        utilde=np.ones((2, 1, 1), dtype=complex),
        a=np.zeros((2, 1, 2, 1), dtype=complex),
        c=np.ones((2, 1), dtype=complex),
        P=0.1,
    )
    st.a[0, 0, 1, 0] = 1.0
    st.a[1, 0, 0, 0] = 1.0
    rep = rate_report(ch, st)
    assert rep.r_min < 0  # kept raw, clamping only happens at goodput


def test_alignment_error_uses_true_channels_and_skips_own():
    cfg = SystemConfig(K=2, M=1, N=1, L=1, P=10.0, epsilon=0.3, seed=3)
    ch = perturb_csi(generate_channels(cfg), 0.3, seed=4)
    st = DesignState(
        v=np.ones((2, 1, 1), dtype=complex),
        u=np.ones((2, 1, 1), dtype=complex),
        utilde=np.ones((2, 1, 1), dtype=complex),
        a=np.zeros((2, 1, 2, 1), dtype=complex),
        c=np.ones((2, 1), dtype=complex),
        P=10.0,
    )
    st.a[0, 0, 1, 0] = 1.0
    err = rate_report(ch, st).alignment[0, 0]
    manual = 10.0 * abs(ch.H[0, 1, 0, 0] - 1.0) ** 2  # own term excluded
    assert err == pytest.approx(manual, rel=1e-12)


def test_design_state_validation():
    with pytest.raises(ValueError):
        DesignState(
            v=np.zeros((2, 1, 1), dtype=complex),
            u=np.zeros((2, 1, 1), dtype=complex),
            utilde=np.zeros((2, 1, 1), dtype=complex),
            a=np.zeros((2, 1, 1, 1), dtype=complex),  # wrong shape
            c=np.ones((2, 1), dtype=complex),
            P=1.0,
        )
    a = np.zeros((2, 1, 2, 1), dtype=complex)
    a[0, 0, 0, 0] = 1.0  # own entry must stay zero
    with pytest.raises(ValueError):
        DesignState(
            v=np.zeros((2, 1, 1), dtype=complex),
            u=np.zeros((2, 1, 1), dtype=complex),
            utilde=np.zeros((2, 1, 1), dtype=complex),
            a=a,
            c=np.ones((2, 1), dtype=complex),
            P=1.0,
        )


def test_design_state_power_and_coeff_vector():
    _, ch, cfg, st = _symmetric_setup()
    assert st.power(0) == pytest.approx(1.0)
    vec = st.coeff_vector(0, 0)
    assert vec.own_index == 0
    assert [complex(e) for e in vec.entries] == [0j, 1 + 0j, 1 + 0j]


def test_goodput_clamps_and_scores_outage():
    _, ch, cfg, st = _symmetric_setup()
    rep = rate_report(ch, st)
    # exact CSI: designed rate is sustained verbatim
    assert goodput(ch, st, rep.r_min) == pytest.approx(rep.r_min)
    # asking for more than the channel supports loses everything
    assert goodput(ch, st, rep.r_min + 0.01) == 0.0
    assert goodput(ch, st, -1.0) == 0.0


def test_goodput_robust_design_never_outages_in_ball():
    cfg = SystemConfig(K=3, M=1, N=1, L=1, P=10.0, epsilon=0.1, seed=7)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=8)
    _, _, _, st = _symmetric_setup()  # any valid state works for the bound
    st = DesignState(
        v=st.v, u=st.u, utilde=st.utilde, a=st.a, c=st.c, P=10.0
    )
    rep = rate_report(ch, st)  # robust rates against the epsilon ball
    true_rep = rate_report(ch.true_view(), st)
    assert true_rep.r_min >= rep.r_min - 1e-9


def test_per_stream_rates_zero_coefficients_reduce_to_stage2():
    _, ch, cfg, st = _symmetric_setup()
    st.a[:] = 0.0
    rep = rate_report(ch, st)
    per = per_stream_rates(rep, st.a)
    assert np.allclose(per, rep.mu_tilde)


def test_per_stream_rates_limited_by_users_of_the_stream():
    _, ch, cfg, st = _symmetric_setup()
    rep = rate_report(ch, st)
    per = per_stream_rates(rep, st.a)
    # symmetric design: every decoder uses both other streams, so each
    # stream is capped by every aggregate bound and its own desired bound
    expect = min(float(rep.mu.min()), float(rep.mu_tilde[0, 0]))
    assert np.allclose(per, expect)


def test_rate_report_json_roundtrip_with_infinities():
    _, ch, cfg, st = _symmetric_setup()
    st.a[1, 0] = 0.0
    rep = rate_report(ch, st)
    payload = json.loads(rep.to_json())

    def enc(x):
        return {np.inf: "inf", -np.inf: "-inf"}.get(float(x), float(x))

    assert payload["mu"] == [[enc(x) for x in row] for row in rep.mu]
    assert payload["mu_tilde"] == [[enc(x) for x in row] for row in rep.mu_tilde]
    assert payload["r_min"] == enc(rep.r_min) and np.isfinite(rep.r_min)
    assert payload["alignment"] == rep.alignment.tolist()
    assert payload["mu"][1][0] == "inf"


def test_rate_report_builds_the_estimated_cross_vectors_once(monkeypatch):
    """Both stages' denominators share one build of the estimated-channel
    cross vectors; the true-channel alignment residual needs the other."""
    from latticealign import rates as rates_mod

    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1, seed=3)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=4)
    st = _symmetric_setup()[3]
    st = DesignState(
        v=np.ones((3, 1, 2)), u=np.ones((3, 1, 2)), utilde=np.ones((3, 1, 2)),
        a=st.a, c=st.c, P=cfg.P,
    )
    want = stage1_rates(ch, st), stage2_rates(ch, st)  # each builds its own
    real, built = rates_mod.cross_vectors, []

    def counted(H, V):
        built.append(H)
        return real(H, V)

    monkeypatch.setattr(rates_mod, "cross_vectors", counted)
    got = rate_report(ch, st)
    assert len(built) == 2 and built[0] is ch.Hhat and built[1] is ch.H
    assert got.mu.tobytes() == want[0].tobytes()
    assert got.mu_tilde.tobytes() == want[1].tobytes()
