"""Channel generation, uncertainty model and serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from latticealign.channel import (
    ChannelSet,
    SystemConfig,
    channelset_from_json,
    channelset_to_json,
    complex_gaussian,
    generate_channels,
    perturb_csi,
    rank_one_worst_delta,
    sample_delta_in_ball,
    snr_db_to_power,
    worst_case_crossterm_bound,
)
from latticealign.errors import ConfigurationError


def test_system_config_validation():
    SystemConfig(K=3, M=2, N=2, L=1, P=10.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=0, M=2, N=2, L=1, P=10.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=3, M=2, N=2, L=3, P=10.0)  # L > min(M, N)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=3, M=2, N=2, L=1, P=-1.0)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=-0.1)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=3, M=2, N=2, L=1, P=10.0, gamma=0.0)
    for name in ("K", "M", "N", "L"):  # a bool is an int
        with pytest.raises(ConfigurationError, match=f"{name} must be a positive integer"):
            SystemConfig(**{**dict(K=3, M=2, N=2, L=1, P=10.0), name: True})


_GOOD_CONFIG = dict(K=3, M=2, N=2, L=1, P=10.0)


@pytest.mark.parametrize(
    "field, bad",
    [("K", 3.0), ("M", "2"), ("N", None), ("L", True), ("P", "10"), ("P", None),
     ("P", True), ("gamma", "1"), ("gamma", -1.0), ("epsilon", None), ("epsilon", "0.1"),
     ("epsilon", False), ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "7")],
)
def test_system_config_names_the_bad_field(field, bad):
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        SystemConfig(**{**_GOOD_CONFIG, field: bad})


def test_system_config_takes_numpy_scalars():
    cfg = SystemConfig(K=np.int64(3), M=np.int32(2), N=2, L=1, P=np.float64(10.0),
                       epsilon=np.float32(0.1), seed=np.uint32(7))
    assert generate_channels(cfg).H.shape == (3, 3, 2, 2)


@pytest.mark.parametrize(
    "over",
    [{"P": float("inf")}, {"P": float("nan")}, {"gamma": float("inf")},
     {"epsilon": float("nan")}, {"epsilon": float("inf")}],
)
def test_system_config_rejects_non_finite(over):
    kwargs = dict(K=3, M=2, N=2, L=1, P=10.0)
    kwargs.update(over)
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("field", ["H", "Hhat", "epsilon"])
def test_channelset_rejects_nan(field):
    ch = generate_channels(SystemConfig(K=2, M=2, N=2, L=1, P=1.0, seed=3))
    kwargs = {"H": ch.H.copy(), "Hhat": ch.Hhat.copy(), "epsilon": 0.1}
    if field == "epsilon":
        kwargs["epsilon"] = float("nan")
    else:
        kwargs[field][1, 0, 0, 1] = complex(float("nan"), 0.0)
    with pytest.raises(ConfigurationError):
        ChannelSet(**kwargs)


def test_snr_db_to_power():
    assert snr_db_to_power(0.0) == pytest.approx(1.0)
    assert snr_db_to_power(10.0) == pytest.approx(10.0)
    assert snr_db_to_power(11.5) == pytest.approx(10 ** 1.15)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("nan"), float("inf")])
def test_snr_db_to_power_rejects_powers_beyond_the_float_range(snr_db):
    with pytest.raises(ConfigurationError, match=f"SNR {snr_db!r} dB"):
        snr_db_to_power(snr_db)


def test_complex_gaussian_moments():
    rng = np.random.default_rng(20)
    z = complex_gaussian(rng, (200_000,))
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)
    # circular symmetry: real and imaginary parts carry half the power each
    assert np.mean(z.real**2) == pytest.approx(0.5, abs=0.02)
    assert np.mean(z.real * z.imag) == pytest.approx(0.0, abs=0.02)


def test_generate_channels_shapes_and_exact_csi():
    cfg = SystemConfig(K=3, M=2, N=4, L=2, P=5.0, seed=21)
    ch = generate_channels(cfg)
    assert ch.H.shape == (3, 3, 4, 2)
    assert np.array_equal(ch.H, ch.Hhat)
    assert ch.epsilon == 0.0
    assert (ch.K, ch.N, ch.M) == (3, 4, 2)


def test_generate_channels_deterministic_in_seed():
    cfg = SystemConfig(K=2, M=2, N=2, L=1, P=1.0, seed=5)
    a = generate_channels(cfg)
    b = generate_channels(cfg)
    assert np.array_equal(a.H, b.H)
    c = generate_channels(SystemConfig(K=2, M=2, N=2, L=1, P=1.0, seed=6))
    assert not np.array_equal(a.H, c.H)


def test_sample_delta_in_ball_radii():
    rng = np.random.default_rng(22)
    eps = 0.3
    norms = np.array(
        [np.linalg.norm(sample_delta_in_ball(rng, (2, 2), eps)) for _ in range(2000)]
    )
    assert norms.max() <= eps + 1e-12
    # draws fill the ball rather than hugging the center or the shell
    assert norms.min() < 0.7 * eps
    assert np.mean(norms > 0.8 * eps) > 0.5  # volume concentrates near the shell


def test_perturb_csi_within_ball_and_validated():
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.2, seed=23)
    ch = generate_channels(cfg)
    pert = perturb_csi(ch, 0.2, seed=24)
    assert np.array_equal(pert.H, ch.H)
    for k in range(3):
        for i in range(3):
            dev = np.linalg.norm(pert.Hhat[k, i] - pert.H[k, i])
            assert dev <= 0.2 + 1e-12
    assert pert.epsilon == 0.2


def test_channelset_rejects_estimates_outside_ball():
    cfg = SystemConfig(K=2, M=2, N=2, L=1, P=1.0, seed=25)
    ch = generate_channels(cfg)
    Hhat = ch.H.copy()
    Hhat[0, 1] += 1.0
    with pytest.raises(ValueError):
        ChannelSet(H=ch.H, Hhat=Hhat, epsilon=0.1)


def test_channelset_true_view_drops_uncertainty():
    cfg = SystemConfig(K=2, M=2, N=2, L=1, P=1.0, epsilon=0.1, seed=26)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=27)
    tv = ch.true_view()
    assert tv.epsilon == 0.0
    assert np.array_equal(tv.Hhat, ch.H)


def test_worst_case_crossterm_bound_holds_over_samples():
    rng = np.random.default_rng(28)
    u = complex_gaussian(rng, (3,))
    v = complex_gaussian(rng, (2,))
    eps = 0.15
    bound = worst_case_crossterm_bound(u, v, eps)
    assert bound == pytest.approx(eps * np.linalg.norm(u) * np.linalg.norm(v))
    for _ in range(2000):
        delta = sample_delta_in_ball(rng, (3, 2), eps)
        assert abs(u.conj() @ delta @ v) <= bound + 1e-12


def test_rank_one_delta_achieves_bound_exactly():
    rng = np.random.default_rng(29)
    for _ in range(20):
        u = complex_gaussian(rng, (3,))
        v = complex_gaussian(rng, (2,))
        eps = float(rng.uniform(0.01, 0.5))
        delta = rank_one_worst_delta(u, v, eps)
        assert np.linalg.norm(delta) == pytest.approx(eps, rel=1e-12)
        achieved = abs(u.conj() @ delta @ v)
        assert achieved == pytest.approx(
            worst_case_crossterm_bound(u, v, eps), rel=1e-12
        )


def test_channelset_json_roundtrip_exact():
    cfg = SystemConfig(K=3, M=2, N=2, L=1, P=10.0, epsilon=0.1, seed=30)
    ch = perturb_csi(generate_channels(cfg), 0.1, seed=31)
    text = channelset_to_json(ch)
    back = channelset_from_json(text)
    assert np.array_equal(back.H, ch.H)
    assert np.array_equal(back.Hhat, ch.Hhat)
    assert back.epsilon == ch.epsilon
    payload = json.loads(text)
    assert set(payload) >= {"H", "Hhat", "epsilon"}


def test_channelset_json_rejects_malformed():
    with pytest.raises(ConfigurationError):
        channelset_from_json("not json")
    with pytest.raises(ConfigurationError):
        channelset_from_json(json.dumps({"H": [[1]]}))
    cfg = SystemConfig(K=1, M=2, N=2, L=1, P=10.0, seed=32)
    good = json.loads(channelset_to_json(generate_channels(cfg)))
    extra = json.loads(channelset_to_json(generate_channels(replace(cfg, K=2))))
    for name in ("H", "Hhat"):
        for links in (
            [[[[1.0, 0.0]]]],  # a 1x1 link where (N, M) = (2, 2) is declared
            [[good[name][0][0][:1]]],  # one row of a 2x2 link
            [[good[name][0][0] + good[name][0][0][:1]]],  # three rows
            extra[name],  # links past K
            [good[name][0] * 2],  # a second transmitter past K
            good[name] * 2,  # a second receiver past K
        ):
            with pytest.raises(ConfigurationError, match="malformed"):
                channelset_from_json(json.dumps(dict(good, **{name: links})))


def test_channelset_json_pairs_keep_signed_zeros_and_reject_non_pairs():
    """The [re, im] codec reads the pairs as they are written, -0.0 included,
    and a ragged list, a pair of another length or a non-number is malformed."""
    cfg = SystemConfig(K=1, M=2, N=2, L=1, P=10.0, seed=32)
    ch = generate_channels(cfg)
    ch.H[0, 0, 0, 0] = ch.Hhat[0, 0, 0, 0] = complex(-0.0, -0.0)
    text = channelset_to_json(ch)
    assert "[-0.0, -0.0]" in text
    back = channelset_from_json(text)
    assert back.H.tobytes() == ch.H.tobytes() and back.Hhat.tobytes() == ch.Hhat.tobytes()
    assert channelset_to_json(back) == text
    good = json.loads(text)
    link = good["H"][0][0]
    for bad in (
        [[[link[0], link[1][:1]]]],  # a ragged row
        [[[[z + [0.0] for z in row] for row in link]]],  # [re, im, 0] triples
        [[[[z[:1] for z in row] for row in link]]],  # single numbers in brackets
        [[[[["1.0", "0.0"]] * 2] * 2]],  # numbers as strings
        [[[[[None, 0.0]] * 2] * 2]],
        [[[[[True, False]] * 2] * 2]],
    ):
        with pytest.raises(ConfigurationError, match="malformed"):
            channelset_from_json(json.dumps(dict(good, H=bad)))
