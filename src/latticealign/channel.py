"""Channel model: quasi-static MIMO interference network with bounded CSI error.

The designer never sees the true channels H_ki, only estimates Hhat_ki with
``H = Hhat - Delta`` and a known deterministic bound ||Delta||_F <= epsilon
per link.  Robust rate expressions charge every cross term its worst case
over that ball, so the bound (not the error realization) is what enters the
design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import json

import numpy as np

from .errors import ConfigurationError, is_finite_real, is_integer


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    K users, M transmit / N receive antennas, L streams per user, per-stream
    transmit power P, per-user power budget gamma (sum of squared precoder
    norms), CSI error bound epsilon, base RNG seed.  Each bad value raises
    ConfigurationError naming its field.
    """

    K: int
    M: int
    N: int
    L: int
    P: float
    gamma: float = 1.0
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("K", 1), ("M", 1), ("N", 1), ("L", 1), ("seed", 0)):
            val = getattr(self, name)
            if not (is_integer(val) and val >= least):
                kind = "positive" if least else "non-negative"
                raise ConfigurationError(f"{name} must be a {kind} integer, got {val!r}")
        if self.L > min(self.M, self.N):
            raise ConfigurationError(
                f"L={self.L} streams do not fit in min(M, N)={min(self.M, self.N)}"
            )
        for name in ("P", "gamma", "epsilon"):
            val = getattr(self, name)
            zero_ok = name == "epsilon"
            if not (is_finite_real(val) and (val >= 0 if zero_ok else val > 0)):
                kind = "non-negative" if zero_ok else "positive"
                raise ConfigurationError(
                    f"{name} must be a {kind} finite real number, got {val!r}"
                )


def snr_db_to_power(snr_db: float) -> float:
    """Per-stream power for a given SNR in dB (unit noise variance); raises
    ConfigurationError naming the SNR when it is not a positive finite float."""
    try:
        P = float(10.0 ** (snr_db / 10.0))
    except OverflowError:
        P = np.inf
    if not (is_finite_real(P) and P > 0):
        raise ConfigurationError(f"SNR {snr_db!r} dB gives power {P!r}, no positive finite float")
    return P


@dataclass(eq=False)
class ChannelSet:
    """True channels, their estimates, and the per-link error bound.

    H and Hhat have shape (K, K, N, M); H[k, i] is the N x M channel from
    transmitter i to receiver k.
    """

    H: np.ndarray
    Hhat: np.ndarray
    epsilon: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        Hhat = np.asarray(self.Hhat, dtype=complex)
        if H.ndim != 4 or H.shape[0] != H.shape[1]:
            raise ConfigurationError(f"H must have shape (K, K, N, M), got {H.shape}")
        if Hhat.shape != H.shape:
            raise ConfigurationError(
                f"Hhat shape {Hhat.shape} does not match H shape {H.shape}"
            )
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(Hhat))):
            raise ConfigurationError("H and Hhat must have finite entries")
        if not (is_finite_real(self.epsilon) and self.epsilon >= 0):
            raise ConfigurationError(
                f"epsilon must be non-negative and finite, got {self.epsilon!r}"
            )
        err = np.sqrt(np.sum(np.abs(Hhat - H) ** 2, axis=(2, 3)))
        worst = float(err.max())
        if worst > self.epsilon + 1e-9:
            raise ValueError(
                f"estimate error {worst:.3e} exceeds declared bound {self.epsilon:.3e}"
            )
        self.H = H
        self.Hhat = Hhat

    @property
    def K(self) -> int:
        return self.H.shape[0]

    @property
    def N(self) -> int:
        return self.H.shape[2]

    @property
    def M(self) -> int:
        return self.H.shape[3]

    def true_view(self) -> "ChannelSet":
        """The perfect-CSI view: estimates replaced by the true channels."""
        return ChannelSet(H=self.H, Hhat=self.H.copy(), epsilon=0.0)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) i.i.d. entries (unit variance split across re/im)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def generate_channels(cfg: SystemConfig) -> ChannelSet:
    """Draw i.i.d. CN(0,1) channels; estimates start perfect (epsilon 0)."""
    rng = np.random.default_rng(cfg.seed)
    H = complex_gaussian(rng, (cfg.K, cfg.K, cfg.N, cfg.M))
    return ChannelSet(H=H, Hhat=H.copy(), epsilon=0.0)


def sample_delta_in_ball(
    rng: np.random.Generator, shape: tuple[int, int], epsilon: float
) -> np.ndarray:
    """One error matrix uniform in the Frobenius ball of radius epsilon.

    Gaussian direction scaled to radius epsilon * U^(1/(2 N M)); the exponent
    is the real dimension count of the complex N x M ball, which makes the
    radius density match the uniform volume measure.
    """
    if epsilon == 0:
        return np.zeros(shape, dtype=complex)
    D = complex_gaussian(rng, shape)
    nrm = np.linalg.norm(D)
    if nrm == 0:
        return np.zeros(shape, dtype=complex)
    u = 1.0 - rng.random()  # (0, 1]
    r = epsilon * u ** (1.0 / (2 * shape[0] * shape[1]))
    D *= r / nrm
    # guard the invariant against roundoff at r == epsilon
    nrm = np.linalg.norm(D)
    if nrm > epsilon:
        D *= epsilon / nrm * (1 - 1e-15)
    return D


def perturb_csi(ch: ChannelSet, epsilon: float, seed: int) -> ChannelSet:
    """New ChannelSet whose estimates are offset per link by a ball sample.

    The true channels are untouched; each (k, i) link independently gets
    Hhat = H + Delta with ||Delta||_F <= epsilon exactly.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon!r}")
    rng = np.random.default_rng(seed)
    K, _, N, M = ch.H.shape
    Hhat = ch.H.copy()
    for k in range(K):
        for i in range(K):
            Hhat[k, i] += sample_delta_in_ball(rng, (N, M), epsilon)
    return ChannelSet(H=ch.H.copy(), Hhat=Hhat, epsilon=float(epsilon))


def worst_case_crossterm_bound(u: np.ndarray, v: np.ndarray, epsilon: float) -> float:
    """Largest possible |u^H Delta v| over the Frobenius ball of radius epsilon.

    Equals epsilon ||u|| ||v||, achieved by the rank-one error aligned with
    u v^H; see rank_one_worst_delta.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return float(epsilon * np.linalg.norm(u) * np.linalg.norm(v))


def rank_one_worst_delta(u: np.ndarray, v: np.ndarray, epsilon: float) -> np.ndarray:
    """The ball element achieving worst_case_crossterm_bound with equality."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return np.zeros((u.size, v.size), dtype=complex)
    return epsilon * np.outer(u, v.conj()) / (nu * nv)


def complex_pairs(z: np.ndarray) -> np.ndarray:
    """The [re, im] pairs of complex array z, along a new last axis."""
    return np.stack([z.real, z.imag], -1)


def from_pairs(pairs) -> np.ndarray:
    """The complex array of nested [re, im] number pairs, -0.0 kept, or ValueError."""
    x = np.asarray(pairs)
    if x.dtype.kind not in "iuf" or x.shape[-1:] != (2,):
        raise ValueError("expected nested lists of [re, im] number pairs")
    return np.ascontiguousarray(x, dtype=float).view(complex)[..., 0]


def channelset_to_json(ch: ChannelSet) -> str:
    """Serialize to the interchange format: per-link matrices of [re, im] pairs."""
    payload = {
        "K": ch.K,
        "M": ch.M,
        "N": ch.N,
        "H": complex_pairs(ch.H).tolist(),
        "Hhat": complex_pairs(ch.Hhat).tolist(),
        "epsilon": float(ch.epsilon),
    }
    return json.dumps(payload)


def channelset_from_json(text: str) -> ChannelSet:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid channel JSON: {exc}") from exc
    try:
        shape = (payload["K"], payload["K"], payload["N"], payload["M"])
        H, Hhat = (from_pairs(payload[name]) for name in ("H", "Hhat"))
        epsilon = float(payload["epsilon"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed channel JSON: {exc}") from exc
    for name, links in (("H", H), ("Hhat", Hhat)):
        if links.shape != shape:
            raise ConfigurationError(
                f"malformed channel JSON: {name} has shape {links.shape}, "
                f"expected (K, K, N, M) = {shape}"
            )
    return ChannelSet(H=H, Hhat=Hhat, epsilon=epsilon)
