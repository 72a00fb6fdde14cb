"""Worst-case achievable rates of the two-stage lattice decoder.

Decoding at receiver k, stream l runs in two stages.  Stage one applies the
decorrelator u and decodes the integer combination sum_{i,n} a_i^n x_i^n of
all transmitted lattice streams (coefficients a are Gaussian integers, the
own stream's coefficient is pinned to zero).  Stage two scales the decoded
aggregate by the Gaussian integer c, subtracts it, applies utilde and decodes
the desired stream.  Every residual cross term is charged its worst case
epsilon ||v|| ||u|| over the CSI error ball, so the resulting rates are
guaranteed on any true channel inside the ball.

All rates are log2 (bits per channel use).
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .channel import ChannelSet
from .gaussint import GaussianInt, CoeffVector

_INT_TOL = 1e-9
# a committed rate is delivered when the true channels carry it to within this
_OUTAGE_TOL = 1e-12


def own_stream_indicator(K: int, L: int) -> np.ndarray:
    """E[k, l, i, n] = 1 exactly when (i, n) == (k, l)."""
    return np.eye(K * L).reshape(K, L, K, L)


def cross_vectors(Hmats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """w[k, i*L+n, :] = H_ki v_in: the (K*L, N) stack of streams seen by receiver k."""
    t = np.einsum("kiab,inb->kina", Hmats, V)
    return t.reshape(t.shape[:-3] + (-1, t.shape[-1]))


def vector_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis."""
    return np.sqrt(np.sum(np.abs(X) ** 2, axis=-1))


def robust_residuals(w, u, b, nv, eps):
    """Worst-case residuals |u^H w_j - b_j| + eps ||v_j|| ||u|| over the CSI error ball.

    w: (..., J, N) cross vectors, u: (..., N) filters, b: (..., J) targets,
    nv: (J,) stream norms ||v_j||.  Returns the (..., J) residuals and ||u||.
    """
    nu = vector_norms(u)
    z = np.einsum("...ja,...a->...j", w, u.conj()) - b
    return np.abs(z) + eps * nv * nu[..., None], nu


def robust_noise(w, u, b, nv, eps, P):
    """Effective noise ||u||^2 + P sum_j residual_j^2 of each decoder (see
    robust_residuals): the denominator of its rate bound."""
    pen, nu = robust_residuals(w, u, b, nv, eps)
    return nu**2 + P * np.sum(pen**2, axis=-1)


@dataclass
class DesignState:
    """One complete transceiver design.

    v: (K, L, M) precoders, u/utilde: (K, L, N) stage-one/stage-two receive
    filters, a: (K, L, K, L) integer combination coefficients (a[k, l] is the
    coefficient vector used by decoder (k, l); its own entry is zero), c:
    (K, L) integer scaling factors, P: per-stream transmit power.

    Only a transmit-side step holds non-integer complex a; the solver rounds
    it before it keeps the step, so every design it keeps or returns carries
    exact Gaussian-integer a and c.
    """

    v: np.ndarray
    u: np.ndarray
    utilde: np.ndarray
    a: np.ndarray
    c: np.ndarray
    P: float

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex)
        self.u = np.asarray(self.u, dtype=complex)
        self.utilde = np.asarray(self.utilde, dtype=complex)
        self.a = np.asarray(self.a, dtype=complex)
        self.c = np.asarray(self.c, dtype=complex)
        K, L = self.v.shape[:2]
        if self.a.shape != (K, L, K, L):
            raise ValueError(f"a must have shape {(K, L, K, L)}, got {self.a.shape}")
        E = own_stream_indicator(K, L) > 0
        if np.max(np.abs(self.a[E])) > 0:
            raise ValueError("own-stream coefficients a[k,l,k,l] must be zero")
        if not self.P > 0:
            raise ValueError("P must be positive")

    @property
    def K(self) -> int:
        return self.v.shape[0]

    @property
    def L(self) -> int:
        return self.v.shape[1]

    def copy(self) -> "DesignState":
        return DesignState(
            v=self.v.copy(), u=self.u.copy(), utilde=self.utilde.copy(),
            a=self.a.copy(), c=self.c.copy(), P=self.P,
        )

    def power(self, k: int) -> float:
        """Sum of squared precoder norms of user k (budgeted by gamma)."""
        return float(np.sum(np.abs(self.v[k]) ** 2))

    def coeff_vector(self, k: int, l: int) -> CoeffVector:
        """Exact integer view of a[k, l]; raises if entries are not integral."""
        flat = self.a[k, l].reshape(-1)
        ints = []
        for z in flat:
            if abs(z.real - round(z.real)) > _INT_TOL or abs(z.imag - round(z.imag)) > _INT_TOL:
                raise ValueError(f"coefficient {z!r} is not a Gaussian integer")
            ints.append(GaussianInt(int(round(z.real)), int(round(z.imag))))
        return CoeffVector(entries=tuple(ints), own_index=k * self.L + l)


def stage_targets(st, k, l, stage, c=None) -> np.ndarray:
    """Residual targets of decoders (k, l), one (K*L,) row each: a for stage
    one, c a + e_own for stage two, with the scalings c defaulting to st.c.
    k, l and stage (1 or 2) are integers or index arrays that broadcast; row
    k owns stream k mod st.K, so st may also stack the user rows of several
    designs (solver._Stack)."""
    shape = np.shape(st.c[k, l]) + (st.K * st.L,)
    a = st.a[k, l].reshape(shape)
    one = np.asarray(stage) == 1
    if one.all():
        return a
    c = np.asarray(st.c[k, l] if c is None else c, dtype=complex)
    b = c[..., None] * a + own_stream_indicator(st.K, st.L)[k % st.K, l].reshape(shape)
    return np.where(one[..., None], a, b)


def _denominators(ch: ChannelSet, st: DesignState, stage: int, w=None) -> np.ndarray:
    """(K, L) robust noise of every decoder with its filter of the given stage;
    w, when given, is cross_vectors(ch.Hhat, st.v)."""
    U = st.u if stage == 1 else st.utilde
    w = cross_vectors(ch.Hhat, st.v) if w is None else w
    b = stage_targets(st, np.arange(st.K)[:, None], np.arange(st.L), stage)
    return robust_noise(w[:, None], U, b, vector_norms(st.v).reshape(-1), ch.epsilon, st.P)


def stage1_denominators(ch: ChannelSet, st: DesignState, w=None) -> np.ndarray:
    """Effective noise-plus-residual power seen by stage-one decoding."""
    return _denominators(ch, st, 1, w)


def stage2_denominators(ch: ChannelSet, st: DesignState, w=None) -> np.ndarray:
    """Effective noise-plus-residual power seen by stage-two decoding."""
    return _denominators(ch, st, 2, w)


def stage1_rates(ch: ChannelSet, st: DesignState, w=None) -> np.ndarray:
    """Stage-one rate bounds mu[k, l]; +inf where no aggregate is decoded.

    A decoder with an all-zero coefficient vector skips stage one entirely,
    so it imposes no constraint (+inf).  The residual sum always includes the
    own stream with target zero: its signal leaks into the aggregate estimate.
    """
    den = stage1_denominators(ch, st, w)
    with np.errstate(divide="ignore"):
        mu = np.log2(st.P / den)
    mu[np.all(st.a == 0, axis=(2, 3))] = np.inf
    return mu


def stage2_rates(ch: ChannelSet, st: DesignState, w=None) -> np.ndarray:
    """Stage-two rate bounds mu_tilde[k, l] for the desired streams."""
    den = stage2_denominators(ch, st, w)
    return np.log2(st.P / den)


@dataclass
class RateReport:
    """Per-decoder rate bounds plus the network-wide minimum."""

    mu: np.ndarray
    mu_tilde: np.ndarray
    r_min: float
    alignment: np.ndarray

    def payload(self) -> dict:
        """The report as JSON-ready Python values; infinite rates become
        "inf" / "-inf"."""

        def enc(x: float):
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x

        return {
            "mu": [[enc(float(x)) for x in row] for row in self.mu],
            "mu_tilde": [[enc(float(x)) for x in row] for row in self.mu_tilde],
            "r_min": enc(float(self.r_min)),
            "alignment": [[float(x) for x in row] for row in self.alignment],
        }

    def to_json(self) -> str:
        return json.dumps(self.payload())


def rate_report(ch: ChannelSet, st: DesignState) -> RateReport:
    """Evaluate all rate bounds of a design.

    r_min is the smallest of all stage-two bounds and the finite stage-one
    bounds; if every decoder skips stage one, only stage two constrains it.
    Negative values are reported as-is (clamping happens at the goodput
    layer, not here).
    """
    w = cross_vectors(ch.Hhat, st.v)  # both stages see the same streams
    mu = stage1_rates(ch, st, w)
    mu_tilde = stage2_rates(ch, st, w)
    finite = mu[np.isfinite(mu)]
    candidates = np.concatenate([finite.reshape(-1), mu_tilde.reshape(-1)])
    r_min = float(candidates.min())
    # residual interference on the true channels: P sum over (i, n) != (k, l)
    # of |u^H H_ki v_in - a_in|^2, zero exactly when the gains hit the integers
    w = cross_vectors(ch.H, st.v)[:, None]
    res, _ = robust_residuals(w, st.u, st.a.reshape(st.K, st.L, -1), nv=0.0, eps=0.0)
    res[own_stream_indicator(st.K, st.L).reshape(res.shape) > 0] = 0.0
    align = st.P * np.sum(res**2, axis=-1)
    return RateReport(mu=mu, mu_tilde=mu_tilde, r_min=r_min, alignment=align)


def per_stream_rates(report: RateReport, a: np.ndarray) -> np.ndarray:
    """Largest per-stream rates consistent with every decoding constraint.

    Stream (i, n) is limited by its own stage-two bound and by the stage-one
    bound of every decoder whose aggregate includes it with a nonzero
    coefficient.
    """
    mu = report.mu[..., None, None]
    limits = np.where((np.abs(a) > 0) & np.isfinite(mu), mu, np.inf)
    return np.minimum(report.mu_tilde, limits.min(axis=(0, 1)))


def goodput(ch: ChannelSet, st: DesignState, designed_rate: float) -> float:
    """Rate actually delivered: the designed rate, or zero on outage.

    The design transmits at designed_rate (clamped to be non-negative); it is
    delivered only if the true channels support it, i.e. the perfect-CSI rate
    of the same design on H is at least the designed rate.
    """
    d = max(0.0, float(designed_rate))
    if d == 0.0:
        return 0.0
    r_true = rate_report(ch.true_view(), st).r_min
    return d if d <= r_true + _OUTAGE_TOL else 0.0
