"""Closed-form rates for the fully symmetric scalar network.

In the K-user single-antenna network with unit direct gains and a common
Gaussian-integer cross gain h, the aggregate of all interferers is itself a
lattice point, so the two-stage decoder admits closed forms: coefficients
[0, 1, ..., 1], scaling c = h, and explicit rate expressions.  These serve
as exact oracles for the iterative solver and as the analytical benchmark
against two-stage maximum-likelihood decoding with Gaussian codebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import sys

import numpy as np

from .channel import ChannelSet, SystemConfig
from .errors import ConfigurationError, is_finite_real, is_integer
from .gaussint import GaussianInt, nearest_gaussian
from .rates import DesignState


@dataclass(frozen=True)
class SymmetricInstance:
    """Symmetric scalar network: K users, direct gains 1, cross gains h.

    Each bad value raises ConfigurationError naming its field.
    """

    K: int
    h: GaussianInt
    P: float

    def __post_init__(self):
        if not (is_integer(self.K) and self.K >= 2):
            raise ConfigurationError(f"K must be an integer >= 2, got {self.K!r}")
        if not isinstance(self.h, GaussianInt) or self.h.norm() == 0:
            raise ConfigurationError("cross gain h must be a nonzero GaussianInt")
        if self.h.norm() > sys.float_info.max:
            raise ConfigurationError("cross gain h is too large: |h|^2 overflows a float")
        if not (is_finite_real(self.P) and self.P > 0):
            raise ConfigurationError(f"P must be a positive finite real number, got {self.P!r}")

    @property
    def habs2(self) -> float:
        return float(self.h.norm())


def symmetric_channelset(inst: SymmetricInstance) -> tuple[ChannelSet, SystemConfig]:
    """Materialize the symmetric instance as 1x1 matrices for the solver."""
    K = inst.K
    H = np.full((K, K, 1, 1), complex(inst.h), dtype=complex)
    for k in range(K):
        H[k, k, 0, 0] = 1.0
    ch = ChannelSet(H=H, Hhat=H.copy(), epsilon=0.0)
    cfg = SystemConfig(K=K, M=1, N=1, L=1, P=inst.P, gamma=1.0, epsilon=0.0)
    return ch, cfg


def symmetric_rmin_lattice(inst: SymmetricInstance) -> float:
    """Worst-user rate of the canonical two-stage lattice design, in bits.

    The canonical design uses coefficients [0, 1, ..., 1] and scaling c = h,
    so the aggregate cancels exactly up to the regularized filter: the
    desired stream supports log2(P + 1/(1 + (K-1)|h|^2)) and the aggregate
    stage log2((1 + ((K-1)|h|^2 + 1) P) / ((K-1) + (K-1) P)).  In extreme
    corners (very small P with a large gain) a different scaling can beat
    the canonical one, so this is a certified lower bound for the solver.
    """
    return _lattice_rate(inst.K, inst.habs2, inst.P)


def symmetric_rmin_ml(inst: SymmetricInstance) -> float:
    """Worst-user rate of two-stage ML decoding with Gaussian codebooks.

    The K-1 interferers must be jointly decodable as a multiple-access
    stage while the desired signal acts as noise, then the desired stream
    is decoded interference-free.
    """
    return _ml_rate(inst.K, inst.habs2, inst.P)


def _ml_rate(K: int, habs2: float, P: float) -> float:
    stage1 = math.log2(1 + (K - 1) * P * habs2 / (1 + P)) / (K - 1)
    stage2 = math.log2(1 + P)
    return min(stage1, stage2)


def _lattice_rate(K: int, habs2: float, P: float) -> float:
    gamma = 1 + (K - 1) * habs2
    stage2 = math.log2(P + 1 / gamma)
    stage1 = math.log2((1 + gamma * P) / ((K - 1) * (1 + P)))
    return min(stage2, stage1)


def gain_condition_sq(K: int, habs2: float, P: float) -> bool:
    """True when lattice decoding beats two-stage ML at cross power |h|^2.

    Takes the squared cross gain directly so thresholds that are not norms
    of Gaussian integers (for instance 1.1 or 1.5) can be probed; for large
    K the condition approaches |h|^2 >= 1 + 1/P.
    """
    if K < 2 or habs2 < 0 or P <= 0:
        raise ConfigurationError("need K >= 2, habs2 >= 0 and P > 0")
    return _lattice_rate(K, habs2, P) > _ml_rate(K, habs2, P)


def gain_condition(inst: SymmetricInstance) -> bool:
    """Instance-level wrapper around gain_condition_sq."""
    return gain_condition_sq(inst.K, inst.habs2, inst.P)


def symmetric_filters(inst: SymmetricInstance) -> tuple[complex, complex, complex]:
    """Every user's (u, utilde, c) in symmetric_design, with no K-user array: the
    regularized least-squares fits to a = [0, 1, ..., 1] and to c a + own
    indicator, and c = h."""
    K, P = inst.K, inst.P
    h = complex(inst.h)
    denom = 1 + (K - 1) * abs(h) ** 2 + 1 / P
    return (K - 1) * h / denom, (1 + (K - 1) * abs(h) ** 2) / denom, h


def symmetric_design(inst: SymmetricInstance) -> DesignState:
    """The closed-form transceiver achieving symmetric_rmin_lattice.

    v = 1, a = [0, 1, ..., 1], and the filters and scaling of symmetric_filters.
    """
    K = inst.K
    u_star, ut_star, h = symmetric_filters(inst)
    a = np.ones((K, 1, K, 1), dtype=complex)
    for k in range(K):
        a[k, 0, k, 0] = 0.0
    v = np.ones((K, 1, 1), dtype=complex)
    u = np.full((K, 1, 1), u_star, dtype=complex)
    ut = np.full((K, 1, 1), ut_star, dtype=complex)
    c = np.full((K, 1), h, dtype=complex)
    return DesignState(v=v, u=u, utilde=ut, a=a, c=c, P=inst.P)


def ia_equivalence_params(
    v_ia: np.ndarray, u_ia: np.ndarray, H_kk: np.ndarray, P: float
) -> tuple[complex, np.ndarray, float]:
    """One-stage equivalent of a zero-forcing alignment receiver.

    With a = 0 (skip aggregate decoding) and c = 1, scaling the alignment
    receive filter by P zeta / (||u_ia||^2 + P |zeta|^2), where
    zeta = u_ia^H H_kk v_ia, reproduces the alignment stream rate
    log2(1 + P |zeta|^2 / ||u_ia||^2) through the stage-two bound whenever
    the aligned cross terms are exactly nulled.

    Returns (zeta, utilde, expected stage-two rate).
    """
    v_ia = np.asarray(v_ia, dtype=complex).reshape(-1)
    u_ia = np.asarray(u_ia, dtype=complex).reshape(-1)
    zeta = complex(u_ia.conj() @ (np.asarray(H_kk, dtype=complex) @ v_ia))
    nu2 = float(np.sum(np.abs(u_ia) ** 2))
    scale = P * zeta / (nu2 + P * abs(zeta) ** 2)
    utilde = scale * u_ia
    rate = math.log2(1 + P * abs(zeta) ** 2 / nu2)
    return zeta, utilde, rate


def ia_equivalent_state(
    V: np.ndarray, U: np.ndarray, ch: ChannelSet, P: float
) -> DesignState:
    """DesignState realizing an alignment solution inside the lattice scheme.

    V (K, M, L) and U (K, N, L) hold the streams as matrix columns, the
    layout of baselines.conventional_ia_design.  All coefficient vectors are
    zero (stage one is skipped), c = 1, the stage-one filters are zero, and
    each stage-two filter is the scaled alignment filter from
    ia_equivalence_params.
    """
    K = ch.K
    V = np.asarray(V, dtype=complex)
    U = np.asarray(U, dtype=complex)
    L = V.shape[-1]
    if V.shape != (K, ch.M, L) or U.shape != (K, ch.N, L):
        raise ConfigurationError(
            f"alignment precoders V must be (K, M, L) = {(K, ch.M, L)} and filters U "
            f"(K, N, L) = {(K, ch.N, L)}; got V {V.shape} and U {U.shape}"
        )
    v = np.transpose(V, (0, 2, 1))
    u = np.zeros((K, L, ch.N), dtype=complex)
    ut = np.zeros((K, L, ch.N), dtype=complex)
    for k in range(K):
        for l in range(L):
            _, utl, _ = ia_equivalence_params(v[k, l], U[k, :, l], ch.Hhat[k, k], P)
            ut[k, l] = utl
    a = np.zeros((K, L, K, L), dtype=complex)
    c = np.ones((K, L), dtype=complex)
    return DesignState(v=v, u=u, utilde=ut, a=a, c=c, P=P)
