"""Reference transmission schemes the lattice design is compared against.

All baselines design on the channel estimates, spend the same per-user power
budget gamma with per-stream power gamma P / L, and are scored with the same
outage rule as the lattice scheme: a stream's nominal rate is delivered only
if the true channels support it.  Every scheme's post-filter gains
u^H H_ki v_in come from rates.cross_vectors, the kernel that also scores
the lattice design, so all methods share one definition of a gain.

* tdma: users take turns, no interference, waterfilling-free top singular
  modes of the direct channel;
* two_stage_ml: decode all interferers jointly as a multiple-access stage
  (Gaussian codebooks), subtract, then decode the desired stream;
* distributive_ia: alternating min-leakage interference alignment;
* conventional_ia: the closed-form eigenvector alignment for three users
  with even square antennas (conventional_ia_design).
"""

from __future__ import annotations

import numpy as np

from .rates import cross_vectors, own_stream_indicator, robust_residuals


def _direct(H: np.ndarray) -> np.ndarray:
    """The (K, N, M) stack of direct links H_kk."""
    d = np.arange(H.shape[0])
    return H[d, d]


def _gains(H: np.ndarray, V: np.ndarray, U: np.ndarray):
    """|u_kl^H H_ki v_in| as a (K, L, K*L) array (column i*L + n) and the
    filter norms ||u_kl|| as (K, L), for streams stored as columns of V
    (K, M, L) and U (K, N, L)."""
    w = cross_vectors(H, V.transpose(0, 2, 1))[:, None]
    return robust_residuals(w, U.transpose(0, 2, 1), 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# TDMA
# ---------------------------------------------------------------------------


def tdma_design(Hhat: np.ndarray, L: int) -> np.ndarray:
    """Top-L right singular vectors of each direct channel, unit columns."""
    vh = np.linalg.svd(_direct(Hhat))[2]
    return vh.conj().swapaxes(1, 2)[..., :L]


def tdma_per_user_rates(
    H: np.ndarray, V: np.ndarray, P: float, gamma: float, L: int
) -> np.ndarray:
    """Time-shared MIMO rates: each user gets a 1/K slot, interference-free."""
    K, _, N, _ = H.shape
    rho = gamma * P / L
    HV = _direct(H) @ V
    _, logdet = np.linalg.slogdet(np.eye(N) + rho * (HV @ HV.conj().swapaxes(1, 2)))
    return logdet / np.log(2) / K


# ---------------------------------------------------------------------------
# two-stage maximum likelihood with Gaussian codebooks
# ---------------------------------------------------------------------------


def two_stage_ml_design(Hhat: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Matched single-stream transceivers: dominant singular pair per user."""
    uu, _, vh = np.linalg.svd(_direct(Hhat))
    return np.sqrt(gamma) * vh[:, 0].conj(), uu[..., 0]


def two_stage_ml_constraints(
    H: np.ndarray, V: np.ndarray, U: np.ndarray, P: float
) -> tuple[np.ndarray, np.ndarray]:
    """(joint interference-decoding bound, clean desired bound) per receiver.

    All K-1 interferers must be decodable as a multiple-access stage while
    the desired signal acts as noise; the symmetric-rate point charges each
    interferer 1/(K-1) of the sum constraint.  A lone user has no such
    stage (+inf).
    """
    K = H.shape[0]
    g, _ = _gains(H, V[..., None], U[..., None])
    p = P * g[:, 0] ** 2  # p[k, i]: power of transmitter i after filter k
    own = np.eye(K, dtype=bool)
    desired = p[own]
    if K == 1:
        return np.full(1, np.inf), np.log2(1 + desired)
    cross = np.where(own, 0.0, p).sum(axis=1)
    return np.log2(1 + cross / (1 + desired)) / (K - 1), np.log2(1 + desired)


def two_stage_ml_common_rate(
    H: np.ndarray, V: np.ndarray, U: np.ndarray, P: float
) -> float:
    stage1, stage2 = two_stage_ml_constraints(H, V, U, P)
    return float(min(stage1.min(), stage2.min()))


# ---------------------------------------------------------------------------
# interference alignment, distributed (min leakage) and closed form
# ---------------------------------------------------------------------------


def _cross_links(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, others): G[k, j] = H_ki with i = others[k, j], receiver k's K-1 cross
    links in order of i."""
    K = H.shape[0]
    others = np.flatnonzero(~np.eye(K, dtype=bool)).reshape(K, K - 1) % K
    return H[np.arange(K)[:, None], others], others


def _link_covariances(G: np.ndarray, X: np.ndarray, rho: float) -> np.ndarray:
    """Q[k] = sum_j rho G_kj X_kj X_kj^H G_kj^H, summed in order of j."""
    T = G @ X
    return (rho * (T @ T.conj().swapaxes(-1, -2))).sum(axis=1)


def interference_covariances(
    H: np.ndarray, V: np.ndarray, rho: float
) -> np.ndarray:
    """Q[k] = sum_{i != k} rho H_ki V_i V_i^H H_ki^H, summed in order of i."""
    G, others = _cross_links(H)
    return _link_covariances(G, V[others], rho)


def distributive_ia_design(
    Hhat: np.ndarray, L: int, rho: float, iters: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternating min-leakage alignment on the estimated network.

    Receive filters take the L least-dominant eigenvectors of the
    interference covariance; the reciprocal network (conjugate-transposed
    links, roles swapped) recomputes the precoders the same way.  Total
    leakage is non-increasing because both half-steps minimize the same
    quantity, which is symmetric between the two directions.  Each half-step
    treats all K users in one batch, over each receiver's K-1 cross links,
    gathered once for both directions.  trace[i] is the leakage after
    iteration i's receive half-step: the sum of each user's L smallest
    eigenvalues.
    """
    K, _, N, _ = Hhat.shape
    V = tdma_design(Hhat, L)  # deterministic start: direct-channel modes
    U = np.zeros((K, N, L), dtype=complex)
    # reciprocal direction: channel from i to k becomes Hhat[i, k]^H
    G, others = _cross_links(Hhat)
    Grec, _ = _cross_links(Hhat.conj().transpose(1, 0, 3, 2))
    lam = np.empty((iters, K, N))  # each receive half-step's eigenvalues
    for i in range(iters):
        lam[i], U = np.linalg.eigh(_link_covariances(G, V[others], rho))
        U = U[..., :L]
        V = np.linalg.eigh(_link_covariances(Grec, U[others], rho))[1][..., :L]
    return V, U, lam[..., :L].sum(axis=(1, 2)).tolist()


def ia_stream_rates(
    H: np.ndarray, V: np.ndarray, U: np.ndarray, rho: float
) -> np.ndarray:
    """log2(1 + SINR) per stream with interference treated as noise."""
    K, _, L = V.shape
    g, nu = _gains(H, V, U)
    p = rho * g**2
    own = own_stream_indicator(K, L).reshape(p.shape) > 0
    intf = np.where(own, 0.0, p).sum(axis=-1)
    return np.log2(1 + p[own].reshape(K, L) / (nu**2 + intf))


def conventional_ia_design(
    Hhat: np.ndarray, L: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Closed-form three-user alignment; None when the geometry is wrong.

    Needs K = 3, square even antennas and L = M/2.  The first user's
    precoder spans L eigenvectors of the alignment map
    E = H31^-1 H32 H12^-1 H13 H23^-1 H21; the other precoders are chosen so
    both interference blocks coincide at every receiver.  Receive filters
    zero-force the aligned interference and the other desired streams.
    """
    K, _, N, M = Hhat.shape
    if K != 3 or M != N or M % 2 != 0 or L != M // 2:
        return None
    H = Hhat
    try:
        Emap = np.linalg.solve(
            H[2, 0], H[2, 1] @ np.linalg.solve(H[0, 1], H[0, 2] @ np.linalg.solve(H[1, 2], H[1, 0]))
        )
        vals, vecs = np.linalg.eig(Emap)
        order = np.lexsort((vals.imag, vals.real))
        V1 = vecs[:, order[:L]]
        V2 = np.linalg.solve(H[2, 1], H[2, 0] @ V1)
        V3 = np.linalg.solve(H[1, 2], H[1, 0] @ V1)
    except np.linalg.LinAlgError:
        return None
    V = np.zeros((3, M, L), dtype=complex)
    for k, Vk in enumerate((V1, V2, V3)):
        V[k] = Vk / np.linalg.norm(Vk, axis=0, keepdims=True)

    # each filter spans the null space of every other stream at its receiver:
    # the aligned interference and the user's other desired streams
    others = own_stream_indicator(3, L).reshape(3, L, 3 * L) == 0
    w = np.broadcast_to(cross_vectors(H, V.transpose(0, 2, 1))[:, None], others.shape + (N,))
    S = w[others].reshape(3, L, 3 * L - 1, N)
    U = np.linalg.svd(S.swapaxes(-1, -2))[0][..., -1]
    return V, U.swapaxes(1, 2)

