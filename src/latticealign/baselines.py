"""Reference transmission schemes the lattice design is compared against.

All baselines design on the channel estimates, spend the same per-user power
budget gamma with per-stream power gamma P / L, and are scored with the same
outage rule as the lattice scheme: a stream's nominal rate is delivered only
if the true channels support it.

* tdma: users take turns, no interference, waterfilling-free top singular
  modes of the direct channel;
* two_stage_ml: decode all interferers jointly as a multiple-access stage
  (Gaussian codebooks), subtract, then decode the desired stream;
* distributive_ia: alternating min-leakage interference alignment;
* conventional_ia_3user: the closed-form eigenvector alignment for three
  users with even square antennas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, SystemConfig


@dataclass(frozen=True)
class BaselineResult:
    method: str
    per_user_rates: np.ndarray
    worst_case: float
    sum_rate: float
    feasible: bool = True

    @staticmethod
    def build(method: str, rates: np.ndarray, feasible: bool = True) -> "BaselineResult":
        rates = np.asarray(rates, dtype=float)
        return BaselineResult(
            method=method,
            per_user_rates=rates,
            worst_case=float(rates.min()),
            sum_rate=float(rates.sum()),
            feasible=feasible,
        )


# ---------------------------------------------------------------------------
# TDMA
# ---------------------------------------------------------------------------


def tdma_design(Hhat: np.ndarray, L: int) -> np.ndarray:
    """Top-L right singular vectors of each direct channel, unit columns."""
    K = Hhat.shape[0]
    M = Hhat.shape[3]
    V = np.zeros((K, M, L), dtype=complex)
    for k in range(K):
        _, _, vh = np.linalg.svd(Hhat[k, k])
        V[k] = vh.conj().T[:, :L]
    return V


def tdma_per_user_rates(
    H: np.ndarray, V: np.ndarray, P: float, gamma: float, L: int
) -> np.ndarray:
    """Time-shared MIMO rates: each user gets a 1/K slot, interference-free."""
    K = H.shape[0]
    N = H.shape[2]
    rho = gamma * P / L
    rates = np.zeros(K)
    for k in range(K):
        HV = H[k, k] @ V[k]
        Mat = np.eye(N) + rho * (HV @ HV.conj().T)
        sign, logdet = np.linalg.slogdet(Mat)
        rates[k] = logdet / np.log(2) / K
    return rates


# ---------------------------------------------------------------------------
# two-stage maximum likelihood with Gaussian codebooks
# ---------------------------------------------------------------------------


def two_stage_ml_design(Hhat: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Matched single-stream transceivers: dominant singular pair per user."""
    K, _, N, M = Hhat.shape
    V = np.zeros((K, M), dtype=complex)
    U = np.zeros((K, N), dtype=complex)
    for k in range(K):
        uu, _, vh = np.linalg.svd(Hhat[k, k])
        V[k] = np.sqrt(gamma) * vh.conj().T[:, 0]
        U[k] = uu[:, 0]
    return V, U


def two_stage_ml_constraints(
    H: np.ndarray, V: np.ndarray, U: np.ndarray, P: float
) -> tuple[np.ndarray, np.ndarray]:
    """(joint interference-decoding bound, clean desired bound) per receiver.

    All K-1 interferers must be decodable as a multiple-access stage while
    the desired signal acts as noise; the symmetric-rate point charges each
    interferer 1/(K-1) of the sum constraint.
    """
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


def two_stage_ml_common_rate(
    H: np.ndarray, V: np.ndarray, U: np.ndarray, P: float
) -> float:
    stage1, stage2 = two_stage_ml_constraints(H, V, U, P)
    return float(min(stage1.min(), stage2.min()))


# ---------------------------------------------------------------------------
# interference alignment, distributed (min leakage) and closed form
# ---------------------------------------------------------------------------


def interference_covariances(
    H: np.ndarray, V: np.ndarray, rho: float
) -> np.ndarray:
    """Q[k] = sum_{i != k} rho H_ki V_i V_i^H H_ki^H, summed in order of i."""
    K = H.shape[0]
    T = H @ V[None]  # T[k, i] = H_ki V_i
    R = rho * (T @ T.conj().swapaxes(-1, -2))
    R[np.arange(K), np.arange(K)] = 0.0
    return R.sum(axis=1)


def distributive_ia_design(
    Hhat: np.ndarray, L: int, rho: float, iters: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Alternating min-leakage alignment on the estimated network.

    Receive filters take the L least-dominant eigenvectors of the
    interference covariance; the reciprocal network (conjugate-transposed
    links, roles swapped) recomputes the precoders the same way.  Total
    leakage is non-increasing because both half-steps minimize the same
    quantity, which is symmetric between the two directions.  Each half-step
    treats all K users in one batch.  trace[i] is the leakage after iteration
    i's receive half-step: the sum of each user's L smallest eigenvalues.
    """
    K, _, N, _ = Hhat.shape
    V = tdma_design(Hhat, L)  # deterministic start: direct-channel modes
    U = np.zeros((K, N, L), dtype=complex)
    # reciprocal direction: channel from i to k becomes Hhat[i, k]^H
    Hrec = Hhat.conj().transpose(1, 0, 3, 2)
    lam = np.empty((iters, K, N))  # each receive half-step's eigenvalues
    for i in range(iters):
        lam[i], U = np.linalg.eigh(interference_covariances(Hhat, V, rho))
        U = U[..., :L]
        V = np.linalg.eigh(interference_covariances(Hrec, U, rho))[1][..., :L]
    return V, U, lam[..., :L].sum(axis=(1, 2)).tolist()


def ia_stream_rates(
    H: np.ndarray, V: np.ndarray, U: np.ndarray, rho: float
) -> np.ndarray:
    """log2(1 + SINR) per stream with interference treated as noise."""
    K = H.shape[0]
    L = V.shape[2]
    rates = np.zeros((K, L))
    for k in range(K):
        for l in range(L):
            u = U[k][:, l]
            nu2 = float(np.sum(np.abs(u) ** 2))
            sig = rho * abs(u.conj() @ H[k, k] @ V[k][:, l]) ** 2
            intf = 0.0
            for i in range(K):
                for n in range(L):
                    if i == k and n == l:
                        continue
                    intf += rho * abs(u.conj() @ H[k, i] @ V[i][:, n]) ** 2
            rates[k, l] = np.log2(1 + sig / (nu2 + intf))
    return rates


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

    U = np.zeros((3, N, L), dtype=complex)
    for k in range(3):
        others = [H[k, i] @ V[i] for i in range(3) if i != k]
        for l in range(L):
            own = [H[k, k] @ V[k][:, [n]] for n in range(L) if n != l]
            S = np.concatenate(others + own, axis=1) if (others or own) else np.zeros((N, 0))
            uu, sv, _ = np.linalg.svd(S, full_matrices=True)
            U[k][:, l] = uu[:, -1]
    return V, U


def conventional_ia_3user(
    ch: ChannelSet, cfg: SystemConfig
) -> tuple[np.ndarray | None, np.ndarray | None, BaselineResult]:
    """Closed-form alignment scored on true channels; infeasible -> zeros."""
    design = conventional_ia_design(ch.Hhat, cfg.L)
    if design is None:
        return None, None, BaselineResult.build(
            "conventional_ia", np.zeros(ch.K), feasible=False
        )
    V, U = design
    rho = cfg.gamma * cfg.P / cfg.L
    rates = ia_stream_rates(ch.H, V, U, rho).sum(axis=1)
    return V, U, BaselineResult.build("conventional_ia", rates)
