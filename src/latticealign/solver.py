"""Alternating max-min solver for the robust lattice-alignment design.

The design problem maximizes the worst rate bound over precoders v, receive
filters u / utilde, Gaussian-integer combination coefficients a and integer
scalings c.  It is non-convex jointly but splits into blocks that are exact
or convex:

* receive-side block: per-decoder regularized least squares for u and utilde
  (closed form when the CSI bound is zero, otherwise damped Newton steps on
  a smoothed copy, all decoders of the block in one batch) plus a finite
  integer search for each c, scored as one decoder x candidate array;
* transmit-side block: the epigraph problem in (v, relaxed a, t) is convex
  and is solved with a log-barrier method under the per-user power budget.

The outer loop alternates the two blocks and never accepts a step that
lowers the worst rate bound.  It stops at the first rejected transmit step:
the state is then the receive block's own output, which a second pass of
that block leaves with the same rates up to rounding, and the transmit
block is deterministic, so a further sweep would repeat the same rejected
step.  After an accepted step it stops once the worst rate bound moves by
at most rate_tol.  Finally it projects the relaxed coefficients back to
Gaussian integers (dividing out any common divisor, which can only help
the aggregate-decoding rate) before one last receive-side refit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .channel import ChannelSet, SystemConfig, complex_gaussian
from .errors import ConfigurationError, NonConvergenceError, PowerBudgetError
from .gaussint import GaussianInt, common_divisor, exact_div
from .rates import (
    DesignState,
    RateReport,
    cross_vectors,
    own_stream_indicator,
    per_stream_rates,
    rate_report,
    robust_noise,
    stage1_denominators,
    stage2_denominators,
    stage_targets,
    vector_norms,
)

_DELTA = 1e-9  # smoothing width for |z| inside iterative solvers
_BIG = 1e30  # penalty level for infeasible barrier trial points


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps of the alternating solver.

    barrier_nu: factor by which the weight q of the transmit block's barrier
        objective t - (sum of log slacks) / q grows from one barrier stage to
        the next; the first stage uses q = 1.
    barrier_tol: the barrier stops once its duality-gap bound, the number of
        constraints over q, drops below this.
    newton_tol: Newton-decrement tolerance of the filter and relaxed scaling
        fits, and the gradient tolerance of each barrier stage.
    max_outer_iters: cap on the receive/transmit alternations of solve.
    max_inner_iters: caps three loops: the Newton steps of each filter fit,
        the L-BFGS-B iterations (times 5) of each barrier stage, and the
        sweeps of the receive-side fixed point.  That fixed point needs two
        sweeps before its stop test can pass, so a cap of 1 always raises.
    rate_tol: solve stops after an accepted transmit step once r_min moved
        by at most rate_tol * max(1, |r_min|); the receive fixed point stops
        once no stage-two rate moves by rate_tol or more.
    """

    barrier_nu: float = 10.0
    barrier_tol: float = 1e-6
    newton_tol: float = 1e-7
    max_outer_iters: int = 40
    max_inner_iters: int = 200
    rate_tol: float = 1e-5

    def __post_init__(self):
        if self.barrier_nu <= 1:
            raise ConfigurationError("need barrier_nu > 1")
        if min(self.barrier_tol, self.newton_tol, self.rate_tol) <= 0:
            raise ConfigurationError("tolerances must be positive")
        if min(self.max_outer_iters, self.max_inner_iters) < 1:
            raise ConfigurationError("iteration caps must be at least 1")


@dataclass
class TraceRecord:
    iter: int
    stage: str  # "receivers" | "precoders" | "quantize"
    r_min: float
    objective: float


@dataclass
class SolveTrace:
    """What a solve did, kept out of the solve JSON and the simulate CSV.

    stop_reason says why the outer loop ended: "transmit step rejected",
    "rate_tol reached", "max_outer_iters reached", or the block and message
    of a NonConvergenceError; a capped final refit appends its own message.
    first_receivers is the state the first receive-side block returned.
    """

    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = True
    stop_reason: str = ""
    first_receivers: DesignState | None = None

    def add(self, it: int, stage: str, r_min: float, objective: float):
        self.records.append(TraceRecord(it, stage, float(r_min), float(objective)))

    def r_min_series(self) -> list[float]:
        return [rec.r_min for rec in self.records]

    def pre_quantize_series(self) -> list[float]:
        return [rec.r_min for rec in self.records if rec.stage != "quantize"]

    def to_csv(self) -> str:
        lines = ["iter,r_min,stage,objective"]
        for rec in self.records:
            lines.append(f"{rec.iter},{rec.r_min!r},{rec.stage},{rec.objective!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# per-decoder pieces: each takes one decoder (k, l) or equal-length index
# arrays of decoders, and then returns one result row per decoder
# ---------------------------------------------------------------------------


def decorrelator_objective(
    ch: ChannelSet, st: DesignState, k, l, stage: int, u: np.ndarray, c=None
):
    """Exact robust decorrelator objective ||u||^2 + P sum (|residual| + eps bound)^2
    (rates.robust_noise) of filters u for decoders (k, l)."""
    w = cross_vectors(ch.Hhat, st.v)[k]
    b = stage_targets(st, k, l, stage, c)
    nv = vector_norms(st.v).reshape(-1)
    f = robust_noise(w, np.asarray(u, dtype=complex), b, nv, ch.epsilon, st.P)
    return float(f) if f.ndim == 0 else f


def _least_squares_filters(w: np.ndarray, b: np.ndarray, P: float) -> np.ndarray:
    """u = (sum_j w_j w_j^H + I/P)^(-1) sum_j w_j conj(b_j) for each stacked (w, b)."""
    A = np.einsum("...ja,...jb->...ab", w, w.conj()) + np.eye(w.shape[-1]) / P
    rhs = np.einsum("...j,...ja->...a", b.conj(), w)
    return np.linalg.solve(A, rhs[..., None])[..., 0]


def decorrelator_closed_form(
    ch: ChannelSet, st: DesignState, k, l, stage: int, c=None
) -> np.ndarray:
    """Regularized least-squares receive filter for the zero-CSI-error case.

    Solves min ||u||^2 + P sum_j |u^H w_j - b_j|^2 exactly:
    u = (sum_j w_j w_j^H + I/P)^(-1) sum_j w_j conj(b_j).
    """
    return _least_squares_filters(
        cross_vectors(ch.Hhat, st.v)[k], stage_targets(st, k, l, stage, c), st.P
    )


# Smoothed robust residual problems, stacked along a leading batch axis.  In
# real coordinates x = [Re u, Im u] each problem is
#
#     f(x) = rho ||x||^2 + P sum_j [(|A_j x - beta_j|_d + s0_j + sigma_j ||x||_d)^2 - d^2]
#
# with |y|_d = sqrt(|y|^2 + d^2): smooth and strictly convex.  A_j is the
# (2, 2n) real form of a complex row C_j, so |A_j x - beta_j| = |C_j u - t_j|.


@dataclass
class _Problems:
    A: np.ndarray  # (B, J, 2, 2n)
    beta: np.ndarray  # (B, J, 2)
    s0: np.ndarray  # (B, J) constant offsets
    sigma: np.ndarray  # (B, J) weights of ||x||_d
    rho: float
    P: float

    def __post_init__(self):
        shape = self.A.shape[:2]
        self.s0 = np.broadcast_to(self.s0, shape)
        self.sigma = np.broadcast_to(self.sigma, shape)
        self.AtA = np.einsum("bjrk,bjrl->bjkl", self.A, self.A)

    @staticmethod
    def from_complex(C, t, s0, sigma, rho, P) -> "_Problems":
        A = np.stack(
            [np.concatenate([C.real, -C.imag], -1), np.concatenate([C.imag, C.real], -1)],
            axis=-2,
        )
        return _Problems(A, np.stack([t.real, t.imag], -1), s0, sigma, rho, P)

    def take(self, idx) -> "_Problems":
        return _Problems(
            self.A[idx], self.beta[idx], self.s0[idx], self.sigma[idx], self.rho, self.P
        )

    def _terms(self, x: np.ndarray):
        """Residuals e_j, |e_j|_d, ||x||^2, ||x||_d and the offsets s0_j + sigma_j ||x||_d."""
        d2 = _DELTA**2
        e = np.einsum("bjrk,bk->bjr", self.A, x) - self.beta
        az = np.sqrt(np.einsum("bjr,bjr->bj", e, e) + d2)
        nx2 = np.einsum("bk,bk->b", x, x)
        nxs = np.sqrt(nx2 + d2)
        return e, az, nx2, nxs, self.s0 + self.sigma * nxs[:, None]

    def evaluate(self, x: np.ndarray, derivatives: bool = False):
        """f per problem; with derivatives also the gradient and the Hessian."""
        d2 = _DELTA**2
        e, az, nx2, nxs, offset = self._terms(x)
        r = az + offset
        f = self.rho * nx2 + self.P * np.sum(r * r - d2, axis=1)
        if not derivatives:
            return f
        daz = np.einsum("bjrk,bjr->bjk", self.A, e) / az[..., None]
        dr = daz + (self.sigma / nxs[:, None])[..., None] * x[:, None, :]
        grad = 2 * self.rho * x + 2 * self.P * np.einsum("bj,bjk->bk", r, dr)
        # sum_j [dr dr^T + r Hess(|.|_d) + r sigma Hess(||x||_d)]
        w = r / az
        rs = np.einsum("bj,bj->b", r, self.sigma) / nxs
        eye = np.eye(x.shape[1])
        hess = (
            np.einsum("bjk,bjl->bkl", dr, dr)
            + np.einsum("bj,bjkl->bkl", w, self.AtA)
            - np.einsum("bjk,bjl->bkl", daz * w[..., None], daz)
            + rs[:, None, None] * (eye - x[:, :, None] * x[:, None, :] / (nxs**2)[:, None, None])
        )
        return f, grad, 2 * self.P * hess + 2 * self.rho * eye

    def kinks(self, x, dx, grad, hess, tol):
        """How the Newton steps dx meet the kinks of |A_j x - beta_j| and ||x||.

        Out beyond the smoothing width the Hessian of |.|_d hardly sees a
        kink, so a Newton step overshoots across it and backtracking then
        crawls along it.  For the rows whose step crosses a kink from out
        there, the returned steps instead model each crossed term around its
        kink, where (|e| + c)^2 ~ (d + c)^2 + (d + c) |e|^2 / d is a stiff
        quadratic that pulls e to zero: they land on the kink.

        Near a kink the term's radial curvature 2 P r d^2 / |e|_d^3 dwarfs
        the unit curvature of the square, so the Newton decrement stays tiny
        even when the optimum lies well off the kink: the stiffness hides
        the push away from it.  That push is the curvature times the step's
        move of e, and leaving the kink would gain about push^2 / (4 P).  A
        row is settled when its step crosses no kink and these gains sum to
        at most tol (likewise for ||x||_d, against the curvature of rho ||x||^2).

        Returns (settled per row, rows with a kink step, their steps).
        """
        e, az, _, nxs, offset = self._terms(x)
        r = az + offset
        moves = np.einsum("bjrk,bk->bjr", self.A, dx)
        crossed = (az > 10 * _DELTA) & (np.einsum("bjr,bjr->bj", e, e + moves) < 0)
        hidden = r * _DELTA**2 * np.sqrt(np.einsum("bjr,bjr->bj", moves, moves)) / az**3
        gain = self.P * np.sum(hidden**2, axis=1)
        if self.rho > 0:
            rs = np.einsum("bj,bj->b", r, self.sigma)
            hidden = self.P * rs * _DELTA**2 * np.sqrt(np.einsum("bk,bk->b", dx, dx)) / nxs**3
            gain = gain + hidden**2 / self.rho
        settled = ~crossed.any(axis=1) & (gain <= tol)
        rows = np.flatnonzero(crossed.any(axis=1))
        weight = np.where(crossed[rows], 2 * self.P * (_DELTA + offset[rows]) / _DELTA, 0.0)
        hess = hess[rows] + np.einsum("bj,bjkl->bkl", weight, self.AtA[rows])
        pull = np.einsum("bjrk,bjr->bjk", self.A[rows], e[rows])
        grad = grad[rows] + np.einsum("bj,bjk->bk", weight, pull)
        return settled, rows, -np.linalg.solve(hess, grad[..., None])[..., 0]


_ARMIJO = 0.25  # sufficient-decrease fraction of the backtracking line search
_MAX_HALVINGS = 60


def _newton_batch(
    prob: _Problems, x0: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton method on a stack of problems (Boyd & Vandenberghe §9.5).

    Every problem takes its own backtracking step along its Newton direction,
    or the kink-landing step of _Problems.kinks where that one ends lower.
    A problem leaves the active set once its Newton decrement lambda^2 / 2
    drops to tol with its kinks settled (after that last step, which the
    quadratic model makes nearly exact) or when no step lowers its objective
    any more.  Returns the iterates and a per-problem flag that is False where the
    decrement never reached tol within max_iter steps or before the problem
    stalled.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    sub = prob
    for _ in range(max_iter):
        xa = x[active]
        f, grad, hess = sub.evaluate(xa, derivatives=True)
        dx = -np.linalg.solve(hess, grad[..., None])[..., 0]
        slope = np.einsum("bk,bk->b", grad, dx)  # -lambda^2
        step = np.ones(len(active))
        pending = np.ones(len(active), dtype=bool)
        for _ in range(_MAX_HALVINGS):
            f_new = sub.evaluate(xa + step[:, None] * dx)
            pending &= ~(f_new <= f + _ARMIJO * step * slope)
            if not pending.any():
                break
            step[pending] *= 0.5
        x_new = xa + step[:, None] * dx
        f_new = np.where(pending, f, f_new)
        settled, rows, dk = sub.kinks(xa, dx, grad, hess, tol)
        if len(rows):
            f_kink = sub.take(rows).evaluate(xa[rows] + dk)
            lower = f_kink < f_new[rows]
            x_new[rows[lower]] = xa[rows[lower]] + dk[lower]
            f_new[rows[lower]] = f_kink[lower]
        moved = f_new < f
        x[active[moved]] = x_new[moved]
        small = -slope <= 2 * tol
        done = small & settled
        # a problem whose objective no step can lower is at its floating-point
        # optimum; that counts as converged where the decrement is small
        converged[active[done | small & ~moved]] = True
        keep = moved & ~done
        if not keep.all():
            active = active[keep]
            if not len(active):
                break
            sub = sub.take(keep)
    return x, converged


def decorrelator_robust(
    ch: ChannelSet,
    st: DesignState,
    k,
    l,
    stage: int,
    cfg: SolverConfig | None = None,
    u0: np.ndarray | None = None,
    c=None,
) -> np.ndarray:
    """Receive filter minimizing the worst-case residual objective.

    Convex in u for any CSI bound; solved by damped Newton steps on a
    smoothed copy of the objective (the smoothing vanishes identically when
    the bound is zero, so this must agree with the closed form there).  Each
    problem starts from the better of its warm start u0 (zero when not given)
    and the zero-bound closed form.  Index arrays k, l (and optional stage-two
    scalings c) fit a whole stack of decoders at once.

    Raises NonConvergenceError, carrying every fitted filter in ``best``,
    when some fit does not reach cfg.newton_tol within cfg.max_inner_iters
    Newton steps.
    """
    cfg = cfg or SolverConfig()
    w = cross_vectors(ch.Hhat, st.v)[k]
    b = stage_targets(st, k, l, stage, c)
    shape, N = b.shape[:-1], w.shape[-1]
    w, b = w.reshape(-1, *w.shape[-2:]), b.reshape(-1, b.shape[-1])
    prob = _Problems.from_complex(
        w.conj(), b.conj(), 0.0, ch.epsilon * vector_norms(st.v).reshape(-1), 1.0, st.P
    )
    starts = [
        np.broadcast_to(0.0 if u0 is None else u0, (len(w), N)),
        _least_squares_filters(w, b, st.P),
    ]
    starts = [np.concatenate([u.real, u.imag], axis=-1) for u in starts]
    closer = prob.evaluate(starts[1]) < prob.evaluate(starts[0])
    x, ok = _newton_batch(
        prob, np.where(closer[:, None], starts[1], starts[0]), cfg.newton_tol, cfg.max_inner_iters
    )
    u = (x[:, :N] + 1j * x[:, N:]).reshape(shape + (N,))
    if not ok.all():
        kk, ll = (np.broadcast_to(i, shape).reshape(-1) for i in (k, l))
        bad = [(int(kk[i]), int(ll[i])) for i in np.flatnonzero(~ok)]
        raise NonConvergenceError(
            f"receive-filter Newton solve did not reach newton_tol within "
            f"{cfg.max_inner_iters} steps for decoders {bad}",
            best=u,
        )
    return u


def _scaling_value(ch, st, k, l, c):
    """f(c) of scaling_candidates: the stage-two objective of decoder (k, l)'s
    current utilde with scaling c."""
    return decorrelator_objective(ch, st, k, l, 2, st.utilde[k, l], c=c)


def scaling_candidates(ch: ChannelSet, st: DesignState, k, l, cfg: SolverConfig | None = None):
    """Gaussian-integer scalings worth scoring for decoders (k, l).

    The scaling c of a decoder should minimize f(c), the stage-two objective
    of its current utilde as a function of c, which up to the noise term
    ||utilde||^2 and the factor P is sum_j (|q_j - c a_j| + eps ||v_j||
    ||utilde||)^2 with q_j the estimated post-filter gain minus the
    own-stream target.  The relaxed complex minimizer is found first
    (weighted least squares, then damped Newton steps when the CSI bound
    couples in, every decoder in one batch).  The candidates are the Gaussian
    integers in the closed unit box around it, real part major, then the
    integer incumbent when it lies outside the box; a decoder that decodes
    no aggregate gets the single candidate 1.

    Returns a complex array of shape broadcast(k, l) + (10,), NaN past each
    decoder's last candidate.
    """
    cfg = cfg or SolverConfig()
    shape = np.broadcast(k, l).shape
    kk, ll = (np.broadcast_to(i, shape).reshape(-1) for i in (k, l))
    a = st.a[kk, ll].reshape(len(kk), -1)
    ut = st.utilde[kk, ll]
    q = np.einsum("...ja,...a->...j", cross_vectors(ch.Hhat, st.v)[kk], ut.conj())
    q = q - own_stream_indicator(st.K, st.L)[kk, ll].reshape(q.shape)
    s = ch.epsilon * vector_norms(st.v).reshape(-1) * vector_norms(ut)[..., None]
    live = np.any(a != 0, axis=1)

    c_rel = np.zeros(len(kk), dtype=complex)
    al, ql = a[live], q[live]
    c_rel[live] = np.sum(al.conj() * ql, axis=1) / np.sum(np.abs(al) ** 2, axis=1)
    if ch.epsilon > 0 and live.any():
        # the relaxed point only centres the candidate box, so a fit that
        # stops at the iteration cap is still a usable centre
        prob = _Problems.from_complex(al[..., None], ql, s[live], 0.0, 0.0, 1.0)
        x0 = np.stack([c_rel[live].real, c_rel[live].imag], axis=1)
        x, _ = _newton_batch(prob, x0, cfg.newton_tol, cfg.max_inner_iters)
        c_rel[live] = x[:, 0] + 1j * x[:, 1]

    # the closed unit box around c_rel holds 2 or 3 integers per axis; the
    # integer parts keep every candidate free of negative zeros
    xy = np.stack([c_rel.real, c_rel.imag])
    lo = np.ceil(xy - 1 - 1e-12).astype(int)
    n = np.floor(xy + 1 + 1e-12).astype(int) - lo + 1
    size = n[0] * n[1]
    j = np.arange(10)[:, None]  # slot, real part major
    box = (lo[0] + j // n[1]) + 1j * (lo[1] + j % n[1])
    cands = np.where(j < size, box, np.nan).T
    # keep the incumbent in the running so a scaling update can never regress
    cur = np.stack([st.c[kk, ll].real, st.c[kk, ll].imag])
    inc = np.round(cur).astype(int)
    integral = np.all(np.abs(cur - inc) < 1e-9, axis=0)
    extra = integral & np.any((inc < lo) | (inc >= lo + n), axis=0)
    cands[extra, size[extra]] = inc[0, extra] + 1j * inc[1, extra]
    cands[~live] = np.nan
    cands[~live, 0] = 1.0
    return cands.reshape(shape + (10,))


def optimize_scaling(ch: ChannelSet, st: DesignState, k: int, l: int) -> GaussianInt:
    """Optimal Gaussian-integer scaling of decoder (k, l)'s aggregate.

    Scores the scaling_candidates by f(c); ties (within 1e-12 relative)
    prefer the smaller norm, then the first-quadrant associate, then the
    smaller real and imaginary parts.  Returns 1 when no aggregate is
    decoded at all.
    """
    cands = scaling_candidates(ch, st, k, l)
    cands = cands[~np.isnan(cands)]
    f = _scaling_value(ch, st, k, l, cands)
    tied = cands[f <= f.min() + 1e-12 * (1 + abs(f.min()))]
    re, im = tied.real.astype(int), tied.imag.astype(int)
    first_quadrant = (re > 0) & (im >= 0)
    best = np.lexsort((im, re, ~first_quadrant, re * re + im * im))[0]
    return GaussianInt(int(re[best]), int(im[best]))


# ---------------------------------------------------------------------------
# receive-side block
# ---------------------------------------------------------------------------


def _fit_filters(ch, st, k, l, stage, cfg, u0, c=None):
    """Candidate filters for a stack of decoders, plus the error of a capped fit."""
    if ch.epsilon == 0:
        return decorrelator_closed_form(ch, st, k, l, stage, c), None
    try:
        return decorrelator_robust(ch, st, k, l, stage, cfg, u0=u0, c=c), None
    except NonConvergenceError as exc:
        return exc.best, exc


def _stage2_joint_update(
    ch: ChannelSet, st: DesignState, cfg: SolverConfig
) -> tuple[bool, NonConvergenceError | None]:
    """Best (scaling, stage-two filter) pair of every decoder, written into st.

    Scoring a candidate scaling with the current filter understates it, and
    pure coordinate descent over (utilde, c) can lock onto whichever scaling
    the filter was first fitted to.  Each candidate is therefore scored by
    the objective of its own refit filter.  The current filter's f(c) over
    the decoder x candidate array of scaling_candidates, computed once, only
    ranks the candidates: with a nonzero CSI bound every refit is an
    iterative robust fit, so only each decoder's four best-ranked candidates
    are refit.  The incumbent pair is always in the running, so no decoder's
    objective can increase.  Decoders do not interact here, so all refits of
    all decoders run as one batch.

    Returns whether any scaling changed and the error of a capped fit.
    """
    kk, ll = np.divmod(np.arange(st.K * st.L), st.L)
    cands = scaling_candidates(ch, st, kk, ll, cfg)
    # the NaN padding scores NaN, which a sort puts last
    proxy = _scaling_value(ch, st, kk[:, None], ll[:, None], cands)
    order = np.argsort(proxy, axis=1, kind="stable")[:, : None if ch.epsilon == 0 else 4]
    cands = np.take_along_axis(cands, order, axis=1)
    ok = ~np.isnan(cands)
    owner = np.nonzero(ok)[0]
    kr, lr, cr = kk[owner], ll[owner], cands[ok]
    u_g, err = _fit_filters(ch, st, kr, lr, 2, cfg, st.utilde[kr, lr], c=cr)
    f_g = np.full(cands.shape, np.inf)
    f_g[ok] = decorrelator_objective(ch, st, kr, lr, 2, u_g, c=cr)
    u_all = np.zeros(cands.shape + u_g.shape[-1:], dtype=complex)
    u_all[ok] = u_g
    best = np.arange(len(kk)), np.argmin(f_g, axis=1)  # first of the best in rank order
    take = f_g[best] < decorrelator_objective(ch, st, kk, ll, 2, st.utilde[kk, ll])
    c_new = cands[best][take]
    changed = bool(np.any(c_new != st.c[kk[take], ll[take]]))
    st.c[kk[take], ll[take]] = c_new
    st.utilde[kk[take], ll[take]] = u_all[best][take]
    return changed, err


def optimize_receivers(
    ch: ChannelSet, st: DesignState, cfg: SolverConfig | None = None
) -> tuple[DesignState, list[np.ndarray]]:
    """Receive-side block: refit every u once, then alternate utilde and c.

    Precoders and combination coefficients stay fixed.  Each u is the exact
    (or Newton-refined) minimizer of its stage-one objective; each (utilde,
    c) pair is improved jointly until a fixed point, and every update is
    accepted only if it lowers its objective, so the per-decoder rate bounds
    are non-decreasing along the returned trace of stage-two rate arrays.

    Raises NonConvergenceError with the finished state in ``best`` when the
    fixed point or one of the filter fits hit its iteration cap.
    """
    cfg = cfg or SolverConfig()
    st = st.copy()
    kk, ll = np.divmod(np.arange(st.K * st.L), st.L)
    live = np.any(st.a != 0, axis=(2, 3)).reshape(-1)
    st.u[kk[~live], ll[~live]] = 0.0  # no aggregate to decode
    err = None
    if live.any():
        k1, l1 = kk[live], ll[live]
        cur = st.u[k1, l1]
        cand, err = _fit_filters(ch, st, k1, l1, 1, cfg, cur)
        better = decorrelator_objective(ch, st, k1, l1, 1, cand) < decorrelator_objective(
            ch, st, k1, l1, 1, cur
        )
        st.u[k1[better], l1[better]] = cand[better]

    trace: list[np.ndarray] = []
    prev_mu = None
    for _ in range(cfg.max_inner_iters):
        c_changed, err2 = _stage2_joint_update(ch, st, cfg)
        err = err if err is not None else err2
        mu_t = np.log2(st.P / stage2_denominators(ch, st))
        trace.append(mu_t)
        if prev_mu is not None and not c_changed:
            if float(np.max(np.abs(mu_t - prev_mu))) < cfg.rate_tol:
                if err is not None:
                    raise NonConvergenceError(
                        f"receive-side block: {err}", best=st, trace=trace
                    ) from err
                return st, trace
        prev_mu = mu_t
    raise NonConvergenceError(
        "receive-side fixed-point iteration hit the iteration cap", best=st, trace=trace
    )


# ---------------------------------------------------------------------------
# transmit-side block (barrier method on the epigraph form)
# ---------------------------------------------------------------------------


def optimize_precoders(
    ch: ChannelSet, st: DesignState, gamma: float, cfg: SolverConfig | None = None
) -> tuple[DesignState, float]:
    """Transmit-side block: minimize the epigraph bound t over (v, a, t).

    With the receive filters and integer scalings fixed, every residual term
    is affine in (v, a), so bounding each decoder's effective noise power by
    t and keeping each user inside its power budget is a convex feasibility
    region.  A standard log-barrier sweep (multiplier nu per stage, stopped
    when the barrier duality gap drops below barrier_tol) minimizes t; the
    combination coefficients are relaxed to arbitrary complex values here
    and only re-integerized at the end of the full solve.

    Returns the updated state and the final epigraph value.
    """
    cfg = cfg or SolverConfig()
    K, L, M = st.v.shape
    P, eps = st.P, ch.epsilon
    Hhat = ch.Hhat
    U, Ut, c = st.u, st.utilde, st.c
    nu, nut = vector_norms(U), vector_norms(Ut)
    E = own_stream_indicator(K, L)
    free = E.reshape(-1) == 0
    HU = np.einsum("kiab,kla->kilb", Hhat.conj(), U)
    HUt = np.einsum("kiab,kla->kilb", Hhat.conj(), Ut)
    cc = c[:, :, None, None]
    ccb = np.conj(c)[:, :, None, None]
    n_v = K * L * M
    d2 = _DELTA**2

    def unpack(x):
        t = x[0]
        V = (x[1 : 1 + n_v] + 1j * x[1 + n_v : 1 + 2 * n_v]).reshape(K, L, M)
        Af = np.zeros(K * L * K * L, dtype=complex)
        Af[free] = x[1 + 2 * n_v : 1 + 2 * n_v + free.sum()] + 1j * x[1 + 2 * n_v + free.sum() :]
        return t, V, Af.reshape(K, L, K, L)

    def pack(t, V, A):
        Af = A.reshape(-1)[free]
        return np.concatenate([[t], V.real.ravel(), V.imag.ravel(), Af.real, Af.imag])

    def bounds(V, A):
        """Smoothed stage-one and stage-two bounds at (V, A): residuals Z,
        smoothed magnitudes Hs, worst-case offsets S and bounds g per stage,
        plus the smoothed stream norms."""
        TT = np.einsum("kiab,inb->kina", Hhat, V)
        nvs = np.sqrt(vector_norms(V) ** 2 + d2)
        stages = []
        for Uf, nf, B in ((U, nu, A), (Ut, nut, cc * A + E)):
            Z = np.einsum("kla,kina->klin", Uf.conj(), TT) - B
            Hs = np.sqrt(np.abs(Z) ** 2 + d2)
            S = eps * nf[:, :, None, None] * nvs[None, None, :, :]
            g = nf**2 + P * np.sum((Hs + S) ** 2 - d2, axis=(2, 3))
            stages.append((Z, Hs, S, g))
        return stages, nvs

    def fun_grad(x, q):
        t, V, A = unpack(x)
        p = np.sum(np.abs(V) ** 2, axis=(1, 2))
        ps = gamma - p
        ((Z1, H1, S1, g1), (Z2, H2, S2, g2)), nvs = bounds(V, A)
        s1 = t - g1
        s2 = t - g2
        feasible = s1.min() > 0 and s2.min() > 0 and ps.min() > 0
        if feasible:
            lam1 = 1.0 / (q * s1)
            lam2 = 1.0 / (q * s2)
            lamp = 1.0 / (q * ps)
            F = t - (np.sum(np.log(s1)) + np.sum(np.log(s2)) + np.sum(np.log(ps))) / q
            gt = 1.0 - lam1.sum() - lam2.sum()
        else:
            lam1 = _BIG * (s1 <= 0)
            lam2 = _BIG * (s2 <= 0)
            lamp = _BIG * (ps <= 0)
            viol = (
                np.sum(np.maximum(-s1, 0))
                + np.sum(np.maximum(-s2, 0))
                + np.sum(np.maximum(-ps, 0))
            )
            F = _BIG * (1.0 + viol)
            gt = -(lam1.sum() + lam2.sum())
        C1 = lam1[:, :, None, None] * P * ((H1 + S1) / H1) * Z1
        C2 = lam2[:, :, None, None] * P * ((H2 + S2) / H2) * Z2
        gA = -C1 - C2 * ccb
        gV = np.einsum("klin,kilb->inb", C1, HU) + np.einsum("klin,kilb->inb", C2, HUt)
        if eps > 0:
            e1 = P * eps * np.einsum("klin,kl->in", lam1[:, :, None, None] * (H1 + S1), nu)
            e2 = P * eps * np.einsum("klin,kl->in", lam2[:, :, None, None] * (H2 + S2), nut)
            gV = gV + ((e1 + e2) / nvs)[:, :, None] * V
        gV = gV + lamp[:, None, None] * V
        gAf = gA.reshape(-1)[free]
        grad = np.concatenate(
            [[gt], 2 * gV.real.ravel(), 2 * gV.imag.ravel(), 2 * gAf.real, 2 * gAf.imag]
        )
        return F, grad

    # strictly feasible start: nudge any user off the power boundary,
    # then open the epigraph slightly above the current worst bound
    V0 = st.v.copy()
    for k in range(K):
        p = float(np.sum(np.abs(V0[k]) ** 2))
        if p >= gamma * (1 - 1e-9):
            V0[k] *= np.sqrt(gamma * (1 - 1e-8) / p)
    A0 = st.a.copy()
    # smoothed bounds at the start point decide where to open the epigraph
    (_, _, _, g1), (_, _, _, g2) = bounds(V0, A0)[0]
    m0 = float(max(g1.max(), g2.max()))
    t0 = m0 + max(1e-4, 0.02 * (1 + abs(m0)))
    x = pack(t0, V0, A0)

    q = 1.0
    n_constraints = 2 * K * L + K
    t_final = t0
    while True:
        res = minimize(
            fun_grad,
            x,
            args=(q,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cfg.max_inner_iters * 5, "ftol": 1e-15, "gtol": cfg.newton_tol},
        )
        x = res.x
        t_final = float(x[0])
        if n_constraints / q < cfg.barrier_tol:
            break
        q *= cfg.barrier_nu
    _, V, A = unpack(x)
    out = st.copy()
    out.v = V
    out.a = A
    return out, t_final


# ---------------------------------------------------------------------------
# full alternating solve
# ---------------------------------------------------------------------------


def _blank_state(cfg: SystemConfig, V: np.ndarray) -> DesignState:
    """Design state around precoders V: zero filters and coefficients, c = 1."""
    K, L, N = cfg.K, cfg.L, cfg.N
    return DesignState(
        v=V,
        u=np.zeros((K, L, N), dtype=complex),
        utilde=np.zeros((K, L, N), dtype=complex),
        a=np.zeros((K, L, K, L), dtype=complex),
        c=np.ones((K, L), dtype=complex),
        P=cfg.P,
    )


def _onto_budget(V: np.ndarray, gamma: float) -> np.ndarray:
    """A copy of the (K, L, M) precoders V with each user's power rescaled to gamma."""
    V = np.array(V, dtype=complex)
    for k in range(len(V)):
        V[k] *= np.sqrt(gamma / np.sum(np.abs(V[k]) ** 2))
    return V


def initial_state(
    ch: ChannelSet,
    cfg: SystemConfig,
    strategy: str = "identity_like",
    seed: int | None = None,
    init_a: str = "round",
) -> DesignState:
    """Build a starting design.

    Precoders come from the chosen strategy (random unit draws, canonical
    basis columns, or an interference-alignment seed for the 3-user
    even-antenna geometry).  Coefficients start either at zero (one-stage
    decoding) or at the rounded post-filter cross gains of a one-shot
    least-squares fit; scalings start at one.
    """
    K, L, M, N = cfg.K, cfg.L, cfg.M, cfg.N
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    if strategy == "random_unit":
        V = _onto_budget(complex_gaussian(rng, (K, L, M)), cfg.gamma)
    elif strategy == "identity_like":
        V = np.zeros((K, L, M), dtype=complex)
        V[:, np.arange(L), np.arange(L) % M] = 1.0
        V = _onto_budget(V, cfg.gamma)
    elif strategy == "ia_seed":
        from .baselines import conventional_ia_design

        design = conventional_ia_design(ch.Hhat, L)
        if design is None:
            raise ConfigurationError(
                "ia_seed needs the 3-user geometry with M == N even and L == M/2"
            )
        # baseline designs store streams as unit-norm matrix columns (K, M, L)
        V = design[0].transpose(0, 2, 1) * np.sqrt(cfg.gamma / L)
        init_a = "zero"
    else:
        raise ConfigurationError(f"unknown init strategy {strategy!r}")

    st = _blank_state(cfg, V)
    if init_a == "round":
        # least-squares fit of every decoder to unit gains on its cross streams
        own = own_stream_indicator(K, L).reshape(K * L, K * L)
        w = cross_vectors(ch.Hhat, st.v)[np.arange(K * L) // L]
        U = _least_squares_filters(w, 1.0 - own, st.P)
        gains = (w @ U.conj()[..., None])[..., 0]
        a0 = np.round(gains.real) + 1j * np.round(gains.imag)
        a0[own > 0] = 0.0
        st.a = a0.reshape(K, L, K, L)
        st.u = U.reshape(K, L, N)
    elif init_a != "zero":
        raise ConfigurationError(f"unknown init_a mode {init_a!r}")
    return st


def _quantize_coefficients(st: DesignState) -> DesignState:
    out = st.copy()
    out.a = np.round(st.a.real) + 1j * np.round(st.a.imag)
    return out


def _reduce_common_divisors(st: DesignState) -> DesignState:
    """Divide each coefficient vector by its common Gaussian divisor.

    A shared divisor r (norm > 1) wastes aggregate-decoding rate: the pair
    (u/r, a/r) decodes a strictly finer combination at higher rate while
    c -> c r leaves the stage-two targets untouched.
    """
    out = st.copy()
    K, L = st.K, st.L
    for k in range(K):
        for l in range(L):
            vec = out.coeff_vector(k, l)
            r = common_divisor(vec)
            if r is None:
                continue
            reduced = [exact_div(e, r) for e in vec.entries]
            out.a[k, l] = np.array([complex(e) for e in reduced]).reshape(K, L)
            out.c[k, l] = out.c[k, l] * complex(r)
            out.u[k, l] = out.u[k, l] / complex(r)
    return out


def _refit_receivers(ch, st, solver):
    """optimize_receivers, with the finished state of a capped block and its error."""
    try:
        return optimize_receivers(ch, st, solver)[0], None
    except NonConvergenceError as exc:
        return exc.best, exc


def solve(
    ch: ChannelSet,
    cfg: SystemConfig,
    solver: SolverConfig | None = None,
    init_state: DesignState | None = None,
) -> tuple[DesignState, RateReport, SolveTrace]:
    """Full alternating solve of the robust max-min design.

    Alternates the receive-side and transmit-side blocks from init_state, or
    from initial_state(ch, cfg) when none is given; a transmit-side step is
    accepted only when it does not lower the worst rate bound, so the
    pre-quantization trace of r_min is non-decreasing.  The loop stops at the
    first rejected transmit step, because the state is then the receive
    block's own output and another sweep would refit nothing and repeat the
    same rejected barrier solve.  After an accepted step it stops once r_min
    moved by at most rate_tol (relative to max(1, |r_min|)).  Afterwards the
    relaxed coefficients are rounded to Gaussian integers, common divisors are
    removed, and the receive side is refit once against the final integers.

    Returns (state, report, trace); trace.converged is False when the outer
    loop or a sub-block hit its iteration budget, and trace.stop_reason says
    why the loop stopped.
    """
    solver = solver or SolverConfig()
    if (ch.K, ch.M, ch.N) != (cfg.K, cfg.M, cfg.N):
        raise ConfigurationError(
            f"channel dimensions {(ch.K, ch.M, ch.N)} do not match config "
            f"{(cfg.K, cfg.M, cfg.N)}"
        )
    trace = SolveTrace()
    st = initial_state(ch, cfg) if init_state is None else init_state.copy()
    r_prev = -np.inf
    outer = 0
    for outer in range(solver.max_outer_iters):
        st, err = _refit_receivers(ch, st, solver)
        if outer == 0:
            trace.first_receivers = st
        if err is not None:
            trace.converged = False
            trace.stop_reason = f"optimize_receivers: {err}"
            break
        r_a = rate_report(ch, st).r_min
        trace.add(outer, "receivers", r_a, float(np.sum(stage2_denominators(ch, st))))

        st_cand, t_val = optimize_precoders(ch, st, cfg.gamma, solver)
        r_cand = rate_report(ch, st_cand).r_min
        if r_cand < r_a:
            trace.add(outer, "precoders", r_a, t_val)
            trace.stop_reason = "transmit step rejected"
            break
        st = st_cand
        trace.add(outer, "precoders", r_cand, t_val)
        if np.isfinite(r_prev) and abs(r_cand - r_prev) <= solver.rate_tol * max(1.0, abs(r_cand)):
            trace.stop_reason = "rate_tol reached"
            break
        r_prev = r_cand
    else:
        trace.converged = False
        trace.stop_reason = "max_outer_iters reached"

    st = _quantize_coefficients(st)
    st = _reduce_common_divisors(st)
    st, err = _refit_receivers(ch, st, solver)
    if err is not None:
        trace.converged = False
        trace.stop_reason += f"; final receive refit: {err}"
    report = rate_report(ch, st)
    den_worst = float(
        max(np.max(stage2_denominators(ch, st)), np.max(stage1_denominators(ch, st)))
    )
    trace.add(outer + 1, "quantize", report.r_min, den_worst)

    for k in range(cfg.K):
        if st.power(k) > cfg.gamma + 1e-9:
            raise PowerBudgetError(k, st.power(k), cfg.gamma)
    return st, report, trace


def _objective_key(st: DesignState, report: RateReport, objective: str) -> float:
    if objective == "worst":
        return report.r_min
    if objective == "sum":
        return float(np.sum(np.maximum(per_stream_rates(report, st.a), 0.0)))
    raise ConfigurationError(f"unknown objective {objective!r}")


def state_from_precoders(cfg: SystemConfig, V: np.ndarray) -> DesignState:
    """Design state around precoders V: no aggregate decoding, c = 1.

    V has the layout of DesignState.v, one row per stream (K, L, M); each
    user's power is rescaled onto the budget.
    """
    V = np.asarray(V)
    if V.shape != (cfg.K, cfg.L, cfg.M):
        raise ConfigurationError(f"precoders must have shape {(cfg.K, cfg.L, cfg.M)}")
    return _blank_state(cfg, _onto_budget(V, cfg.gamma))


def multi_start(
    ch: ChannelSet,
    cfg: SystemConfig,
    n_starts: int,
    solver: SolverConfig | None = None,
    objective: str = "worst",
    extra_precoders: tuple[np.ndarray, ...] = (),
) -> tuple[DesignState, RateReport, SolveTrace]:
    """Run the alternating solve from several initializations, keep the best.

    Each start solves from an initial_state strategy.  The start list is
    prefix-stable in n_starts: the deterministic canonical start comes first,
    then the alignment seed when the geometry admits one, then seeded random
    draws, so enlarging n_starts can only improve the selected objective.

    Each entry of extra_precoders, (K, L, M) like DesignState.v, adds two
    candidates on top of the n_starts budget: a full solve seeded from those
    precoders, and the plain receive-side fit with zero coefficients, which is
    that solve's first receive block.  The latter never trails any
    fixed-filter single-user rate for the same precoders, which makes a
    known-good design (for example an alignment solution) a floor for the
    returned objective.
    """
    if n_starts < 1:
        raise ConfigurationError("n_starts must be at least 1")
    solver = solver or SolverConfig()
    starts = [initial_state(ch, cfg, "identity_like")]
    if n_starts > 1:
        try:
            starts.append(initial_state(ch, cfg, "ia_seed"))
        except ConfigurationError:
            pass  # no alignment seed for this geometry
    for child in np.random.SeedSequence(cfg.seed).spawn(n_starts - len(starts)):
        starts.append(initial_state(ch, cfg, "random_unit", seed=int(child.generate_state(1)[0])))

    results = [solve(ch, cfg, solver, init_state=st0) for st0 in starts]
    for V in extra_precoders:
        seeded = solve(ch, cfg, solver, init_state=state_from_precoders(cfg, V))
        results.append(seeded)
        st_rx = seeded[2].first_receivers
        rep_rx = rate_report(ch, st_rx)
        tr_rx = SolveTrace(stop_reason="receive-only fit")
        tr_rx.add(0, "receivers", rep_rx.r_min, 0.0)
        results.append((st_rx, rep_rx, tr_rx))

    best = None
    best_key = -np.inf
    for result in results:
        key = _objective_key(result[0], result[1], objective)
        if key > best_key:
            best = result
            best_key = key
    return best
