"""Alternating max-min solver for the robust lattice-alignment design.

The design problem maximizes the worst rate bound over precoders v, receive
filters u / utilde, Gaussian-integer combination coefficients a and integer
scalings c.  It is non-convex jointly but splits into blocks that are exact
or convex:

* receive-side block: per-decoder regularized least squares for u and utilde
  (closed form when the CSI bound is zero, otherwise damped Newton steps on
  a smoothed copy, all decoders of the block in one batch, which also holds
  the stage-one fits in the first sweep) plus a finite integer search for
  each c over the unit box around its least-squares point, scored as one
  decoder x candidate array.  Each candidate c is scored by its own refit
  filter, and a robust refit runs only where its bounds leave it a chance
  of being written (bounding, as in branch and bound): the written pairs
  are those of refitting every candidate;
* transmit-side block: the epigraph problem in (v, relaxed a, t) is convex
  and is solved with a log-barrier method under the per-user power budget;
  its sweep of barrier stages ends at the duality-gap bound or at the first
  stage that stalls (at most one iteration).  Each stage runs minimize, the
  package's own limited-memory BFGS: L-BFGS-B without bounds, Moré–Thuente
  line search included, in numpy, so no solve needs scipy.

Every design the outer loop keeps has Gaussian-integer coefficients free
of common divisors (dividing one out can only help the aggregate-decoding
rate), and its worst rate bound never falls.  A transmit step is accepted
only when it raises that bound; its relaxed coefficients are then rounded,
the receive side is refit to them, and the refit is kept only when it does
not lower the bound.  The loop stops at the first rejected step or refit:
the state is then the receive block's own output, which a second pass of
that block leaves with the same rates up to rounding, and the transmit
block is deterministic, so a further sweep would repeat the same rejected
step.  After a kept step it stops once the bound rose by at most rate_tol.
That is the one loop rate_tol stops: the receive block's fixed point ends
at the first sweep that changes no scaling c.  max_inner_iters caps the
receive side alone; each barrier stage has the fixed cap _STAGE_ITERS.

optimize_receivers takes a list of designs on one channel: their decoders
are rows of the same batched fits, each design keeps its own stop test and
cap, so it ends with the bits a block of it alone gives, and each design's
error message is returned, not raised.  solve batches only the first
receive blocks of its starts, in one call, since most designs end after
that block and a rejected transmit step; each start then runs its own loop
as plain code, with a one-design call for each later block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
import functools
import math

import numpy as np

from .channel import ChannelSet, SystemConfig, complex_gaussian
from .errors import (
    ConfigurationError,
    NonConvergenceError,
    PowerBudgetError,
    is_finite_real,
    is_integer,
)
from .gaussint import CoeffVector, GaussianInt, common_divisor, exact_div
from .rates import (
    DesignState,
    RateReport,
    cross_vectors,
    own_stream_indicator,
    per_stream_rates,
    rate_report,
    robust_noise,
    stage_targets,
    vector_norms,
)

_DELTA = 1e-9  # smoothing width for |z| inside iterative solvers
_BIG = 1e30  # penalty level for infeasible barrier trial points
_EPS = float(np.finfo(float).eps)
# The range of each value the solver carries.  The Newton kernel squares
# P-scaled curvature terms of up to 1 / _DELTA^3, which overflow from about
# P = 1e154, or eps = 1e40 at P = 1e100; a subnormal P overflows the 1 / P
# of the least-squares fits.
_CARRIED = (
    ("per-stream power P", 1e-100, 1e100),
    ("CSI error bound epsilon", 0.0, 1e20),
)


def check_carried(P: float = 1.0, epsilon: float = 0.0) -> None:
    """Raise ConfigurationError naming the first of P and epsilon that lies
    outside its range in _CARRIED, the range the solver carries."""
    for (what, lo, hi), val in zip(_CARRIED, (P, epsilon)):
        if not lo <= val <= hi:
            raise ConfigurationError(
                f"{what}={val!r} is outside [{lo:g}, {hi:g}], the range the solver carries"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps of the alternating solver.

    barrier_nu: factor by which the weight q of the transmit block's barrier
        objective t - (sum of log slacks) / q grows from one barrier stage to
        the next; the first stage uses q = 1.
    barrier_tol: the barrier stops once its duality-gap bound, the number of
        constraints over q, drops below this, or after the first stage that
        stalls (at most one minimize iteration).
    newton_tol: Newton-decrement tolerance of the robust filter fits, and the
        gradient tolerance (max |g|) of each barrier stage's minimize.
    max_outer_iters: cap on the receive/transmit alternations of solve.
    max_inner_iters: caps the receive side: the Newton steps of each filter
        fit and the sweeps of the receive-side fixed point.  A receive block
        that hits a cap ends the solve, flagged as not converged, and solve
        returns that block's design.  Each barrier stage has its own fixed
        cap (_STAGE_ITERS).
    rate_tol: solve stops after a kept transmit step once r_min rose by at
        most rate_tol * max(1, |r_min|).  It stops no other loop.
    """

    barrier_nu: float = 10.0
    barrier_tol: float = 1e-6
    newton_tol: float = 1e-7
    max_outer_iters: int = 40
    max_inner_iters: int = 200
    rate_tol: float = 1e-5

    def __post_init__(self):
        for name in ("max_outer_iters", "max_inner_iters"):
            val = getattr(self, name)
            if not (is_integer(val) and val >= 1):
                raise ConfigurationError(f"{name} must be an integer >= 1, got {val!r}")
        for name in ("barrier_nu", "barrier_tol", "newton_tol", "rate_tol"):
            val = getattr(self, name)
            if not is_finite_real(val):
                raise ConfigurationError(f"{name} must be a finite real number, got {val!r}")
        if self.barrier_nu <= 1:
            raise ConfigurationError("need barrier_nu > 1")
        if min(self.barrier_tol, self.newton_tol, self.rate_tol) <= 0:
            raise ConfigurationError("tolerances must be positive")


@dataclass
class TraceRecord:
    iter: int
    stage: str  # "receivers" | "precoders"
    r_min: float


@dataclass
class SolveTrace:
    """What a solve did, kept out of the solve JSON and the simulate CSV.

    records hold the r_min of each state the loop kept: the first receive
    block's ("receivers", iter 0), then one per transmit step ("precoders",
    iter = the step's number), the rounded and refit step's r_min, or the
    current one when the step or its refit was rejected.  The series never
    falls, and its last entry is the returned design's r_min.  stop_reason
    says why the loop ended: "transmit step rejected", "rounded transmit
    step rejected", "rate_tol reached", "max_outer_iters reached", or a
    capped receive block's message after "optimize_receivers: ".
    """

    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = True
    stop_reason: str = ""

    def add(self, it: int, stage: str, r_min: float):
        self.records.append(TraceRecord(it, stage, float(r_min)))

    def pre_quantize_series(self) -> list[float]:
        """The r_min of every record; each one is an integral state."""
        return [rec.r_min for rec in self.records]


# ---------------------------------------------------------------------------
# per-decoder pieces: each takes one decoder (k, l) or equal-length index
# arrays of decoders, and then returns one result row per decoder.  Besides a
# DesignState, st may be a _Stack of several designs on the same channel;
# k then numbers the users of all its designs one after another.
# ---------------------------------------------------------------------------


_FIELDS = ("v", "u", "utilde", "a", "c")  # the per-user arrays of a design


@dataclass
class _Stack:
    """Designs on one channel, stacked for one batch of per-decoder work.

    This is the only code that knows the stacked layout.  The users of the
    designs come one after another: user k of design d is row d * K + k of
    v, u, utilde, a and c, and a keeps its per-design (K, L) tail, so the
    per-decoder pieces index a stack like one design with more users.  Each
    user row's cross vectors w (K*L, N) and stream norms nv (K*L,) are built
    once, with the stack: they depend only on the precoders, which a receive
    block never changes.
    """

    v: np.ndarray
    u: np.ndarray
    utilde: np.ndarray
    a: np.ndarray
    c: np.ndarray
    P: float
    K: int
    w: np.ndarray  # (users, K*L, N): each user row's view of its design's streams
    nv: np.ndarray  # (users, K*L): the stream norms ||v_j|| of each user row's design

    @property
    def L(self) -> int:
        return self.v.shape[1]

    @staticmethod
    def of(ch: ChannelSet, designs) -> "_Stack":
        """The stack of designs on ch: a list, one DesignState, or a _Stack as it is."""
        if isinstance(designs, _Stack):
            return designs
        if isinstance(designs, DesignState):
            designs = [designs]
        if len({st.P for st in designs}) > 1:
            raise ConfigurationError("stacked designs must share the per-stream power P")
        fields = [np.concatenate([getattr(st, f) for st in designs]) for f in _FIELDS]
        w = np.concatenate([cross_vectors(ch.Hhat, st.v) for st in designs])
        nv = np.concatenate([np.tile(vector_norms(st.v).reshape(-1), (st.K, 1)) for st in designs])
        return _Stack(*fields, P=designs[0].P, K=designs[0].K, w=w, nv=nv)

    def designs(self) -> list[DesignState]:
        """The stacked designs, as states that view the stack's arrays."""
        K = self.K
        return [
            DesignState(**{f: getattr(self, f)[i : i + K] for f in _FIELDS}, P=self.P)
            for i in range(0, len(self.v), K)
        ]

    def split(self, k):
        """(design, user within that design) of user rows k."""
        return np.divmod(k, self.K)


def _decoders(ch: ChannelSet, st, k, l, stage, c=None):
    """Cross vectors, residual targets and stream norms of decoders (k, l)."""
    S = _Stack.of(ch, st)
    return S.w[k], stage_targets(S, k, l, stage, c), S.nv[k]


def decorrelator_objective(
    ch: ChannelSet, st: DesignState, k, l, stage, u: np.ndarray, c=None
):
    """Exact robust decorrelator objective ||u||^2 + P sum (|residual| + eps bound)^2
    (rates.robust_noise) of filters u for decoders (k, l)."""
    w, b, nv = _decoders(ch, st, k, l, stage, c)
    f = robust_noise(w, np.asarray(u, dtype=complex), b, nv, ch.epsilon, st.P)
    return float(f) if f.ndim == 0 else f


def _least_squares_filters(w: np.ndarray, b: np.ndarray, P: float) -> np.ndarray:
    """u = (sum_j w_j w_j^H + I/P)^(-1) sum_j w_j conj(b_j) for each stacked (w, b)."""
    A = np.einsum("...ja,...jb->...ab", w, w.conj()) + np.eye(w.shape[-1]) / P
    rhs = np.einsum("...j,...ja->...a", b.conj(), w)
    return np.linalg.solve(A, rhs[..., None])[..., 0]


def decorrelator_closed_form(
    ch: ChannelSet, st: DesignState, k, l, stage, c=None
) -> np.ndarray:
    """Regularized least-squares receive filter for the zero-CSI-error case.

    Solves min ||u||^2 + P sum_j |u^H w_j - b_j|^2 exactly:
    u = (sum_j w_j w_j^H + I/P)^(-1) sum_j w_j conj(b_j).
    """
    w, b, _ = _decoders(ch, st, k, l, stage, c)
    return _least_squares_filters(w, b, st.P)


# Smoothed robust residual problems, stacked along a leading batch axis.  In
# real coordinates x = [Re u, Im u] each problem is
#
#     f(x) = ||x||^2 + P sum_j [(|A_j x - beta_j|_d + sigma_j ||x||_d)^2 - d^2]
#
# with |y|_d = sqrt(|y|^2 + d^2): smooth and strictly convex.  A_j is the
# (2, 2n) real form of a complex row C_j, so |A_j x - beta_j| = |C_j u - t_j|.


@dataclass
class _Problems:
    A: np.ndarray  # (B, J, 2, 2n)
    beta: np.ndarray  # (B, J, 2)
    sigma: np.ndarray  # (B, J) weights of ||x||_d
    P: float
    AtA: np.ndarray = field(init=False)  # (B, J, 2n, 2n) A_j^T A_j

    def __post_init__(self):
        self.AtA = np.einsum("bjrk,bjrl->bjkl", self.A, self.A)

    @staticmethod
    def from_complex(C, t, sigma, P) -> "_Problems":
        A = np.stack(
            [np.concatenate([C.real, -C.imag], -1), np.concatenate([C.imag, C.real], -1)],
            axis=-2,
        )
        return _Problems(A, np.stack([t.real, t.imag], -1), sigma, P)

    def take(self, idx) -> "_Problems":
        sub = object.__new__(_Problems)  # the fields need no __post_init__
        sub.__dict__ = {f: x[idx] if np.ndim(x) else x for f, x in vars(self).items()}
        return sub

    def _terms(self, x: np.ndarray):
        """Residuals e_j, |e_j|_d, ||x||^2, ||x||_d and the offsets sigma_j ||x||_d."""
        d2 = _DELTA**2
        e = np.einsum("bjrk,bk->bjr", self.A, x) - self.beta
        az = np.sqrt(np.einsum("bjr,bjr->bj", e, e) + d2)
        nx2 = np.einsum("bk,bk->b", x, x)
        nxs = np.sqrt(nx2 + d2)
        return e, az, nx2, nxs, self.sigma * nxs[:, None]

    def evaluate(self, x: np.ndarray, derivatives: bool = False, terms=None):
        """f per problem; with derivatives also the gradient and the Hessian.
        terms, when given, are the _terms of x."""
        d2 = _DELTA**2
        e, az, nx2, nxs, offset = self._terms(x) if terms is None else terms
        r = az + offset
        f = nx2 + self.P * np.sum(r * r - d2, axis=1)
        if not derivatives:
            return f
        daz = np.einsum("bjrk,bjr->bjk", self.A, e) / az[..., None]
        dr = daz + (self.sigma / nxs[:, None])[..., None] * x[:, None, :]
        grad = 2 * x + 2 * self.P * np.einsum("bj,bjk->bk", r, dr)
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
        return f, grad, 2 * self.P * hess + 2 * eye

    def kinks(self, dx, grad, hess, tol, terms):
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
        at most tol (likewise for ||x||_d, against the unit curvature of ||x||^2).

        terms are the _terms of the current iterates.  Returns (settled per
        row, rows with a kink step, their steps or None when there are none).
        A row whose kink system is singular gets no kink step.
        """
        e, az, _, nxs, offset = terms
        r = az + offset
        moves = np.einsum("bjrk,bk->bjr", self.A, dx)
        crossed = (az > 10 * _DELTA) & (np.einsum("bjr,bjr->bj", e, e + moves) < 0)
        hidden = r * _DELTA**2 * np.sqrt(np.einsum("bjr,bjr->bj", moves, moves)) / az**3
        gain = self.P * np.sum(hidden**2, axis=1)
        rs = np.einsum("bj,bj->b", r, self.sigma)
        hidden = self.P * rs * _DELTA**2 * np.sqrt(np.einsum("bk,bk->b", dx, dx)) / nxs**3
        gain = gain + hidden**2
        settled = ~crossed.any(axis=1) & (gain <= tol)
        rows = np.flatnonzero(crossed.any(axis=1))
        if not len(rows):
            return settled, rows, None
        weight = np.where(crossed[rows], 2 * self.P * (_DELTA + offset[rows]) / _DELTA, 0.0)
        hess = hess[rows] + np.einsum("bj,bjkl->bkl", weight, self.AtA[rows])
        pull = np.einsum("bjrk,bjr->bjk", self.A[rows], e[rows])
        grad = grad[rows] + np.einsum("bj,bjk->bk", weight, pull)
        try:
            return settled, rows, -np.linalg.solve(hess, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:  # one singular system fails the whole batch
            ok = np.linalg.slogdet(hess)[0] != 0  # 0 where the LU factors meet a zero pivot
            return settled, rows[ok], -np.linalg.solve(hess[ok], grad[ok, :, None])[..., 0]


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
    any more.  Both tests use max(tol, 64 eps |f|) in place of tol, eps the
    machine epsilon: at high power f is so large that double precision
    cannot resolve a change of tol in it.  Returns the iterates and a
    per-problem flag that is False where the decrement never reached that
    within max_iter steps or before the problem stalled.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    sub = prob
    for _ in range(max_iter):
        xa = x[active]
        terms = sub._terms(xa)
        f, grad, hess = sub.evaluate(xa, derivatives=True, terms=terms)
        tol_f = np.maximum(tol, 64 * _EPS * np.abs(f))
        dx = -np.linalg.solve(hess, grad[..., None])[..., 0]
        slope = np.einsum("bk,bk->b", grad, dx)  # -lambda^2
        step = np.ones(len(active))
        f_new = sub.evaluate(xa + dx)
        # the rows failing the Armijo test halve their steps together (to a
        # shared t), and only they are evaluated again
        pending, part, t = np.flatnonzero(~(f_new <= f + _ARMIJO * slope)), sub, 1.0
        for _ in range(_MAX_HALVINGS - 1):
            if not len(pending):
                break
            if len(pending) < len(part.A):
                part = sub.take(pending)
            t *= 0.5
            f_try = part.evaluate(xa[pending] + t * dx[pending])
            ok = f_try <= f[pending] + _ARMIJO * t * slope[pending]
            step[pending[ok]], f_new[pending[ok]] = t, f_try[ok]
            pending = pending[~ok]
        f_new[pending] = f[pending]
        x_new = xa + step[:, None] * dx
        settled, rows, dk = sub.kinks(dx, grad, hess, tol_f, terms)
        if len(rows):
            f_kink = sub.take(rows).evaluate(xa[rows] + dk)
            lower = f_kink < f_new[rows]
            x_new[rows[lower]] = xa[rows[lower]] + dk[lower]
            f_new[rows[lower]] = f_kink[lower]
        moved = f_new < f
        x[active[moved]] = x_new[moved]
        small = -slope <= 2 * tol_f
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
    stage,
    cfg: SolverConfig | None = None,
    u0: np.ndarray | None = None,
    c=None,
    prune=None,
) -> np.ndarray:
    """Receive filter minimizing the worst-case residual objective.

    Convex in u for any CSI bound; solved by damped Newton steps on a
    smoothed copy of the objective (the smoothing vanishes identically when
    the bound is zero, so this must agree with the closed form there).  Each
    problem starts from the better of its warm start u0 (zero when not given)
    and the zero-bound closed form.  Index arrays k, l (and optional stage-two
    scalings c) fit a whole stack of independent decoders at once, and stage
    may then be an array too: one stage per row.

    prune, when given, is called before any Newton step as prune(lb, ub)
    with two bounds on the exact objective of each row's fit: lb, the
    minimum of its ridge minorant (_ridge_floor), and ub, the smoothed
    objective at its Newton start plus P J _DELTA^2.  Newton never raises
    the smoothed objective, even when capped, and the exact objective lies
    at most P J _DELTA^2 above the smoothed one.  The rows of the mask that
    prune returns are not fitted: their filters come back NaN, and they
    never count as capped.

    Raises NonConvergenceError, carrying every fitted filter in ``best`` and
    the fits that hit the cap in ``failed``, when some fit does not reach
    cfg.newton_tol within cfg.max_inner_iters Newton steps.
    """
    cfg = cfg or SolverConfig()
    w, b, nv = _decoders(ch, st, k, l, stage, c)
    shape, (J, N) = b.shape[:-1], w.shape[-2:]
    w, b, nv = w.reshape(-1, J, N), b.reshape(-1, J), nv.reshape(-1, J)
    prob = _Problems.from_complex(w.conj(), b.conj(), ch.epsilon * nv, st.P)
    starts = [
        np.broadcast_to(0.0 if u0 is None else u0, (len(w), N)),
        _least_squares_filters(w, b, st.P),
    ]
    starts = [np.concatenate([u.real, u.imag], axis=-1) for u in starts]
    f0, f1 = (prob.evaluate(x) for x in starts)
    x = np.where((f1 < f0)[:, None], starts[1], starts[0])
    ok = np.ones(len(x), dtype=bool)
    fit = ok.copy()
    if prune is not None:
        ub = np.minimum(f0, f1) + st.P * J * _DELTA**2
        fit = ~prune(_ridge_floor(w, b, nv, ch.epsilon, st.P), ub)
        x[~fit] = np.nan
    if fit.all():
        x, ok = _newton_batch(prob, x, cfg.newton_tol, cfg.max_inner_iters)
    elif fit.any():
        x[fit], ok[fit] = _newton_batch(prob.take(fit), x[fit], cfg.newton_tol, cfg.max_inner_iters)
    u = (x[:, :N] + 1j * x[:, N:]).reshape(shape + (N,))
    if not ok.all():
        kk, ll = (np.broadcast_to(i, shape).reshape(-1) for i in (k, l))
        raise NonConvergenceError(
            _fit_message(cfg, kk[~ok], ll[~ok]), best=u, failed=~ok.reshape(shape)
        )
    return u


def _ridge_floor(w: np.ndarray, b: np.ndarray, nv: np.ndarray, eps: float, P: float) -> np.ndarray:
    """Per stacked (w, b, nv), the minimum over u of the ridge minorant
    g(u) = ||u||^2 (1 + P eps^2 sum_j nv_j^2) + P sum_j |u^H w_j - b_j|^2.

    g lies below the robust objective everywhere, since (|r_j| + eps ||u||
    nv_j)^2 >= |r_j|^2 + eps^2 ||u||^2 nv_j^2, so its minimum bounds every
    fit from below.  g is evaluated at its closed-form minimizer, where a
    rounding error in u raises g only to second order.
    """
    weight = 1 + P * eps**2 * np.sum(nv**2, axis=-1)
    ridge = np.eye(w.shape[-1]) * (weight / P)[:, None, None]
    A = np.einsum("...ja,...jb->...ab", w, w.conj()) + ridge
    rhs = np.einsum("...j,...ja->...a", b.conj(), w)
    u = np.linalg.solve(A, rhs[..., None])[..., 0]
    z = np.einsum("...ja,...a->...j", w, u.conj()) - b
    return weight * vector_norms(u) ** 2 + P * np.sum(np.abs(z) ** 2, axis=-1)


def _fit_message(cfg: SolverConfig, k, l) -> str:
    # a stage-two refit batch has one row per candidate scaling of a decoder
    bad = sorted({(int(i), int(j)) for i, j in zip(k, l)})
    return (
        f"receive-filter Newton solve did not reach newton_tol within "
        f"{cfg.max_inner_iters} steps for decoders {bad}"
    )


def _scaling_value(ch, st, k, l, c):
    """f(c) of scaling_candidates: the stage-two objective of decoder (k, l)'s
    current utilde with scaling c."""
    return decorrelator_objective(ch, st, k, l, 2, st.utilde[k, l], c=c)


def scaling_candidates(ch: ChannelSet, st: DesignState, k, l):
    """Gaussian-integer scalings worth scoring for decoders (k, l).

    The scaling c of a decoder should minimize f(c), the stage-two objective
    of its current utilde as a function of c, which up to the noise term
    ||utilde||^2 and the factor P is sum_j (|q_j - c a_j| + eps ||v_j||
    ||utilde||)^2 with q_j the estimated post-filter gain minus the
    own-stream target.  The candidates are the Gaussian integers in the
    closed unit box around the weighted least-squares minimizer
    sum_j conj(a_j) q_j / sum_j |a_j|^2 of its CSI-bound-free part, real
    part major; the callers score them by f itself.  A decoder that decodes
    no aggregate gets the single candidate 1.

    Returns a complex array of shape broadcast(k, l) + (9,), NaN past each
    decoder's last candidate.
    """
    S = _Stack.of(ch, st)
    shape = np.broadcast(k, l).shape
    kk, ll = (np.broadcast_to(i, shape).reshape(-1) for i in (k, l))
    a = S.a[kk, ll].reshape(len(kk), -1)
    ut = S.utilde[kk, ll]
    q = np.einsum("...ja,...a->...j", S.w[kk], ut.conj()) - stage_targets(S, kk, ll, 2, c=0)
    live = np.any(a != 0, axis=1)

    c_ls = np.zeros(len(kk), dtype=complex)
    al, ql = a[live], q[live]
    c_ls[live] = np.sum(al.conj() * ql, axis=1) / np.sum(np.abs(al) ** 2, axis=1)

    # the closed unit box around c_ls holds 2 or 3 integers per axis; the
    # integer parts keep every candidate free of negative zeros
    xy = np.stack([c_ls.real, c_ls.imag])
    lo = np.ceil(xy - 1 - 1e-12).astype(int)
    n = np.floor(xy + 1 + 1e-12).astype(int) - lo + 1
    j = np.arange(9)[:, None]  # slot, real part major
    box = (lo[0] + j // n[1]) + 1j * (lo[1] + j % n[1])
    cands = np.where(j < n[0] * n[1], box, np.nan).T
    cands[~live] = np.nan
    cands[~live, 0] = 1.0
    return cands.reshape(shape + (9,))


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


def _fit_filters(ch, st, k, l, stage, cfg, u0, c=None, prune=None):
    """Candidate filters for a stack of decoders, and which fits hit the cap.
    prune applies to the robust fits alone (decorrelator_robust)."""
    none = np.zeros(len(k), dtype=bool)
    if ch.epsilon == 0:
        return decorrelator_closed_form(ch, st, k, l, stage, c), none
    try:
        return decorrelator_robust(ch, st, k, l, stage, cfg, u0=u0, c=c, prune=prune), none
    except NonConvergenceError as exc:
        return exc.best, exc.failed


def _stage2_joint_update(ch: ChannelSet, st, cfg: SolverConfig, kk, ll, k1=(), l1=()):
    """Best (scaling, stage-two filter) pair of decoders (kk, ll), written into st.

    Scoring a candidate scaling with the current filter understates it, and
    pure coordinate descent over (utilde, c) can lock onto whichever scaling
    the filter was first fitted to.  Each candidate is therefore scored by
    the objective of its own refit filter.  The current filter's f(c) over
    the decoder x candidate array of scaling_candidates, computed once, only
    ranks the candidates, and each decoder's four best-ranked candidates are
    refit.  A refit pair is written only where it beats the incumbent pair,
    whose scaling may lie outside the box, so no decoder's objective can
    increase.  Decoders do not interact here, so all refits of all decoders
    run as one batch, with the stage-one fits of decoders (k1, l1): stage
    one depends on neither utilde nor c.  A new u is written where it
    lowers its stage-one objective.

    The robust refits are bounded before they run (decorrelator_robust's
    prune): a candidate whose lower bound lies above both the incumbent's
    objective and the least upper bound among its decoder's candidates can
    be neither the decoder's best refit nor written, so it is not fitted and
    scores +inf.  The written pairs are those of refitting every candidate,
    bit for bit.  Stage-one fits are never pruned.

    Returns, per decoder, whether its scaling changed; then the decoders
    (k, l) of the stage-one and of the stage-two fits that hit the iteration
    cap.
    """
    cands = scaling_candidates(ch, st, kk, ll)
    # the NaN padding scores NaN, which a sort puts last
    proxy = _scaling_value(ch, st, kk[:, None], ll[:, None], cands)
    order = np.argsort(proxy, axis=1, kind="stable")[:, :4]
    cands = np.take_along_axis(cands, order, axis=1)
    ok = ~np.isnan(cands)
    owner = np.nonzero(ok)[0]
    kr, lr, cr = kk[owner], ll[owner], cands[ok]
    k1, l1 = np.asarray(k1, dtype=int), np.asarray(l1, dtype=int)
    n1, kf, lf = len(k1), np.concatenate([k1, kr]), np.concatenate([l1, lr])
    u0, cf = np.concatenate([st.u[k1, l1], st.utilde[kr, lr]]), np.concatenate([st.c[k1, l1], cr])
    f_cur = decorrelator_objective(ch, st, kk, ll, 2, st.utilde[kk, ll])

    def hopeless(lb, ub):
        top = f_cur.copy()  # each decoder's least upper bound on its write
        np.minimum.at(top, owner, ub[n1:])
        return np.concatenate([np.zeros(n1, dtype=bool), lb[n1:] > top[owner] * (1 + 1e-9)])

    stages = np.repeat([1, 2], [n1, len(kr)])
    u_fit, failed = _fit_filters(ch, st, kf, lf, stages, cfg, u0, cf, prune=hopeless)
    u1, u_g = u_fit[:n1], u_fit[n1:]
    f1 = decorrelator_objective(ch, st, *np.tile([k1, l1], 2), 1, np.concatenate([u1, u0[:n1]]))
    better = f1[:n1] < f1[n1:]
    st.u[k1[better], l1[better]] = u1[better]
    f_g = np.full(cands.shape, np.inf)
    f_g[ok] = decorrelator_objective(ch, st, kr, lr, 2, u_g, c=cr)
    f_g[np.isnan(f_g)] = np.inf  # the pruned refits
    u_all = np.zeros(cands.shape + u_g.shape[-1:], dtype=complex)
    u_all[ok] = u_g
    best = np.arange(len(kk)), np.argmin(f_g, axis=1)  # first of the best in rank order
    take = f_g[best] < f_cur
    changed = take & (cands[best] != st.c[kk, ll])
    st.c[kk[take], ll[take]] = cands[best][take]
    st.utilde[kk[take], ll[take]] = u_all[best][take]
    capped = [(k1[failed[:n1]], l1[failed[:n1]]), (kr[failed[n1:]], lr[failed[n1:]])]
    return changed, capped


def optimize_receivers(
    ch: ChannelSet, designs: list[DesignState], cfg: SolverConfig | None = None
) -> tuple[list[DesignState], list[str | None]]:
    """Receive-side block of each design: refit every u once, then alternate utilde and c.

    Precoders and combination coefficients stay fixed.  Each u is the exact
    (or Newton-refined) minimizer of its stage-one objective, fitted with the
    first sweep's stage-two refits; each (utilde, c) pair is improved jointly,
    and every update is accepted only if it lowers its objective, so no
    decoder's stage-one or stage-two rate bound falls.  A design's fixed
    point ends at the first sweep that changes none of its scalings: each
    stage-two fit is then already solved to newton_tol for its scaling.

    designs is a list of designs on this channel, whose decoders are rows of
    the same batches; each design keeps its own stop test and cap, so it gets
    the bits a call on it alone gives.  Returns (states, errors), one entry
    per design; errors holds None, or the message of the design's first
    cap: the fixed point's or a filter fit's.  No cap is raised.
    """
    cfg = cfg or SolverConfig()
    S = _Stack.of(ch, designs)
    K, L, n = S.K, S.L, len(designs)
    kk, ll = np.divmod(np.arange(len(S.c) * L), L)
    errs: list[str | None] = [None] * n  # each design's first capped fit

    def note(k, l):
        if not len(k):
            return
        design, user = S.split(k)
        for d in np.unique(design):
            mine = design == d
            errs[d] = errs[d] or "receive-side block: " + _fit_message(cfg, user[mine], l[mine])

    live = np.any(S.a != 0, axis=(2, 3)).reshape(-1)
    S.u[kk[~live], ll[~live]] = 0.0  # no aggregate to decode
    first = kk[live], ll[live]  # the stage-one fits, made with the first sweep

    running = np.ones(n, dtype=bool)
    for _ in range(cfg.max_inner_iters):
        rows = running[S.split(kk)[0]]
        changed, capped = _stage2_joint_update(ch, S, cfg, kk[rows], ll[rows], *first)
        first = ()
        for fits in capped:  # stage one's first
            note(*fits)
        running[running] = changed.reshape(-1, K * L).any(1)  # the running rows, in design order
        if not running.any():
            break

    cap = "receive-side fixed-point iteration hit the iteration cap"
    return S.designs(), [cap if running[d] else errs[d] for d in range(n)]


# ---------------------------------------------------------------------------
# transmit-side block (barrier method on the epigraph form)
# ---------------------------------------------------------------------------


def _transmit_objective(ch: ChannelSet, st: DesignState):
    """(fun_grad, x0): the transmit block's barrier objective and strictly feasible start.

    In real coordinates x = [t, Re v, Im v, Re a_free, Im a_free] (a_free: a
    off the own streams) both stages' residuals U^H H v - a and
    Utilde^H H v - (c a + e_own) are one affine map z = G x[1:] + z0 (real
    parts first), built here once.  fun_grad(x, q) is the value and gradient
    of t - (sum log(t - g) + sum log(1 - ||v_k||^2)) / q, with g the
    smoothed bounds, or big (1 + total violation) outside its domain, with
    big = max(_BIG, 1e20 t0) for the start's epigraph value t0.
    """
    K, L, M = st.v.shape
    KL, P, eps = K * L, st.P, ch.epsilon
    E = own_stream_indicator(K, L).reshape(KL, KL)
    free = np.flatnonzero(E.reshape(-1) == 0)
    n_v = KL * M
    d2 = _DELTA**2
    UU = np.stack([st.u, st.utilde])  # (stage, K, L, N)
    nf = vector_norms(UU)
    nf2, enf = nf**2, eps * nf
    # row (stage, k, l, j) of the complex map sees stream j = (i, n) through u_kl^H Hhat_ki
    Cv = np.zeros((2, K, L, KL, KL, M), dtype=complex)
    j, f = np.arange(KL), np.arange(len(free))
    Cv[..., j, j, :] = np.repeat(np.einsum("kiab,skla->sklib", ch.Hhat, UU.conj()), L, axis=3)
    Cv = Cv.reshape(-1, n_v)
    Ca = np.zeros((2 * KL * KL, len(free)), dtype=complex)
    Ca[free, f] = -1.0
    Ca[KL * KL + free, f] = -np.repeat(st.c.reshape(-1), KL)[free]
    W = np.concatenate([Cv, 1j * Cv, Ca, 1j * Ca], axis=1)  # complex z of the real x[1:]
    G = np.concatenate([W.real, W.imag])
    z0 = np.concatenate([np.zeros(KL * KL), -E.reshape(-1), np.zeros(2 * KL * KL)])

    def bounds_of(x):
        """Residuals z (re/im, stage, K, L, K*L), precoders v (re/im, K*L, M), smoothed
        |z| and |z| + worst-case offset, stream norms, |v|^2 and bounds g (stage, K, L)."""
        z = (G @ x[1:] + z0).reshape(2, 2, K, L, KL)
        v = x[1 : 1 + 2 * n_v].reshape(2, KL, M)
        # |v|^2 as |complex|^2, since the power slack at the start is ~1e-8
        n2 = np.abs(v[0] + 1j * v[1]) ** 2
        nvs = np.sqrt(n2.sum(axis=-1) + d2)
        Hs = np.sqrt(z[0] ** 2 + z[1] ** 2 + d2)
        HS = Hs + enf[..., None] * nvs
        g = nf2 + P * np.sum(HS**2 - d2, axis=-1)
        return z, v, Hs, HS, nvs, n2, g

    def fun_grad(x, q):
        t = x[0]
        z, v, Hs, HS, nvs, n2, g = bounds_of(x)
        s = t - g
        ps = 1.0 - n2.reshape(K, L * M).sum(axis=1)
        if s.min() > 0 and ps.min() > 0:
            lam, lamp = 1.0 / (q * s), 1.0 / (q * ps)
            F = t - (np.sum(np.log(s)) + np.sum(np.log(ps))) / q
            gt = 1.0 - lam.sum()
        else:
            lam, lamp = big * (s <= 0), big * (ps <= 0)
            viol = sum(np.sum(np.maximum(-y, 0)) for y in (s[0], s[1], ps))
            F = big * (1.0 + viol)
            gt = -lam.sum()
        grad = G.T @ ((2 * P) * lam[..., None] * (HS / Hs) * z).reshape(-1)
        # the worst-case offsets and the power budget act on the stream norms
        e = P * (lam * enf).reshape(-1) @ HS.reshape(-1, KL)
        grad[: 2 * n_v] += (2 * (e / nvs + np.repeat(lamp, L))[:, None] * v).reshape(-1)
        return F, np.concatenate([[gt], grad])

    # strictly feasible start: nudge any user off the unit power budget,
    # then open the epigraph slightly above the current worst bound
    V0 = st.v.copy()
    for k in range(K):
        p = float(np.sum(np.abs(V0[k]) ** 2))
        if p >= 1 - 1e-9:
            V0[k] *= np.sqrt((1 - 1e-8) / p)
    af = st.a.reshape(-1)[free]
    x0 = np.concatenate([[0.0], V0.real.ravel(), V0.imag.ravel(), af.real, af.imag])
    m0 = float(bounds_of(x0)[-1].max())
    x0[0] = m0 + max(1e-4, 0.02 * (1 + abs(m0)))
    # outside the domain every value must exceed those inside, which the
    # bounds of a large P eps^2 can take above _BIG
    big = max(_BIG, 1e20 * x0[0])
    return fun_grad, x0


# Each barrier stage runs the unbounded path of L-BFGS-B (Byrd, Lu, Nocedal &
# Zhu, SIAM J. Sci. Comput. 16(5), 1995) with its constants: 10 correction
# pairs, a first trial step of at most 1e10 and 20 trials per line search.
_MEMORY = 10
_STEP_MAX = 1e10
_MAX_TRIALS = 20
# The minimize iterations of each barrier stage: the transmit block's own
# budget, since max_inner_iters caps only the receive side.
_STAGE_ITERS = 750


@dataclass(frozen=True)
class Minimum:
    """minimize's result: the last iterate x, its value fun, the number of
    accepted iterations nit and why the iteration stopped."""

    x: np.ndarray
    fun: float
    nit: int
    message: str


def minimize(fun, x0, maxiter: int, ftol: float, gtol: float) -> Minimum:
    """Minimize fun (x -> (value, gradient)) from x0 by limited-memory BFGS.

    The direction is -H g, with H the inverse Hessian model of the last 10
    accepted pairs (s, y) on s'y / y'y of the newest pair (_direction), or
    -g while the memory is empty; a pair whose s'y, taken as the step times
    the change of the slope g'd, is not above eps * |g's| (eps the machine
    epsilon) is not kept.  A Moré–Thuente line
    search (_line_search) takes the step, from a first trial of
    min(1 / ||g||, 1e10) and of 1 afterwards.  A failed search clears the
    memory and the iteration goes on from -g, or stops when the memory was
    already empty.  It stops once nit reaches maxiter, max |g| <= gtol, or
    an iteration lowers f by at most ftol * max(|f_old|, |f|, 1): the stop
    rules of L-BFGS-B without bounds, whose iterates it matches up to
    rounding.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    f, nit, h0 = float(f), 0, 1.0
    pairs = deque(maxlen=_MEMORY)  # (s, y, s'y), oldest first
    if np.max(np.abs(g)) <= gtol:
        return Minimum(x, f, nit, "gradient below gtol")
    while True:
        d = _direction(g, pairs, h0) if pairs else -g
        gd = float(g @ d)
        step = None
        if gd < 0:  # else d is no descent direction, which counts as a failed search
            stp0 = min(1.0 / np.linalg.norm(d), _STEP_MAX) if nit == 0 else 1.0
            step = _line_search(fun, x, d, f, gd, stp0)
        if step is None:
            if not pairs:
                return Minimum(x, f, nit, "line search failed")
            pairs.clear()
            continue
        f_old, g_old = f, g
        stp, x, f, g, gd_new = step
        nit += 1
        if nit >= maxiter:
            return Minimum(x, f, nit, "iteration limit reached")
        if np.max(np.abs(g)) <= gtol:
            return Minimum(x, f, nit, "gradient below gtol")
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return Minimum(x, f, nit, "relative reduction of f below ftol")
        sy = stp * (gd_new - gd)
        if sy > _EPS * stp * -gd:
            y = g - g_old
            h0 = sy / float(y @ y)
            pairs.append((stp * d, y, sy))


def _direction(g, pairs, h0):
    """-H g for the limited-memory BFGS inverse Hessian H of the pairs (rows
    s, y of S and Y, and their s'y) on h0 I, in the compact form of Byrd,
    Nocedal & Schnabel (Math. Program. 63, 1994, Thm 2.2):
    H = h0 I + [S' h0 Y'] W [S; h0 Y] with W = [[R^-T (D + h0 Y Y') R^-1,
    -R^-T], [-R^-1, 0]], R the upper triangle of S Y' and D its diagonal.
    As in L-BFGS-B, that diagonal holds the s'y that passed the update test,
    so R is invertible.  H g equals the two-loop recursion up to rounding,
    in a few matrix products instead of 4 per pair."""
    S, Y, D = (np.array(part) for part in zip(*pairs))
    R = np.triu(S @ Y.T, 1) + np.diag(D)
    z = np.linalg.solve(R, S @ g)
    yz = Y.T @ z
    top = np.linalg.solve(R.T, D * z + h0 * (Y @ (yz - g)))
    return h0 * (yz - g) - S.T @ top


# The line search below is adapted from MINPACK-2's dcsrch and dcstep, as
# ported to Python in SciPy's scipy/optimize/_dcsrch.py (BSD-3-Clause):
#     MINPACK-1 Project. June 1983.
#     Argonne National Laboratory.
#     Jorge J. More' and David J. Thuente.
#
#     MINPACK-2 Project. November 1993.
#     Argonne National Laboratory and University of Minnesota.
#     Brett M. Averick, Richard G. Carter, and Jorge J. More'.
# It runs on Python floats, which overflow to inf without a warning where the
# _BIG values outside the barrier's domain meet the cubic fits.


def _line_search(fun, x, d, f0, g0, stp):
    """Moré–Thuente search (ACM TOMS 20(3), 1994) along d from x, where fun
    has value f0 and slope g0 < 0, with L-BFGS-B's constants: sufficient
    decrease 1e-3, curvature 0.9, interval tolerance 0.1 and steps in
    [0, 1e10].  Like L-BFGS-B it keeps the last trial once the search
    converges or can make no more progress.  Returns (step, x, f, gradient,
    slope) there, or None after 20 trials without that."""
    ftol, gtol, xtol = 1e-3, 0.9, 0.1
    gtest = ftol * g0
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    stmin, stmax = 0.0, 5.0 * stp
    width, width1 = _STEP_MAX, 2.0 * _STEP_MAX
    brackt, stage1 = False, True
    for _ in range(_MAX_TRIALS):
        xt = x + stp * d
        f, grad = fun(xt)
        f, gd = float(f), float(grad @ d)
        ftest = f0 + stp * gtest
        stage1 = stage1 and not (f <= ftest and gd >= 0)
        if (
            brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= xtol * stmax)
            or stp == _STEP_MAX and f <= ftest and gd <= gtest
            or stp == 0.0 and (f > ftest or gd >= gtest)
            or f <= ftest and abs(gd) <= gtol * -g0
        ):
            return stp, xt, f, grad, gd
        if stage1 and ftest < f <= fx:
            # step on psi(stp) = f(stp) - stp * gtest, as in the first stage of dcsrch
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, gd - gtest, brackt, stmin, stmax,
            )
            fx, fy, gx, gy = fxm + stx * gtest, fym + sty * gtest, gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, gd, brackt, stmin, stmax
            )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width, width1 = abs(sty - stx), width
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STEP_MAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= xtol * stmax):
            stp = stx
    return None


def _cubic_gamma(theta, da, db):
    """The root term of the cubic through two steps with slopes da and db.  Its
    radicand is floored at 0, as dcstep does in its third case only; elsewhere a
    negative one would make the step NaN."""
    s = max(abs(theta), abs(da), abs(db))
    return s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of the Moré–Thuente search: the new interval
    (stx, fx, dx, sty, fy, dy), the next trial step and whether a minimizer
    is bracketed."""
    opposite = (dp < 0) != (dx < 0) and dp != 0 and dx != 0
    theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp  # of the cubic through stx and stp
    if fp > fx:
        # a higher value: the minimum is bracketed; take the cubic step if it
        # is closer to stx than the quadratic one, else their average
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp < stx else 1.0)
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # a lower value and slopes of opposite sign: bracketed; take the cubic
        # step if it is farther from stp than the secant step
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, slopes of one sign, and the slope shrinks
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        # a lower value, slopes of one sign, and the slope does not shrink
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp) * (-1.0 if stp > sty else 1.0)
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def optimize_precoders(
    ch: ChannelSet, st: DesignState, cfg: SolverConfig | None = None
) -> tuple[DesignState, float]:
    """Transmit-side block: minimize the epigraph bound t over (v, a, t).

    With the receive filters and integer scalings fixed, every residual term
    is affine in (v, a), so bounding each decoder's effective noise power by
    t and keeping each user's power at most 1 (solve's unit budget) is a
    convex feasibility region.  Both stages' residuals are one real affine
    map of the real coordinates of (v, a), built once per call
    (_transmit_objective), so each barrier evaluation is one product with
    that map and one with its transpose.  A standard log-barrier sweep
    (multiplier nu per stage, stopped when the barrier duality gap drops
    below barrier_tol or after the first stage that stalls at one iteration
    or less) minimizes t; each stage is one minimize call (limited-memory
    BFGS, at most _STAGE_ITERS iterations, ftol 1e-15, gtol newton_tol).
    The combination coefficients are relaxed to arbitrary complex values
    here; solve rounds them when it accepts the step.

    Returns the updated state and the final epigraph value.
    """
    cfg = cfg or SolverConfig()
    K, L, M = st.v.shape
    fun_grad, x = _transmit_objective(ch, st)
    q = 1.0
    n_constraints = 2 * K * L + K
    while True:
        res = minimize(
            functools.partial(fun_grad, q=q),
            x,
            maxiter=_STAGE_ITERS,
            ftol=1e-15,
            gtol=cfg.newton_tol,
        )
        x = res.x
        # n / q bounds the duality gap only at a centred point, which a stage
        # of at most one iteration did not reach; the stages after it stall too
        if n_constraints / q < cfg.barrier_tol or res.nit <= 1:
            break
        q *= cfg.barrier_nu
    n_v = K * L * M
    v, af = x[1 : 1 + 2 * n_v].reshape(2, K, L, M), x[1 + 2 * n_v :].reshape(2, -1)
    out = st.copy()
    out.v = v[0] + 1j * v[1]
    out.a = np.zeros_like(st.a)
    out.a[own_stream_indicator(K, L) == 0] = af[0] + 1j * af[1]
    return out, float(x[0])


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


def _onto_budget(V: np.ndarray) -> np.ndarray:
    """A copy of the (K, L, M) precoders V with each user's power rescaled to
    1, or ConfigurationError naming a user whose power is zero or not finite."""
    V = np.array(V, dtype=complex)
    for k in range(len(V)):
        power = np.sum(np.abs(V[k]) ** 2)
        if not (np.isfinite(power) and power > 0):
            raise ConfigurationError(f"user {k} precoder power {float(power)!r} is not in (0, inf)")
        V[k] *= np.sqrt(1 / power)
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
        V = _onto_budget(complex_gaussian(rng, (K, L, M)))
    elif strategy == "identity_like":
        V = np.zeros((K, L, M), dtype=complex)
        V[:, np.arange(L), np.arange(L) % M] = 1.0
        V = _onto_budget(V)
    elif strategy == "ia_seed":
        from .baselines import conventional_ia_design

        design = conventional_ia_design(ch.Hhat, L)
        if design is None:
            raise ConfigurationError(
                "ia_seed needs the 3-user geometry with M == N even and L == M/2"
            )
        # baseline designs store streams as unit-norm matrix columns (K, M, L)
        V = design[0].transpose(0, 2, 1) * np.sqrt(1 / L)
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


def _round_coefficients(st: DesignState) -> DesignState:
    """A copy of st with each relaxed coefficient rounded to the nearest Gaussian
    integer, and each coefficient vector then divided by its common divisor.

    A shared divisor r (norm > 1) wastes aggregate-decoding rate: the pair
    (u/r, a/r) decodes a strictly finer combination at higher rate while
    c -> c r leaves the stage-two targets untouched.
    """
    out = st.copy()
    out.a = np.round(st.a.real) + 1j * np.round(st.a.imag)
    K, L = st.K, st.L
    re, im = (x.reshape(K, L, -1).tolist() for x in (out.a.real, out.a.imag))
    for k in range(K):
        for l in range(L):
            ints = tuple(GaussianInt(int(x), int(y)) for x, y in zip(re[k][l], im[k][l]))
            vec = CoeffVector(entries=ints, own_index=k * L + l)
            r = common_divisor(vec)
            if r is None:
                continue
            reduced = [exact_div(e, r) for e in vec.entries]
            out.a[k, l] = np.array([complex(e) for e in reduced]).reshape(K, L)
            out.c[k, l] = out.c[k, l] * complex(r)
            out.u[k, l] = out.u[k, l] / complex(r)
    return out


def _alternate(ch: ChannelSet, solver: SolverConfig, st: DesignState, err: str | None):
    """The alternating solve of one design from its first receive block:
    that block's state st and error message err (None when it converged).
    Every state it keeps is integral and divisor-free, and its r_min never
    falls.  Returns (state, report, trace), or raises PowerBudgetError for a
    user of the state above its unit budget."""
    trace = SolveTrace()
    report = rate_report(ch, st)
    trace.add(0, "receivers", report.r_min)
    for step in range(1, solver.max_outer_iters + 1):
        if err is not None:
            break
        st_cand, _ = optimize_precoders(ch, st, solver)
        if rate_report(ch, st_cand).r_min <= report.r_min:
            trace.add(step, "precoders", report.r_min)
            trace.stop_reason = "transmit step rejected"
            break
        (st_cand,), (err,) = optimize_receivers(ch, [_round_coefficients(st_cand)], solver)
        rep_cand = rate_report(ch, st_cand)
        if rep_cand.r_min < report.r_min:
            trace.add(step, "precoders", report.r_min)
            trace.stop_reason = "rounded transmit step rejected"
            break
        gain = rep_cand.r_min - report.r_min
        st, report = st_cand, rep_cand
        trace.add(step, "precoders", report.r_min)
        if gain <= solver.rate_tol * max(1.0, abs(report.r_min)):
            trace.stop_reason = "rate_tol reached"
            break
    else:
        trace.converged = False
        trace.stop_reason = "max_outer_iters reached"
    if err is not None:
        trace.converged = False
        trace.stop_reason = f"optimize_receivers: {err}"
    for k in range(st.K):
        if st.power(k) > 1 + 1e-9:
            raise PowerBudgetError(k, st.power(k))
    return st, report, trace


def _check_problem(ch: ChannelSet, cfg: SystemConfig) -> None:
    """Raise ConfigurationError where cfg does not fit ch or the solver's range."""
    if (ch.K, ch.M, ch.N) != (cfg.K, cfg.M, cfg.N):
        raise ConfigurationError(
            f"channel dimensions {(ch.K, ch.M, ch.N)} do not match config "
            f"{(cfg.K, cfg.M, cfg.N)}"
        )
    if cfg.epsilon != ch.epsilon:
        raise ConfigurationError(
            f"config epsilon {cfg.epsilon!r} does not match the channel's {ch.epsilon!r}"
        )
    check_carried(cfg.P, cfg.epsilon)


def _check_starts(cfg: SystemConfig, starts: list[DesignState]) -> None:
    """Raise ConfigurationError unless starts is a non-empty list of designs
    with cfg's P, the shapes cfg gives each field, and finite entries."""
    if not starts:
        raise ConfigurationError("init_state is an empty list; solve needs a start design")
    K, L, M, N = cfg.K, cfg.L, cfg.M, cfg.N
    for st in starts:
        if st.P != cfg.P:
            raise ConfigurationError(f"start design has P={st.P!r}, config P={cfg.P!r}")
        for name, shape in zip(_FIELDS, ((K, L, M), (K, L, N), (K, L, N), (K, L, K, L), (K, L))):
            x = getattr(st, name)
            if x.shape != shape or not np.isfinite(x).all():
                what = f"shape {x.shape}, not {shape}" if x.shape != shape else "a non-finite entry"
                raise ConfigurationError(f"start design field {name} has {what}")


class SolveTraces(list):
    """The traces of a solve over a list of designs, one per design."""

    @property
    def converged(self) -> bool:
        """Whether every design converged."""
        return all(tr.converged for tr in self)


def solve(
    ch: ChannelSet,
    cfg: SystemConfig,
    solver: SolverConfig | None = None,
    init_state: DesignState | list[DesignState] | None = None,
):
    """Full alternating solve of the robust max-min design.

    Alternates the receive-side and transmit-side blocks from init_state, or
    from initial_state(ch, cfg) when none is given, with its coefficients
    first rounded to Gaussian integers and common divisors divided out
    (_round_coefficients).  A transmit step is accepted only when it raises
    r_min; it is then rounded the same way and its receive refit kept only
    when its r_min is at least the current one, so the trace of r_min never
    falls and ends at the returned r_min.  The loop stops at the first
    rejected step or refit (the state is then the receive block's own
    output, and another sweep would repeat the same rejected barrier
    solve), at a receive block that hits its iteration cap, or once a kept
    step raised r_min by at most rate_tol (relative to max(1, |r_min|)).
    Every design has a unit power budget per user and per-stream power
    cfg.P.

    Returns (state, report, trace); trace.converged is False when the outer
    loop or a sub-block hit its iteration budget, and trace.stop_reason says
    why the loop stopped.  Raises ConfigurationError when cfg's dimensions or
    epsilon differ from the channel's, when P or epsilon lie outside the
    range the solver carries (check_carried), when init_state is an empty
    list, or when a start's P or shapes do not fit cfg or an entry of it is
    not finite; PowerBudgetError for a design above the unit budget.

    init_state may also be a list of start designs.  One optimize_receivers
    call over all of them makes their first receive blocks; then each start
    runs its own loop, transmit steps, acceptance tests and rounding, with a
    one-design call for each later receive block.  Every design
    gets the bits a solve of it alone gives.  Returns three lists (states,
    reports, traces), with traces a SolveTraces.  An error is raised for the
    first design in list order that raises one; later starts are not run.
    """
    solver = solver or SolverConfig()
    _check_problem(ch, cfg)
    single = not isinstance(init_state, (list, tuple))
    starts = [init_state] if single else list(init_state)
    starts = [initial_state(ch, cfg) if st0 is None else st0 for st0 in starts]
    _check_starts(cfg, starts)
    states, errors = optimize_receivers(ch, [_round_coefficients(st0) for st0 in starts], solver)
    results = [_alternate(ch, solver, st, err) for st, err in zip(states, errors)]
    if single:
        return results[0]
    return [r[0] for r in results], [r[1] for r in results], SolveTraces(r[2] for r in results)


def _objective_key(st: DesignState, report: RateReport, objective: str) -> float:
    if objective == "worst":
        return report.r_min
    if objective == "sum":
        return float(np.sum(np.maximum(per_stream_rates(report, st.a), 0.0)))
    raise ConfigurationError(f"unknown objective {objective!r}")


def state_from_precoders(cfg: SystemConfig, V: np.ndarray) -> DesignState:
    """Design state around precoders V: no aggregate decoding, c = 1.

    V has the layout of DesignState.v, one row per stream (K, L, M); each
    user's power is rescaled onto the unit budget.
    """
    V = np.asarray(V)
    if V.shape != (cfg.K, cfg.L, cfg.M):
        raise ConfigurationError(f"precoders must have shape {(cfg.K, cfg.L, cfg.M)}")
    return _blank_state(cfg, _onto_budget(V))


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

    Each entry of extra_precoders, (K, L, M) like DesignState.v, adds one
    start with those precoders and zero coefficients.  Its first receive
    block never trails any fixed-filter single-user rate for those
    precoders, and solve returns no less r_min than that block, converged
    or not, so a known-good design such as an alignment solution floors the
    returned r_min; with objective="sum" that block is no candidate.

    All starts run in one solve call, which batches their first receive
    blocks, each with the result a solve of it alone gives; the first start
    with the best objective is returned.
    """
    _check_problem(ch, cfg)  # before the starts are built
    starts = _starts(ch, cfg, n_starts)
    starts += [state_from_precoders(cfg, V) for V in extra_precoders]
    results = zip(*solve(ch, cfg, solver, init_state=starts))
    return max(results, key=lambda r: _objective_key(r[0], r[1], objective))


def _starts(ch: ChannelSet, cfg: SystemConfig, n_starts: int) -> list[DesignState]:
    """The start designs of multi_start (see there), in order."""
    if not (is_integer(n_starts) and n_starts >= 1):
        raise ConfigurationError(f"n_starts must be a positive integer, got {n_starts!r}")
    starts = [initial_state(ch, cfg, "identity_like")]
    if n_starts > 1:
        try:
            starts.append(initial_state(ch, cfg, "ia_seed"))
        except ConfigurationError:
            pass  # no alignment seed for this geometry
    for child in np.random.SeedSequence(cfg.seed).spawn(n_starts - len(starts)):
        starts.append(initial_state(ch, cfg, "random_unit", seed=int(child.generate_state(1)[0])))
    return starts
