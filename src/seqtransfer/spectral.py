"""Spectral estimation of the task models and the task-transition matrix.

Multi-view moment estimation, whitening, robust tensor power decomposition,
parameter recovery with simplex repair, column alignment, and the
h-dependent error-bound schedule.

An observation is one solved task's empirical reward and transition
frequencies (``EmpiricalModel.frequencies``), flattened by
``ObservationLayout.vectorize``; the pipeline reads only these vectors.
``ObservationLayout.unpack``, over any leading batch axes, is the one
split of observations back into reward and transition blocks.

The pipeline splits into a deterministic stage and a random one.
``whitened_moments`` (moments, whitening, whitened third moment) draws no
random numbers and reads only whole observation triples.  It signs each
whitening column by the whitened third moment, so the result does not
depend on the signs ``eigh`` picks.
``rtp_decompose`` draws every random start of a component in one call,
before any iteration, and power-iterates all restarts as one stack.  Each
restart stops at the first step that moves none of its entries by more
than ``RTP_STEP_TOL``; the iteration count is only a cap, and no draw
depends on when a restart stops.

Observations live in dimension d = S*A*(S+U), which can be large, so each
view (the first, second or third observations of the m triples) is handled
in coordinates of its own row span, of rank r_i <= min(m, d).  With m < d
they come from the eigendecomposition of the view's m x m Gram matrix
X_i X_i^T; otherwise they are the view's rows.  Each cross-view covariance
is then an r_i x r_j core between two views' coordinates.  The orthonormal
bases behind the coordinates change no singular value, so each truncated
pseudo-inverse is the core's, cut at the same ``PINV_RCOND`` and rank cap.
Views 1 and 2 are mapped into view-3 coordinates, where M2, its whitening
and the whitened third moment live; recovery maps the observation matrix
back through the view-2 basis and the third views' conditional means
through the view-3 basis.  A d-dimensional basis is only ever applied to k
columns, never formed.  One estimate costs O(m^2 d + m^3): three m x m Gram
matrices (3 m^2 d multiply-adds) and factorizations of matrices no larger
than m x m, where one basis for all 3m observations would take a 3m x 3m
Gram matrix (9 m^2 d) and 3m x 3m factorizations (27 m^3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .mdp import TabularMdp

PINV_RCOND = 1e-10
# Whitening needs k eigenvalues of M2 above this fraction of the larger of
# its largest eigenvalue and 1.
WHITEN_RTOL = 1e-12
# A power-iteration step that moves no entry of a vector by more than this
# leaves the vector at its fixed point, up to rounding.
RTP_STEP_TOL = 1e-12


class DegenerateMomentsError(RuntimeError):
    """Empirical moments lost the rank needed for recovery."""


class DecompositionFailureError(RuntimeError):
    """The tensor power method found no positive eigenvalue."""


@dataclass(frozen=True)
class ObservationLayout:
    """Fixed (s, a, u) then (s, a, s') row-major layout of an observation."""

    num_states: int
    num_actions: int
    num_rewards: int

    @property
    def dim(self) -> int:
        S, A, U = self.num_states, self.num_actions, self.num_rewards
        return S * A * (S + U)

    @property
    def reward_dim(self) -> int:
        return self.num_states * self.num_actions * self.num_rewards

    def vectorize(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Concatenate [vec(q); vec(p)] over the trailing (S, A, .) axes;
        leading axes are batch axes."""
        q, p = np.asarray(q), np.asarray(p)
        batch = q.shape[:-3]
        return np.concatenate([q.reshape(batch + (-1,)), p.reshape(batch + (-1,))],
                              axis=-1)

    def unpack(self, vec: np.ndarray):
        """Inverse of vectorize over the trailing axis; leading axes are
        batch axes.  Returns (q (..., S, A, U), p (..., S, A, S))."""
        S, A, U = self.num_states, self.num_actions, self.num_rewards
        vec = np.asarray(vec)
        if vec.shape[-1:] != (self.dim,):
            raise ValueError(f"observation must have dimension {self.dim}")
        batch = vec.shape[:-1]
        return (vec[..., :self.reward_dim].reshape(batch + (S, A, U)),
                vec[..., self.reward_dim:].reshape(batch + (S, A, S)))


def project_simplex(raw: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize along the last axis; a row that clips
    to zero everywhere becomes uniform."""
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        raise ValueError("empty vector")
    clipped = np.maximum(raw, 0.0)
    total = clipped.sum(axis=-1, keepdims=True)
    empty = total <= 0.0
    return np.where(empty, 1.0, clipped) / np.where(empty, raw.shape[-1], total)


def _truncated_pinv(mat: np.ndarray, rank: int | None = None) -> np.ndarray:
    """SVD pseudo-inverse with relative cutoff and optional rank cap."""
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise DegenerateMomentsError("zero covariance matrix")
    keep = s > PINV_RCOND * s[0]
    if rank is not None:
        keep &= np.arange(s.size) < rank
    if not np.any(keep):
        raise DegenerateMomentsError("covariance rank collapsed")
    return vt[keep].T @ np.diag(1.0 / s[keep]) @ u[:, keep].T


@dataclass
class MomentSet:
    """Second/third-moment estimates from m observation triples, one row of
    each view per triple.

    View i's rows X_i (m x d) are c_i B_i^T, with coordinates c_i (m x r_i)
    and an orthonormal basis B_i (d x r_i) of their span (``_view_coordinates``).
    The cross-view covariance sigma[(i, j)] = E[o_i o_j^T] is then
    B_i (c_i^T c_j / m) B_j^T.  The transformed views, ``m2`` and the
    whitening live in view-3 coordinates, so the full form of ``m2`` is
    B_3 m2 B_3^T; ``recovery`` maps view-3 to view-2 coordinates, and its
    full form is B_2 recovery B_3^T.  ``to_full`` applies B_2 or B_3 as
    ``X_i^T @ weights[i]``, or the identity when the weights are None; the
    bases are never formed.
    """

    observations: np.ndarray     # (3m, d) the observations of the triples
    weights: dict                # view 2, 3 -> (m, r_i) basis weights or None
    view1: np.ndarray            # (m, r3) first views in view-3 coordinates
    view2: np.ndarray            # (m, r3) second views in view-3 coordinates
    view3: np.ndarray            # (m, r3) third views' own coordinates
    m2: np.ndarray               # (r3, r3) symmetrized second cross moment
    # (r2, r3) sigma[(2, 1)] @ pinv(sigma[(3, 1)]) at the rank cap: maps the
    # third views' conditional means to the observation matrix.
    recovery: np.ndarray

    def to_full(self, view: int, reduced: np.ndarray) -> np.ndarray:
        """Map the rows of an (r_view, ...) array from the coordinates of
        view 2 or 3 to observation coordinates."""
        weights = self.weights[view]
        if weights is None:
            return reduced
        return self.observations[view - 1::3].T @ (weights @ reduced)

    def whitened_third_moment(self, w_reduced: np.ndarray) -> np.ndarray:
        """Contract the implicit third moment with W on all modes, then
        symmetrize; returns a k x k x k tensor."""
        a = self.view1 @ w_reduced
        b = self.view2 @ w_reduced
        c = self.view3 @ w_reduced
        t = np.einsum("li,lj,lk->ijk", a, b, c) / len(self.view3)
        return symmetrize_tensor(t)


def symmetrize_tensor(t: np.ndarray) -> np.ndarray:
    """Average over the six mode permutations of a cubic tensor."""
    return (
        t
        + t.transpose(0, 2, 1)
        + t.transpose(1, 0, 2)
        + t.transpose(1, 2, 0)
        + t.transpose(2, 0, 1)
        + t.transpose(2, 1, 0)
    ) / 6.0


def _view_coordinates(view: np.ndarray):
    """Coordinates of the rows of ``view`` (m x d) in an orthonormal basis
    of their span, and the weights that give that basis from the rows.

    With m < d the coordinates are ``V sqrt(L)`` from the eigenpairs of the
    m x m Gram matrix ``view @ view.T`` above ``m * eps`` of the largest,
    and the basis is ``view.T @ V / sqrt(L)``; otherwise the coordinates
    are the rows themselves and the weights None (the identity basis).
    """
    m, d = view.shape
    if m >= d:
        return view, None
    vals, vecs = np.linalg.eigh(view @ view.T)
    keep = vals > m * np.finfo(float).eps * vals[-1]
    vals, vecs = vals[keep], vecs[:, keep]
    roots = np.sqrt(vals)
    return vecs * roots, vecs / roots


def estimate_moments(observations, rank: int) -> MomentSet:
    """Cross-view covariances and cross moments from consecutive triples.

    ``rank`` caps the pseudo-inverse rank of the view-transformation
    covariances and of the recovery map (low-rank pre-truncation): the
    number of hidden tasks, which ``recover_parameters`` assumes.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2 or obs.shape[0] < 3:
        raise ValueError("need at least 3 observations")
    m = obs.shape[0] // 3
    trimmed = obs[: 3 * m]

    (o1, _), (o2, w2), (o3, w3) = (_view_coordinates(trimmed[i::3])
                                   for i in range(3))

    # The cores of the cross-view covariances sigma[(i, j)].  Near the rank
    # cap, pinv(s12)^T differs from pinv(s21) by more than rounding.
    s12, s21 = o1.T @ o2 / m, o2.T @ o1 / m
    s31, s32 = o3.T @ o1 / m, o3.T @ o2 / m

    view1 = o1 @ _truncated_pinv(s12, rank).T @ s32.T
    view2 = o2 @ _truncated_pinv(s21, rank).T @ s31.T
    m2 = view1.T @ view2 / m
    m2 = (m2 + m2.T) / 2.0
    recovery = s21 @ _truncated_pinv(s31, rank)
    return MomentSet(
        observations=trimmed, weights={2: w2, 3: w3},
        view1=view1, view2=view2, view3=o3, m2=m2, recovery=recovery,
    )


def whiten(m2: np.ndarray, k: int):
    """Whitening matrix from the top-k eigenpairs of a symmetric PSD matrix.

    Returns W with W^T m2 W = I_k.  Raises when fewer than k eigenvalues
    clear ``WHITEN_RTOL`` (empirical rank deficiency).
    """
    vals, vecs = np.linalg.eigh(m2)
    order = np.argsort(vals)[::-1][:k]
    top_vals = vals[order]
    if top_vals.size < k or np.any(top_vals <= WHITEN_RTOL * max(vals.max(), 1.0)):
        raise DegenerateMomentsError(
            f"second moment has fewer than {k} usable eigenvalues"
        )
    return vecs[:, order] / np.sqrt(top_vals)


def _orient_whitening(w: np.ndarray, t3: np.ndarray):
    """Flip each whitening column w_i, and the matching modes of the
    whitened third moment, so that T(w_i, w_i, w_i) = t3[i, i, i] >= 0.

    ``eigh`` picks each eigenvector's sign arbitrarily, and the RTP starts
    are drawn in whitened coordinates; after this rule a column's sign no
    longer depends on that choice, bit for bit.
    """
    diag = np.arange(w.shape[1])
    signs = np.where(t3[diag, diag, diag] < 0.0, -1.0, 1.0)
    return w * signs, t3 * signs[:, None, None] * signs[:, None] * signs


def _power_iterate(t3: np.ndarray, v: np.ndarray, iters: int) -> np.ndarray:
    """Power-iterate every row of the (r, d) stack ``v`` on the tensor, for
    at most ``iters`` steps.

    A row stops once one step moves none of its entries by more than
    ``RTP_STEP_TOL``, and keeps the value that step gave it.  A row whose
    image is zero keeps its value and so stops at once.  Only the rows
    still moving are iterated, so each row's result is the one it would
    reach alone, bit for bit; row norms are ``sqrt(vecdot)``, which agrees
    bit for bit with the norm of a single vector.
    """
    v = v.copy()
    live = np.arange(v.shape[0])
    for _ in range(iters):
        cur = v[live]
        w = np.einsum("ijk,rj,rk->ri", t3, cur, cur)
        norms = np.sqrt(np.vecdot(w, w))[:, None]
        step = np.divide(w, norms, out=cur.copy(), where=norms != 0.0)
        v[live] = step
        live = live[np.max(np.abs(step - cur), axis=1) > RTP_STEP_TOL]
        if live.size == 0:
            break
    return v


def _cubic_form(t3: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(v, v, v) for every row of the (r, d) stack ``v``."""
    return np.einsum("ijk,ri,rj,rk->r", t3, v, v, v)


def rtp_decompose(t3: np.ndarray, k: int, restarts: int, iters: int, rng):
    """Robust tensor power method: restarted, deflated power iteration.

    For each component all restarts are iterated as one (restarts, d)
    stack; the restart with the largest |eigenvalue| (the first, on a tie)
    is refined by more iterations and deflated.  ``iters`` caps each of
    the two iterations; a vector stops earlier once a step leaves it in
    place to within ``RTP_STEP_TOL`` (``_power_iterate``).  Each component
    draws one (restarts, d) block of normals from ``rng`` before it
    iterates.  Returns k (eigenvalue, eigenvector) pairs with positive
    eigenvalues, the sign absorbed into the eigenvector.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iterations must be at least 1")
    t3 = np.asarray(t3, dtype=float)
    dim = t3.shape[0]
    pairs = []
    work = t3.copy()
    for _ in range(k):
        v0 = rng.standard_normal((restarts, dim))
        v0 /= np.sqrt(np.vecdot(v0, v0))[:, None]
        v = _power_iterate(work, v0, iters)
        lams = _cubic_form(work, v)
        best = int(np.argmax(np.abs(lams)))
        if not abs(lams[best]) > 0.0:   # zero or NaN
            raise DecompositionFailureError("no positive eigenvalue found")
        start = v[best] if lams[best] >= 0 else -v[best]
        v = _power_iterate(work, start[None, :], iters)
        lam = float(_cubic_form(work, v)[0])
        v = v[0]
        if lam < 0:
            lam, v = -lam, -v
        if lam <= 0.0:
            raise DecompositionFailureError("deflation exhausted the spectrum")
        pairs.append((lam, v))
        work = work - lam * np.einsum("i,j,k->ijk", v, v, v)
    return pairs


@dataclass
class HmmEstimate:
    """Estimated observation matrix and task-transition matrix."""

    observation: np.ndarray      # (d, k), columns are flattened models
    transition: np.ndarray       # (k, k), column-stochastic after projection
    layout: ObservationLayout


def recover_parameters(moments: MomentSet, eigpairs, w_reduced: np.ndarray,
                       layout: ObservationLayout) -> HmmEstimate:
    """Back out the observation and transition matrices from RTP eigenpairs.

    ``w_reduced`` must be the whitening matrix in the moment set's view-3
    coordinates, and the moment set must be built with its rank capped at
    the number of eigenpairs.  Every (s, a) block of every column is
    repaired onto the simplex.
    """
    lams = np.array([lam for lam, _ in eigpairs])
    vecs = np.stack([v for _, v in eigpairs], axis=1)  # (k, k)
    k = lams.shape[0]
    wt_pinv = _truncated_pinv(w_reduced.T)             # (r3, k) pseudo-inverse of W^T
    mu3_reduced = wt_pinv @ (vecs * lams[None, :])     # (r3, k), view-3 coordinates
    obs_full = moments.to_full(2, moments.recovery @ mu3_reduced)  # (d, k)
    trans = _truncated_pinv(obs_full, k) @ moments.to_full(3, mu3_reduced)

    # Rows of C-contiguous copies of obs_full.T and trans.T are their
    # columns; projecting a strided transpose would sum in another order.
    cols = np.ascontiguousarray(obs_full.T)            # (k, d)
    rewards, moves = (project_simplex(x) for x in layout.unpack(cols))
    obs_proj = np.ascontiguousarray(layout.vectorize(rewards, moves).T)
    trans_proj = np.ascontiguousarray(
        project_simplex(np.ascontiguousarray(trans.T)).T
    )
    return HmmEstimate(observation=obs_proj, transition=trans_proj, layout=layout)


def align_columns(new: HmmEstimate, reference) -> np.ndarray:
    """Permutation perm with new column perm[j] matching column j of the
    (d, k) matrix ``reference``.

    Solved as an exact assignment over the column-distance cost matrix.
    """
    ref = np.asarray(reference)
    if ref.shape != new.observation.shape:
        raise ValueError("dimension mismatch between estimate and reference")
    k = ref.shape[1]
    cost = np.empty((k, k))
    for j in range(k):
        cost[j] = np.linalg.norm(new.observation - ref[:, j:j + 1], axis=0)
    _, perm = linear_sum_assignment(cost)
    return perm


def apply_permutation(est: HmmEstimate, perm: np.ndarray) -> HmmEstimate:
    """Relabel the estimate so column j becomes old column perm[j]."""
    perm = np.asarray(perm, dtype=int)
    return HmmEstimate(
        observation=est.observation[:, perm],
        transition=est.transition[np.ix_(perm, perm)],
        layout=est.layout,
    )


def whitened_moments(observations, k: int):
    """The deterministic stage of the pipeline: moments, whitening and the
    whitened third moment.

    Returns ``(moments, W, T3)``, with each column of W signed so that its
    diagonal entry of T3 is non-negative.  It draws no random numbers and
    reads only the first ``3 * (len(observations) // 3)`` observations.
    """
    moments = estimate_moments(observations, rank=k)
    w = whiten(moments.m2, k)
    return (moments,) + _orient_whitening(w, moments.whitened_third_moment(w))


def spectral_estimate(observations, k: int, layout: ObservationLayout,
                      restarts: int, iters: int, rng,
                      reference=None) -> HmmEstimate:
    """Full pipeline: moments, whitening, RTP, recovery, optional alignment.

    ``restarts``, ``iters`` and ``rng`` go to ``rtp_decompose``, whose
    normals are the only draws: a successful estimate draws k blocks of
    (restarts, k).  ``reference``, a (d, k) matrix, relabels the estimate's
    columns to match its own (``align_columns``).  Raises
    ``DegenerateMomentsError`` or ``DecompositionFailureError`` when the
    moments lose rank or RTP finds no positive eigenvalue.
    """
    moment_set, w, t3 = whitened_moments(observations, k)
    pairs = rtp_decompose(t3, k, restarts=restarts, iters=iters, rng=rng)
    est = recover_parameters(moment_set, pairs, w, layout)
    if reference is not None:
        est = apply_permutation(est, align_columns(est, reference))
    return est


def estimate_errors(est: HmmEstimate, o_true: np.ndarray, t_true: np.ndarray):
    """Worst column error of the observation matrix (2-norm) and worst entry
    error of the transition matrix, of an aligned estimate against the
    ground truth."""
    o_err = float(np.max(np.linalg.norm(est.observation - o_true, axis=0)))
    t_err = float(np.max(np.abs(est.transition - t_true)))
    return o_err, t_err


def unpack_models(est: HmmEstimate, reward_support, gamma: float):
    """One TabularMdp per column of the estimated observation matrix;
    ``TabularMdp`` rejects a support whose length is not the layout's."""
    return [TabularMdp(p=p, reward_support=reward_support, q=q, gamma=gamma)
            for q, p in zip(*est.layout.unpack(est.observation.T))]


def model_error_bound(h: int, rho: float, delta_prime: float, S: int, A: int,
                      U: int) -> float:
    """The h-dependent error bound of every channel of the estimated models:
    rho * sqrt(log(pi^2 h^2 S A (S+U) / delta_prime) / h)."""
    if h < 1:
        raise ValueError("h must be at least 1")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError("delta_prime must be in (0, 1)")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    c = math.pi ** 2 * h * h * S * A * (S + U) / delta_prime
    return float(rho) * math.sqrt(math.log(c) / h)
