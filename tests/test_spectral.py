"""Unit tests for the spectral learner: moments, RTP, recovery, alignment."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtransfer.envs import TaskChain
from seqtransfer.harness import random_hmm_family, simulate_hmm_observations
from seqtransfer.mdp import TabularMdp
from seqtransfer.ptum import EmpiricalModel
from seqtransfer.spectral import (
    RTP_STEP_TOL,
    DecompositionFailureError,
    DegenerateMomentsError,
    HmmEstimate,
    ObservationLayout,
    _orient_whitening,
    _power_iterate,
    _truncated_pinv,
    _view_coordinates,
    align_columns,
    apply_permutation,
    estimate_moments,
    model_error_bound,
    project_simplex,
    recover_parameters,
    rtp_decompose,
    spectral_estimate,
    symmetrize_tensor,
    unpack_models,
    whiten,
    whitened_moments,
)


class TestLayout:
    def test_minimal_layout(self):
        layout = ObservationLayout(1, 1, 2)
        vec = layout.vectorize(np.array([[[0.3, 0.7]]]), np.array([[[1.0]]]))
        assert layout.dim == 3
        assert np.array_equal(vec, [0.3, 0.7, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        layout = ObservationLayout(3, 2, 4)
        q = rng.dirichlet(np.ones(4), size=(3, 2))
        p = rng.dirichlet(np.ones(3), size=(3, 2))
        q2, p2 = layout.unpack(layout.vectorize(q, p))
        assert np.array_equal(q, q2)
        assert np.array_equal(p, p2)

    def test_batched_vectorize_stacks_single_calls(self):
        rng = np.random.default_rng(15)
        layout = ObservationLayout(3, 2, 4)
        q = rng.dirichlet(np.ones(4), size=(2, 5, 3, 2))
        p = rng.dirichlet(np.ones(3), size=(2, 5, 3, 2))
        got = layout.vectorize(q, p)
        assert got.shape == (2, 5, layout.dim)
        want = np.stack([np.stack([layout.vectorize(q[i, j], p[i, j])
                                   for j in range(5)]) for i in range(2)])
        assert np.array_equal(got, want)

    def test_objectworld_dimension(self):
        assert ObservationLayout(25, 4, 12).dim == 3700

    def test_vectorize_requires_samples(self):
        emp = EmpiricalModel(2, 1, [0.0, 1.0])
        emp.add_counts([0, 1], [0, 1], at=(0, 0))   # one sample: state 1, reward 1
        with pytest.raises(ValueError):
            emp.frequencies()
        with pytest.raises(ValueError):
            emp.to_mdp(0.9)

    def test_vectorize_empirical_frequencies(self):
        emp = EmpiricalModel(1, 1, [0.0, 1.0])
        emp.add_counts([2], [1, 1], at=(0, 0))   # two samples: rewards 1 and 0
        vec = ObservationLayout(1, 1, 2).vectorize(*emp.frequencies())
        assert np.array_equal(vec, [0.5, 0.5, 1.0])


def full_matrix(mom, reduced, rows, cols):
    """A matrix from view-``cols`` to view-``rows`` coordinates, in
    observation coordinates: B_rows reduced B_cols^T."""
    return mom.to_full(rows, mom.to_full(cols, reduced.T).T)


def dense_moments(obs):
    """M2 and the recovery map of the first 3m observations, computed
    naively with d x d covariances and their pseudo-inverses."""
    m = len(obs) // 3
    o1, o2, o3 = obs[0:3 * m:3], obs[1:3 * m:3], obs[2:3 * m:3]
    s12, s21 = o1.T @ o2 / m, o2.T @ o1 / m
    s31, s32 = o3.T @ o1 / m, o3.T @ o2 / m
    v1 = (s32 @ np.linalg.pinv(s12, rcond=1e-10) @ o1.T).T
    v2 = (s31 @ np.linalg.pinv(s21, rcond=1e-10) @ o2.T).T
    m2 = v1.T @ v2 / m
    return (m2 + m2.T) / 2, s21 @ np.linalg.pinv(s31, rcond=1e-10)


def assert_matches_dense_oracle(obs):
    """The per-view pipeline gives the oracle's M2 and recovery map.  The
    rank cap m bounds every covariance's rank, so it cuts nothing the dense
    pseudo-inverses keep."""
    m, d = len(obs) // 3, obs.shape[1]
    mom = estimate_moments(obs, rank=m)
    for view in (2, 3):
        assert (mom.weights[view] is None) == (m >= d)
    m2, recovery = dense_moments(obs)
    assert np.allclose(full_matrix(mom, mom.m2, 3, 3), m2, atol=1e-8)
    assert np.allclose(full_matrix(mom, mom.recovery, 2, 3), recovery, atol=1e-8)
    return mom, m2


class TestMoments:
    def test_identical_observations(self):
        # Fewer triples than dimensions, then more.  Every covariance is
        # o o^T, so M2 is o o^T and the recovery map projects onto o.
        o = np.arange(1.0, 9.0)
        for obs in (np.tile(o, (6, 1)), np.tile(o, (24, 1))):
            mom = estimate_moments(obs, rank=1)
            assert np.allclose(full_matrix(mom, mom.m2, 3, 3), np.outer(o, o))
            assert np.allclose(full_matrix(mom, mom.recovery, 2, 3),
                               np.outer(o, o) / (o @ o))

    def test_leftover_observations_discarded(self):
        rng = np.random.default_rng(1)
        obs = rng.normal(size=(7, 5))
        mom = estimate_moments(obs, rank=2)
        assert len(mom.observations) == 6
        assert len(mom.view1) == len(mom.view2) == len(mom.view3) == 2

    def test_needs_three_observations(self):
        with pytest.raises(ValueError):
            estimate_moments(np.zeros((2, 4)), rank=1)

    def test_reduced_basis_matches_dense_oracle(self):
        # With at least as many triples as dimensions each view's rows are
        # its coordinates; with fewer, Gram coordinates, also when all
        # observations together span the space (m < d <= 3m).
        rng = np.random.default_rng(2)
        for shape in ((45, 12), (30, 20), (30, 50)):
            assert_matches_dense_oracle(rng.normal(size=shape) + 3.0)

    def test_duplicated_observations_in_one_view(self):
        # Four distinct second views among ten: view 2 has rank 4, so its
        # Gram matrix is singular and its coordinates drop the null space.
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(30, 50)) + 3.0
        obs[1::3] = obs[1::3][[0, 1, 2, 3, 0, 0, 1, 2, 3, 3]]
        mom, _ = assert_matches_dense_oracle(obs)
        assert mom.recovery.shape == (4, 10)

    def test_view_of_lower_rank_than_the_others(self):
        # The third views span two dimensions and the others ten: the
        # moments are the oracle's, and whitening at rank 3 fails as the
        # oracle's M2 of rank 2 must.
        rng = np.random.default_rng(33)
        obs = rng.normal(size=(30, 50)) + 3.0
        obs[2::3] = rng.dirichlet(np.ones(2), size=10) @ rng.normal(size=(2, 50))
        mom, m2 = assert_matches_dense_oracle(obs)
        assert mom.view3.shape == (10, 2)
        assert np.linalg.matrix_rank(m2) == 2
        with pytest.raises(DegenerateMomentsError):
            whitened_moments(obs, 3)

    def test_gram_coordinates_drop_the_null_space(self):
        # Ten draws from ten distinct rows in dimension 50: each view's
        # coordinates have the rank of its distinct rows, their basis is
        # orthonormal and gives the rows back, and the moment set applies
        # that basis.
        rng = np.random.default_rng(19)
        obs = rng.normal(size=(10, 50))[rng.integers(0, 10, size=30)]
        mom = estimate_moments(obs, rank=10)
        for view in (1, 2, 3):
            rows = obs[view - 1::3]
            coords, weights = _view_coordinates(rows)
            rank = len(np.unique(rows, axis=0))
            basis = rows.T @ weights
            assert coords.shape == (10, rank) and basis.shape == (50, rank)
            assert np.allclose(basis.T @ basis, np.eye(rank), atol=1e-10)
            assert np.allclose(coords @ basis.T, rows, atol=1e-10)
            if view > 1:
                assert np.allclose(mom.to_full(view, np.eye(rank)), basis,
                                   atol=1e-12)

    def test_zero_observations_lose_the_rank(self):
        with pytest.raises(DegenerateMomentsError):
            estimate_moments(np.zeros((6, 10)), rank=2)

    def test_no_factorization_larger_than_a_view(self, monkeypatch):
        # With 3m < d the deterministic stage and recovery factorize only
        # m x m Gram matrices, cores of at most m x m, and matrices with
        # k columns: no factorized matrix has both sides above max(m, k).
        seen = []

        def spy(fn):
            def factorize(a, *args, **kwargs):
                seen.append((fn.__name__, np.shape(a)))
                return fn(a, *args, **kwargs)
            return factorize

        for name in ("eigh", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        k, layout = 3, ObservationLayout(5, 2, 3)
        rng = np.random.default_rng(34)
        fam, chain = random_hmm_family(k, 5, 2, 3, 0.9, rng)
        obs, _ = simulate_hmm_observations(fam, chain, 60, 20, rng)
        m = len(obs) // 3
        assert 3 * m < layout.dim
        moments, w, t3 = whitened_moments(obs, k)
        pairs = rtp_decompose(t3, k, restarts=10, iters=30, rng=rng)
        recover_parameters(moments, pairs, w, layout)
        assert {name for name, _ in seen} >= {"eigh", "svd"}
        assert not [shape for _, shape in seen if min(shape[-2:]) > max(m, k)]


class TestWhiten:
    def test_identity_matrix(self):
        w = whiten(np.eye(4), 4)
        assert np.allclose(w.T @ np.eye(4) @ w, np.eye(4), atol=1e-10)

    def test_diagonal_case(self):
        w = whiten(np.diag([4.0, 1.0, 0.0]), 2)
        assert np.allclose(np.abs(w[:, 0]), [0.5, 0, 0], atol=1e-12)
        assert np.allclose(np.abs(w[:, 1]), [0, 1, 0], atol=1e-12)

    def test_random_rank_k_identity(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(8, 3))
        m2 = b @ b.T
        w = whiten(m2, 3)
        assert np.linalg.norm(w.T @ m2 @ w - np.eye(3)) < 1e-6

    def test_rank_deficiency_signalled(self):
        with pytest.raises(DegenerateMomentsError):
            whiten(np.diag([1.0, 0.0, 0.0]), 2)

    def test_orientation_ignores_eigenvector_signs(self):
        # Whatever signs eigh gave the columns of W, the oriented W and T3
        # are the same bits, and every diagonal entry of T3 is
        # non-negative.
        rng = np.random.default_rng(32)
        obs = rng.dirichlet(np.ones(12), size=60)
        moments, w, t3 = whitened_moments(obs, 4)
        diag = np.arange(4)
        assert np.all(t3[diag, diag, diag] >= 0.0)
        raw = whiten(moments.m2, 4)
        for flips in ([0], [3], [1, 2], [0, 1, 2, 3]):
            flipped = raw.copy()
            flipped[:, flips] *= -1.0
            got_w, got_t3 = _orient_whitening(
                flipped, moments.whitened_third_moment(flipped))
            assert got_w.tobytes() == w.tobytes()
            assert got_t3.tobytes() == t3.tobytes()


class TestRtp:
    def test_exact_rank_one(self):
        e1 = np.zeros(3); e1[0] = 1.0
        t3 = 2.0 * np.einsum("i,j,k->ijk", e1, e1, e1)
        pairs = rtp_decompose(t3, 1, restarts=10, iters=50, rng=np.random.default_rng(4))
        lam, v = pairs[0]
        assert lam == pytest.approx(2.0, abs=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-9)

    def test_exact_orthogonal_rank_two(self):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        u, w = basis[:, 0], basis[:, 1]
        t3 = 3.0 * np.einsum("i,j,k->ijk", u, u, u) + np.einsum("i,j,k->ijk", w, w, w)
        pairs = rtp_decompose(t3, 2, restarts=20, iters=100, rng=rng)
        lams = sorted(lam for lam, _ in pairs)
        assert lams[0] == pytest.approx(1.0, abs=1e-8)
        assert lams[1] == pytest.approx(3.0, abs=1e-8)
        for lam, v in pairs:
            target = u if abs(lam - 3.0) < 0.5 else w
            assert abs(v @ target) >= 1 - 1e-8

    def test_zero_tensor_fails(self):
        with pytest.raises(DecompositionFailureError):
            rtp_decompose(np.zeros((3, 3, 3)), 1, restarts=100, iters=100,
                          rng=np.random.default_rng(6))

    @staticmethod
    def reference_rtp(t3, k, restarts, iters, rng, stop=True):
        """One restart and one vector at a time: the loop the batched
        rtp_decompose replaced, kept as its reference.  With ``stop`` each
        vector stops after the first step that moves no entry by more than
        ``RTP_STEP_TOL``; without it every vector runs all ``iters`` steps."""
        def power(work, v):
            for _ in range(iters):
                w = np.einsum("ijk,j,k->i", work, v, v)
                norm = np.linalg.norm(w)
                if norm == 0.0:
                    return v
                v, last = w / norm, v
                if stop and np.max(np.abs(v - last)) <= RTP_STEP_TOL:
                    return v
            return v

        pairs, work = [], t3.copy()
        for _ in range(k):
            best_val, best_vec = -math.inf, None
            for _ in range(restarts):
                v0 = rng.standard_normal(t3.shape[0])
                v0 /= np.linalg.norm(v0)
                v = power(work, v0)
                lam = float(np.einsum("ijk,i,j,k->", work, v, v, v))
                if abs(lam) > best_val:
                    best_val, best_vec = abs(lam), (v if lam >= 0 else -v)
            v = power(work, best_vec)
            lam = float(np.einsum("ijk,i,j,k->", work, v, v, v))
            if lam < 0:
                lam, v = -lam, -v
            pairs.append((lam, v))
            work = work - lam * np.einsum("i,j,k->ijk", v, v, v)
        return pairs

    @staticmethod
    def noisy_orthogonal(k, noise, rng):
        """A rank-k orthogonal tensor plus symmetric Gaussian noise, like a
        whitened third moment."""
        basis, _ = np.linalg.qr(rng.normal(size=(k, k)))
        lams = rng.uniform(0.5, 3.0, size=k)
        t3 = np.einsum("j,ij,kj,lj->ikl", lams, basis, basis, basis)
        return t3 + symmetrize_tensor(rng.normal(scale=noise, size=(k, k, k)))

    @pytest.mark.parametrize("k, restarts", [(3, 50), (8, 20)])
    def test_batched_restarts_match_reference_loop(self, k, restarts):
        # Bit for bit, with the same number of draws from the generator, on
        # noisy orthogonal tensors like the whitened third moments.
        for seed in range(5):
            t3 = self.noisy_orthogonal(k, 0.05, np.random.default_rng(100 + seed))
            got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
            got = rtp_decompose(t3, k, restarts=restarts, iters=50, rng=got_rng)
            want = self.reference_rtp(t3, k, restarts, 50, want_rng)
            assert np.array_equal([lam for lam, _ in got], [lam for lam, _ in want])
            assert np.array_equal(np.stack([v for _, v in got]),
                                  np.stack([v for _, v in want]))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_stop_rule_stays_at_the_fixed_step_result(self, k):
        # Stopping a converged vector changes the decomposition only at
        # rounding level against running every vector all 50 steps.  The
        # noise stays at or below 0.05: near 0.2 a 1-ulp change to the
        # tensor already moves the fixed-step result by order 1.
        for seed in range(20):
            rng = np.random.default_rng(300 + 20 * k + seed)
            t3 = self.noisy_orthogonal(k, rng.uniform(0.0, 0.05), rng)
            got = rtp_decompose(t3, k, restarts=20, iters=50,
                                rng=np.random.default_rng(seed))
            want = self.reference_rtp(t3, k, 20, 50, np.random.default_rng(seed),
                                      stop=False)
            for (lam, v), (lam_ref, v_ref) in zip(got, want, strict=True):
                assert abs(lam - lam_ref) <= 1e-12
                assert np.max(np.abs(v - v_ref)) <= 1e-12

    def test_stacked_rows_stop_as_they_would_alone(self):
        # Rows that settle after different numbers of steps, in one stack,
        # end bit for bit where each ends when iterated by itself.
        rng = np.random.default_rng(31)
        t3 = self.noisy_orthogonal(6, 0.05, rng)
        starts = rng.standard_normal((30, 6))
        starts /= np.linalg.norm(starts, axis=1)[:, None]
        got = _power_iterate(t3, starts, 50)
        alone = [_power_iterate(t3, row[None, :], 50)[0] for row in starts]
        assert np.array_equal(got, np.stack(alone))
        # The step at which each row's result is reached differs by row.
        settled = {next(n for n in range(1, 51)
                        if np.array_equal(_power_iterate(t3, row[None, :], n)[0],
                                          end))
                   for row, end in zip(starts, alone)}
        assert len(settled) > 1

    def test_two_cycle_runs_every_step(self):
        # T = e1 x e2 x e2 + e2 x e1 x e1 swaps e1 and e2, so no step is
        # still: each row runs to the cap and ends on its parity.
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        t3 = (np.einsum("i,j,k->ijk", e1, e2, e2)
              + np.einsum("i,j,k->ijk", e2, e1, e1))
        start = np.stack([e1, e2])
        for iters in (1, 2, 49, 50):
            want = start[::-1] if iters % 2 else start
            assert np.array_equal(_power_iterate(t3, start, iters), want)

    def test_power_iterate_keeps_rows_with_zero_image(self):
        # e2 is mapped to 0 by e1 x e1 x e1 and stays put, while e1 is a
        # fixed point; neither row disturbs the other.
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        t3 = np.einsum("i,j,k->ijk", e1, e1, e1)
        got = _power_iterate(t3, np.stack([e2, e1]), 10)
        assert np.array_equal(got, np.stack([e2, e1]))

    def test_symmetrize(self):
        rng = np.random.default_rng(7)
        t = rng.normal(size=(3, 3, 3))
        s = symmetrize_tensor(t)
        assert np.allclose(s, s.transpose(1, 0, 2))
        assert np.allclose(s, s.transpose(0, 2, 1))


class TestSimplex:
    def test_hand_example(self):
        got = project_simplex(np.array([0.5, 0.6, -0.1]))
        assert np.allclose(got, [0.5 / 1.1, 0.6 / 1.1, 0.0])
        assert got[0] == pytest.approx(0.45455, abs=1e-5)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        x = project_simplex(rng.normal(size=6))
        assert np.allclose(project_simplex(x), x)

    def test_all_nonpositive_gives_uniform(self):
        assert np.allclose(project_simplex(np.array([-1.0, 0.0, -2.0])), 1 / 3)

    def test_batched_rows_match_single_rows(self):
        # Bit for bit, rows of every length, including one that clips to
        # zero everywhere and must become uniform.
        rng = np.random.default_rng(16)
        for width in (1, 3, 8, 12, 25):
            raw = rng.normal(size=(4, 3, width))
            raw[1, 2] = -np.abs(raw[1, 2])
            got = project_simplex(raw)
            for i in range(4):
                for j in range(3):
                    assert np.array_equal(got[i, j], project_simplex(raw[i, j]))
            assert np.array_equal(got[1, 2], np.full(width, 1.0 / width))

    def test_order_preserving(self):
        x = np.array([0.1, 0.4, 0.2, 0.3])
        y = project_simplex(x * 5)
        assert np.array_equal(np.argsort(y), np.argsort(x))


class TestAlignment:
    @staticmethod
    def make_estimate(obs_matrix):
        k = obs_matrix.shape[1]
        return HmmEstimate(
            observation=obs_matrix,
            transition=np.eye(k),
            layout=ObservationLayout(1, 1, obs_matrix.shape[0] - 1),
        )

    def test_identity(self):
        rng = np.random.default_rng(9)
        o = rng.uniform(size=(6, 3))
        est = self.make_estimate(o)
        assert np.array_equal(align_columns(est, o), [0, 1, 2])

    def test_swap(self):
        rng = np.random.default_rng(10)
        o = rng.uniform(size=(6, 3))
        est = self.make_estimate(o[:, [1, 0, 2]])
        perm = align_columns(est, o)
        assert np.array_equal(perm, [1, 0, 2])
        aligned = apply_permutation(est, perm)
        assert np.allclose(aligned.observation, o)

    def test_planted_permutation_with_noise(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(100):
            o = rng.uniform(size=(10, 4))
            perm = rng.permutation(4)
            noisy = o[:, perm] + rng.normal(scale=0.01, size=(10, 4))
            est = self.make_estimate(noisy)
            got = align_columns(est, o)
            hits += bool(np.array_equal(np.argsort(got), np.argsort(np.argsort(perm)))
                         or np.allclose(noisy[:, got], o, atol=0.1))
        assert hits >= 99

    def test_dimension_mismatch(self):
        est = self.make_estimate(np.ones((4, 2)) / 2)
        with pytest.raises(ValueError):
            align_columns(est, np.ones((5, 2)))


class TestRecovery:
    def test_noiseless_k2_pipeline(self):
        rng = np.random.default_rng(12)
        fam, chain = random_hmm_family(2, 2, 2, 2, 0.9, rng)
        layout = ObservationLayout(2, 2, 2)
        o_true = np.stack([layout.vectorize(m.q, m.p) for m in fam], axis=1)
        path = [0]
        for _ in range(30_000):
            path.append(int(rng.choice(2, p=chain.transition[:, path[-1]])))
        obs = o_true[:, np.array(path)].T
        est = spectral_estimate(obs, 2, layout, restarts=20, iters=60,
                                rng=rng, reference=o_true)
        assert np.max(np.abs(est.observation - o_true)) < 0.05
        assert np.max(np.abs(est.transition - chain.transition)) < 0.05

    @staticmethod
    def qr_reference_observation(obs, k, layout, rng, restarts, iters):
        """The pipeline in an explicit orthonormal QR basis of the observation
        span, as ``estimate_moments`` once ran it, kept as the reference for
        the Gram coordinates: the projected observation matrix."""
        m = len(obs) // 3
        x = obs[:3 * m]
        basis, _ = np.linalg.qr(x.T)
        coords = x @ basis
        o1, o2, o3 = coords[0::3], coords[1::3], coords[2::3]
        s12, s21 = o1.T @ o2 / m, o2.T @ o1 / m
        s31, s32 = o3.T @ o1 / m, o3.T @ o2 / m
        view1 = o1 @ _truncated_pinv(s12, k).T @ s32.T
        view2 = o2 @ _truncated_pinv(s21, k).T @ s31.T
        m2 = view1.T @ view2 / m
        w = whiten((m2 + m2.T) / 2.0, k)
        a, b, c = view1 @ w, view2 @ w, o3 @ w
        t3 = symmetrize_tensor(np.einsum("li,lj,lk->ijk", a, b, c) / m)
        w, t3 = _orient_whitening(w, t3)
        pairs = rtp_decompose(t3, k, restarts=restarts, iters=iters, rng=rng)
        mu3 = _truncated_pinv(w.T) @ np.stack([lam * v for lam, v in pairs], axis=1)
        cols = (basis @ s21 @ _truncated_pinv(s31, k) @ mu3).T
        S, A, U = layout.num_states, layout.num_actions, layout.num_rewards
        rewards = project_simplex(cols[:, :layout.reward_dim].reshape(k, S, A, U))
        moves = project_simplex(cols[:, layout.reward_dim:].reshape(k, S, A, S))
        return layout.vectorize(rewards, moves).T

    def test_gram_coordinates_match_the_qr_basis(self):
        # Objectworld-sized observations (d = 3700) from fewer triples than
        # dimensions: the per-view Gram coordinates recover the observation
        # matrix of one QR basis of all observations to rounding.
        rng = np.random.default_rng(20)
        fam, chain = random_hmm_family(3, 25, 4, 12, 0.9, rng)
        layout = ObservationLayout(25, 4, 12)
        obs, _ = simulate_hmm_observations(fam, chain, 91, 20, rng)
        assert layout.dim == obs.shape[1] == 3700
        want = self.qr_reference_observation(obs, 3, layout,
                                             np.random.default_rng(21), 20, 50)
        est = spectral_estimate(obs, 3, layout, restarts=20, iters=50,
                                rng=np.random.default_rng(21), reference=want)
        assert np.max(np.abs(est.observation - want)) < 1e-9

    @staticmethod
    @functools.cache
    def hmm_observations(k):
        """Observations of a k-task synthetic HMM."""
        rng = np.random.default_rng(40 + k)
        fam, chain = random_hmm_family(k, 2, 2, 2, 0.9, rng)
        return simulate_hmm_observations(fam, chain, 600, 50, rng)[0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_estimate_draws_one_normal_block(self, k, restarts, seed):
        # A successful estimate's only draws are the RTP starts, k blocks of
        # (restarts, k) normals: a caller that skips an estimate keeps the
        # stream by drawing the same block.
        rng = np.random.default_rng(seed)
        spectral_estimate(self.hmm_observations(k), k, ObservationLayout(2, 2, 2),
                          restarts=restarts, iters=5, rng=rng)
        skipped = np.random.default_rng(seed)
        skipped.standard_normal((k, restarts, k))
        assert rng.bit_generator.state == skipped.bit_generator.state
        assert rng.random() == skipped.random()

    def test_transition_columns_stochastic(self):
        rng = np.random.default_rng(13)
        fam, chain = random_hmm_family(3, 2, 2, 2, 0.9, rng)
        layout = ObservationLayout(2, 2, 2)
        obs, _ = simulate_hmm_observations(fam, chain, 600, 30, rng)
        est = spectral_estimate(obs, 3, layout, restarts=20, iters=50, rng=rng)
        assert np.allclose(est.transition.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(est.transition >= 0)
        # Every (s, a)-block of every observation column is a distribution.
        for j in range(3):
            q, p = layout.unpack(est.observation[:, j])
            assert np.allclose(q.sum(axis=2), 1.0, atol=1e-9)
            assert np.allclose(p.sum(axis=2), 1.0, atol=1e-9)


class TestErrorBound:
    def test_zero_rho(self):
        assert model_error_bound(10, 0.0, 0.1, 5, 4, 12) == 0.0

    def test_rate_improves(self):
        b1 = model_error_bound(100, 1.0, 0.1, 5, 4, 12)
        b4 = model_error_bound(400, 1.0, 0.1, 5, 4, 12)
        assert b4 / b1 < 0.6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            model_error_bound(0, 1.0, 0.1, 5, 4, 12)
        with pytest.raises(ValueError):
            model_error_bound(10, 1.0, 1.5, 5, 4, 12)
        with pytest.raises(ValueError):
            model_error_bound(10, -1.0, 0.1, 5, 4, 12)


class TestUnpack:
    def test_inverse_of_vectorize(self):
        rng = np.random.default_rng(14)
        fam, _ = random_hmm_family(3, 2, 2, 3, 0.8, rng)
        layout = ObservationLayout(2, 2, 3)
        o = np.stack([layout.vectorize(m.q, m.p) for m in fam], axis=1)
        est = HmmEstimate(observation=o, transition=np.eye(3), layout=layout)
        models = unpack_models(est, fam[0].reward_support, 0.8)
        for got, want in zip(models, fam):
            assert np.allclose(got.p, want.p)
            assert np.allclose(got.q, want.q)
