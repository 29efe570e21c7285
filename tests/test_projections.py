"""Projection constructors: PCA, random families, and the optimal embedding."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from covproj import (
    ConfigError,
    EmptyClassError,
    LabeledDataset,
    ProjectionMatrix,
    RngStream,
    SingularAfterRidgeError,
    TwoClassGaussian,
    bhattacharyya_optimal_projection,
    build_projection,
    embedded_overlap,
    empirical_cov_pair,
    empirical_covariances,
    gen_iw_pair,
    generalized_eigenpairs,
    make_spd,
    mixture_covariance,
    optimal_overlap_closed_form,
    optimal_projection_auto_ridge,
    pca_adversarial_pair,
    pca_favorable_pair,
    pca_projection,
    random_projection,
    sample_gaussian,
    sparse_random_projection,
)
from covproj.core import _derived_spd
from covproj.projections import _fix_column_signs
from conftest import rand_spd, rand_orthonormal


def span_projector(w):
    return w.entries @ w.entries.T


class TestPcaProjection:
    def test_diagonal_case(self):
        m = make_spd(np.diag([4.0, 2.0, 1.0]))
        w = pca_projection(m, 2)
        assert_allclose(span_projector(w), np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_coincides_with_optimal_on_favorable_pair(self):
        """When one class carries extra variance on a block, PCA of the sum
        and the overlap-optimal selection span the same block."""
        c1, c2 = pca_favorable_pair(8, 3, 4.0, 1.0)
        w_pca = pca_projection(make_spd(c1.entries + c2.entries), 3)
        w_opt = bhattacharyya_optimal_projection(c1, c2, 3)
        assert_allclose(span_projector(w_pca), span_projector(w_opt), atol=1e-9)

    def test_tie_break_deterministic(self):
        m = make_spd(np.diag([2.0, 1.0, 1.0, 1.0]))
        w1 = pca_projection(m, 2)
        w2 = pca_projection(m, 2)
        assert w1.entries.tobytes() == w2.entries.tobytes()

    def test_sign_convention(self, g):
        w = pca_projection(rand_spd(g, 6), 3)
        for j in range(3):
            col = w.entries[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_determinant_optimality_among_random_frames(self, g):
        """PCA maximizes det(W^T M W) over orthonormal frames."""
        m = rand_spd(g, 6)
        w = pca_projection(m, 2)
        best = np.linalg.det(w.entries.T @ m.entries @ w.entries)
        for _ in range(1000):
            v = rand_orthonormal(g, 6, 2)
            assert best >= np.linalg.det(v.T @ m.entries @ v) - 1e-9

    def test_q_exceeds_p(self, g):
        with pytest.raises(ConfigError) as err:
            pca_projection(rand_spd(g, 3), 4)
        assert err.value.field == "q"

    def test_nested_prefix_consistency(self, g):
        m = rand_spd(g, 7)
        w5 = pca_projection(m, 5)
        w2 = pca_projection(m, 2)
        assert np.array_equal(w5.entries[:, :2], w2.entries)

    @pytest.mark.parametrize("p", [5, 50, 200])
    def test_balanced_zero_mean_model_keeps_the_sums_frame(self, g, p):
        """At equal weights and zero means the mixture is (C1 + C2)/2, an
        exact halving, and its frame is the bits of the frame of C1 + C2, so
        no parameter-oracle PCA record moves with the mixture."""
        iw_pair = gen_iw_pair(p, 2 * p, 2 * p, RngStream(p))
        for c1, c2 in [(rand_spd(g, p), rand_spd(g, p)), iw_pair]:
            got = build_projection("pca", 3, TwoClassGaussian.zero_mean(c1, c2), RngStream(0))
            want = pca_projection(_derived_spd(c1.entries + c2.entries), 3)
            assert np.array_equal(got.entries, want.entries)


@pytest.mark.parametrize("q", [-1, 0, 4])
def test_one_embedding_dimension_rule(g, q):
    """PCA, the eigenpairs kept, both random families and a frame refuse a q
    outside [1, p] alike; a negative q no longer reaches numpy's draw."""
    c = rand_spd(g, 3)
    calls = [
        ("q", lambda: pca_projection(c, q)),
        ("k", lambda: generalized_eigenpairs(c, c, k=q)),
        ("q", lambda: bhattacharyya_optimal_projection(c, c, q)),
        ("q", lambda: random_projection(3, q, RngStream(0))),
        ("q", lambda: sparse_random_projection(3, q, RngStream(0))),
    ]
    if q >= 0:
        calls.append(("q", lambda: ProjectionMatrix(np.ones((3, q)))))
    for field, call in calls:
        with pytest.raises(ConfigError) as err:
            call()
        assert err.value.field == field
        assert str(err.value) == (
            f"{field}: embedding dimension {field}={q} must satisfy 1 <= {field} <= p=3"
        )


def _fix_column_signs_loop(v):
    """Column-by-column reference for the vectorized sign fix."""
    out = v.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


class TestFixColumnSigns:
    CASES = {
        "tie_first_negative": [[-2.0, 1.0], [2.0, 3.0]],
        "tie_first_positive": [[2.0, 0.5], [-2.0, -0.5]],
        "negative_zero": [[-0.0, 0.0], [-0.0, -0.0]],
        "zero_then_negative": [[0.0, -0.0], [-1.0, 0.0]],
        "all_negative": [[-1.0, -4.0], [-3.0, -2.0], [-0.5, -4.0]],
        "single_row": [[-1.0, 2.0, -0.0]],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_loop_bit_for_bit(self, name):
        v = np.array(self.CASES[name])
        for layout in (v, np.asfortranarray(v)):
            got = _fix_column_signs(layout)
            want = _fix_column_signs_loop(layout)
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous

    def test_fortran_ordered_eigenvectors(self, g):
        """PCA's column selection and the generalized problem's triangular
        back-solve both hand over Fortran-ordered vectors; the fix must return
        C order, because later BLAS products round differently on the other
        layout."""
        c = rand_spd(g, 30).entries
        w, u = np.linalg.eigh(c)
        ell = np.linalg.cholesky(rand_spd(g, 30).entries)
        for v in (u[:, np.argsort(-w)[:5]], solve_triangular(ell.T, u, lower=False)):
            assert not v.flags.c_contiguous
            got = _fix_column_signs(v)
            assert got.flags.c_contiguous
            assert got.tobytes() == _fix_column_signs_loop(v).tobytes()


class TestRandomProjection:
    def test_full_rank(self):
        w = random_projection(50, 5, RngStream(1, [0]))
        assert np.linalg.matrix_rank(w.entries) == 5

    def test_moments(self):
        w = random_projection(1000, 1000, RngStream(2))
        entries = w.entries.ravel()
        assert abs(entries.mean()) < 0.004
        assert abs(entries.var() - 1.0) < 0.005

    def test_deterministic(self):
        a = random_projection(20, 3, RngStream(5, [1, 2]))
        b = random_projection(20, 3, RngStream(5, [1, 2]))
        assert np.array_equal(a.entries, b.entries)


class TestSparseRandomProjection:
    def test_value_set_and_magnitude(self):
        """At p = 16 the nonzero entries are exactly +-2 = 16^(1/4)."""
        w = sparse_random_projection(16, 4, RngStream(3))
        values = set(np.unique(w.entries).tolist())
        assert values <= {-2.0, 0.0, 2.0}

    def test_nonzero_fraction(self):
        """At p = 100 the expected nonzero fraction is 1/sqrt(100) = 0.10."""
        w = sparse_random_projection(100, 10, RngStream(4))
        frac = np.count_nonzero(w.entries) / w.entries.size
        assert abs(frac - 0.10) < 0.03

    def test_entry_second_moment_is_one(self):
        w = sparse_random_projection(400, 250, RngStream(6))
        second = float(np.mean(w.entries**2))
        assert abs(second - 1.0) < 0.05

    def test_deterministic(self):
        a = sparse_random_projection(30, 4, RngStream(8, [3]))
        b = sparse_random_projection(30, 4, RngStream(8, [3]))
        assert np.array_equal(a.entries, b.entries)


class TestOptimalProjection:
    def test_generalized_eigen_residual(self, g):
        """Every pair satisfies C2 phi = lam C1 phi to the stated residual."""
        c1, c2 = rand_spd(g, 7), rand_spd(g, 7)
        norm2 = np.linalg.norm(c2.entries)
        values, vectors = generalized_eigenpairs(c1, c2)
        for value, vector in zip(values, vectors.T):
            resid = np.linalg.norm(c2.entries @ vector - value * (c1.entries @ vector))
            assert resid <= 1e-8 * norm2 * np.linalg.norm(vector)

    def test_identical_classes_give_half_overlap(self, g):
        c = rand_spd(g, 5)
        w = bhattacharyya_optimal_projection(c, c, 2)
        assert_allclose(generalized_eigenpairs(c, c, k=2)[0], [1.0, 1.0], rtol=1e-8)
        model = TwoClassGaussian.zero_mean(c, c)
        assert_allclose(embedded_overlap(model, w), 0.5, rtol=1e-10)

    def test_adversarial_pair_selects_trailing_block(self):
        """Discriminating directions live outside the leading block, so the
        selected frame must be orthogonal to the first q coordinates."""
        c1, c2 = pca_adversarial_pair(10, 3, 4.0, 1.0)
        w = bhattacharyya_optimal_projection(c1, c2, 3)
        assert np.max(np.abs(w.entries[:3, :])) < 1e-9
        model = TwoClassGaussian.zero_mean(c1, c2)
        expected = optimal_overlap_closed_form([4.0, 4.0, 4.0])
        assert_allclose(embedded_overlap(model, w), expected, rtol=1e-9)

    def test_matches_closed_form(self, g):
        for _ in range(10):
            c1, c2 = rand_spd(g, 6), rand_spd(g, 6)
            w = bhattacharyya_optimal_projection(c1, c2, 3)
            model = TwoClassGaussian.zero_mean(c1, c2)
            assert_allclose(
                embedded_overlap(model, w),
                optimal_overlap_closed_form(generalized_eigenpairs(c1, c2, k=3)[0]),
                rtol=1e-9,
            )

    def test_beats_random_search(self, g):
        """100k random orthonormal frames cannot undercut the closed form."""
        c1, c2 = rand_spd(g, 6), rand_spd(g, 6)
        model = TwoClassGaussian.zero_mean(c1, c2)
        best = embedded_overlap(model, bhattacharyya_optimal_projection(c1, c2, 2))
        frames = np.linalg.qr(g.standard_normal((100_000, 6, 2)))[0]
        e1 = np.einsum("npq,pr,nrs->nqs", frames, c1.entries, frames)
        e2 = np.einsum("npq,pr,nrs->nqs", frames, c2.entries, frames)
        dets = np.linalg.det((e1 + e2) / 2.0) / np.sqrt(
            np.linalg.det(e1) * np.linalg.det(e2)
        )
        found = float(np.min(0.5 * dets**-0.5))
        assert found >= best - 1e-3

    def test_selection_maximizes_over_subsets(self, g):
        """The retained set wins exhaustive q-subset enumeration at p = 8."""
        c1, c2 = rand_spd(g, 8), rand_spd(g, 8)
        values = generalized_eigenpairs(c1, c2)[0]
        gain = lambda lam: float(np.sum(np.log((np.sqrt(lam) + 1 / np.sqrt(lam)) / 2)))
        best_subset = max(
            itertools.combinations(range(8), 3), key=lambda idx: gain(values[list(idx)])
        )
        assert_allclose(
            sorted(values[list(best_subset)]), sorted(values[:3]), rtol=1e-12
        )

    def test_auto_ridge_on_rank_deficient(self, g):
        """A rank-deficient first covariance needs the ridge fallback: the
        optimal frame at the absolute ridge 1e-6 * trace(C1) / p, to the bit."""
        x = g.standard_normal((4, 10))
        c1 = make_spd(x.T @ x / 4)
        c2 = rand_spd(g, 10)
        with pytest.raises(SingularAfterRidgeError):
            bhattacharyya_optimal_projection(c1, c2, 3)
        ridge = 1e-6 * np.trace(c1.entries) / 10
        expected = bhattacharyya_optimal_projection(c1, c2, 3, ridge=ridge)
        assert np.array_equal(optimal_projection_auto_ridge(c1, c2, 3).entries, expected.entries)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, -math.inf, -1.0])
    def test_ridge_rule_holds_at_the_optimal_projection(self, g, ridge):
        """0 <= ridge < inf where a ridge enters the generalized problem, even
        with a regular C1."""
        c1, c2 = rand_spd(g, 4), rand_spd(g, 4)
        with pytest.raises(ConfigError) as err:
            bhattacharyya_optimal_projection(c1, c2, 2, ridge)
        assert err.value.field == "ridge"

    @pytest.mark.parametrize("p", [20, 100, 200])
    @pytest.mark.parametrize("k", [1, 5, "p"])
    def test_k_pairs_are_the_leading_pairs_bit_for_bit(self, g, p, k):
        """Back-transforming only the kept pairs gives the bits of
        back-transforming all p and keeping the first k."""
        k = p if k == "p" else k
        c1, c2 = rand_spd(g, p), rand_spd(g, p)
        full_values, full_vectors = generalized_eigenpairs(c1, c2)
        values, vectors = generalized_eigenpairs(c1, c2, k=k)
        assert values.shape == (k,) and vectors.shape == (p, k)
        assert values.tobytes() == full_values[:k].tobytes()
        assert vectors.tobytes() == full_vectors[:, :k].tobytes()

    @pytest.mark.parametrize("k", [0, -1, "p+1"])
    def test_k_outside_one_to_p_rejected(self, g, k):
        """Rejected before factoring: a singular C1 would raise otherwise."""
        c1, c2 = make_spd(np.zeros((6, 6))), rand_spd(g, 6)
        k = 7 if k == "p+1" else k
        with pytest.raises(ConfigError) as err:
            generalized_eigenpairs(c1, c2, k=k)
        assert err.value.field == "k"
        with pytest.raises(ConfigError) as err:
            bhattacharyya_optimal_projection(c1, c2, k)
        assert err.value.field == "q"

    def test_deterministic(self, g):
        c1, c2 = rand_spd(g, 6), rand_spd(g, 6)
        a = bhattacharyya_optimal_projection(c1, c2, 2)
        b = bhattacharyya_optimal_projection(c1, c2, 2)
        assert a.entries.tobytes() == b.entries.tobytes()


class TestEmpiricalCovariances:
    def test_two_point_symmetric_classes(self):
        v = np.array([1.0, -2.0, 0.5])
        x = np.vstack([v, -v, 2 * v, -2 * v])
        z = np.array([1, 1, 2, 2])
        est = empirical_covariances(LabeledDataset(x, z))
        assert_allclose(est.mean_1, 0.0, atol=1e-12)
        assert_allclose(est.cov_1.entries, np.outer(v, v), atol=1e-12)
        assert_allclose(est.cov_2.entries, 4 * np.outer(v, v), atol=1e-12)
        assert (est.weight_1, est.weight_2) == (0.5, 0.5)

    def test_single_point_class_is_zero_matrix(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        est = empirical_covariances(LabeledDataset(x, np.array([1, 2, 2])))
        assert_allclose(est.cov_1.entries, 0.0, atol=1e-15)

    def test_empty_class_rejected(self):
        data = LabeledDataset(np.zeros((2, 2)), np.array([1, 1]))
        with pytest.raises(EmptyClassError):
            empirical_covariances(data)

    def test_large_sample_convergence(self):
        """Relative Frobenius error of the sample covariance at n_k = 100 p."""
        p, n_k = 5, 500
        cov = rand_spd(np.random.default_rng(7), p)
        x = sample_gaussian(np.zeros(p), cov, 2 * n_k, RngStream(14))
        z = np.concatenate([np.ones(n_k, dtype=int), np.full(n_k, 2)])
        est = empirical_covariances(LabeledDataset(x, z))
        for s in (est.cov_1, est.cov_2):
            rel = np.linalg.norm(s.entries - cov.entries) / np.linalg.norm(cov.entries)
            assert rel <= 0.1

    def test_mixture_covariance_matches_manual(self, g):
        x = g.standard_normal((40, 3)) + 2.0
        centered = x - x.mean(axis=0)
        assert_allclose(
            mixture_covariance(x).entries, centered.T @ centered / 40, atol=1e-12
        )

    def test_pooled_covariance_is_the_estimates_mixture(self, g):
        """The law of total covariance: the pooled rows' covariance is the
        plug-in model's pi1 S1 + pi2 S2 + pi1 pi2 d d^T (divisor n, weights
        n_k/n), so empirical PCA needs the estimates only, not the rows."""
        scale = np.array([8.0, 5.0, 3.0, 1.0, 0.7, 0.5])
        x_1 = g.standard_normal((30, 6)) * scale + 1.0
        x = np.vstack([x_1, g.standard_normal((50, 6)) - 0.5])
        data = LabeledDataset(x, np.repeat([1, 2], [30, 50]))
        est = empirical_covariances(data)
        d = est.mean_2 - est.mean_1
        mixture = (
            est.weight_1 * est.cov_1.entries
            + est.weight_2 * est.cov_2.entries
            + est.weight_1 * est.weight_2 * np.outer(d, d)
        )
        pooled = mixture_covariance(data.X)
        err = np.linalg.norm(mixture - pooled.entries) / np.linalg.norm(pooled.entries)
        assert err <= 1e-12
        lam = np.linalg.eigvalsh(pooled.entries)[::-1]
        assert np.min(lam[:3] - lam[1:4]) > 0.02 * lam[0]  # the top three are separated
        assert_allclose(
            build_projection("pca", 3, est, RngStream(0)).entries,
            pca_projection(pooled, 3).entries,
            rtol=0,
            atol=1e-10,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_refused(self, g, bad):
        """Refused where the rows enter: a NaN covariance would make PCA and
        the optimal frame fail to converge and an overlap read 0.5."""
        x = g.standard_normal((20, 4))
        x[3, 1] = bad
        for call in (mixture_covariance, lambda x: empirical_cov_pair(x, x[:10])):
            with pytest.raises(ConfigError) as err:
                call(x)
            assert (err.value.field, str(err.value)) == ("x", "x: entries must be finite")
