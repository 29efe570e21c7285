"""Separability metrics: scalar plug-in values, identities, and invariances."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covproj import (
    ConfigError,
    ProjectionMatrix,
    RngStream,
    SingularBlendError,
    TwoClassGaussian,
    bhattacharyya_overlap,
    embedded_overlap,
    embedded_overlaps,
    make_spd,
    mc_bayes_risk,
    optimal_overlap_closed_form,
    project_model,
)
from covproj.core import _sym
from covproj.metrics import _embed, _embedded_overlaps
from conftest import (
    rand_orthonormal,
    rand_spd,
    reference_chernoff_distance,
    reference_embedded_overlap,
)


def scalar_model(var_1, var_2, mean_gap=0.0, weight_1=0.5):
    return TwoClassGaussian(
        weight_1,
        np.zeros(1),
        np.array([mean_gap]),
        make_spd(np.array([[var_1]])),
        make_spd(np.array([[var_2]])),
    )


def random_model(g, p, balanced=False, with_means=True):
    w1 = 0.5 if balanced else float(g.uniform(0.2, 0.8))
    mu1 = g.standard_normal(p) if with_means else np.zeros(p)
    mu2 = g.standard_normal(p) if with_means else np.zeros(p)
    return TwoClassGaussian(w1, mu1, mu2, rand_spd(g, p), rand_spd(g, p))


class TestChernoffDistance:
    """The Chernoff distance at s = 1/2 (the Bhattacharyya distance), the one
    the package evaluates, read through ``bhattacharyya_overlap``."""

    def test_identical_model_is_zero(self):
        c = make_spd(np.eye(4))
        assert bhattacharyya_overlap(TwoClassGaussian.zero_mean(c, c)) == 0.5

    def test_scalar_variance_case(self):
        """var 1 vs 4: delta = ln(2.5/2) / 2 by direct plug-in."""
        m = scalar_model(1.0, 4.0)
        assert_allclose(
            bhattacharyya_overlap(m), 0.5 * math.exp(-0.5 * math.log(2.5 / 2.0)), rtol=1e-14
        )

    def test_scalar_mean_case(self):
        """Equal unit variances, mean gap 2: delta = 4/8 = 0.5."""
        m = scalar_model(1.0, 1.0, mean_gap=2.0)
        assert_allclose(bhattacharyya_overlap(m), 0.5 * math.exp(-0.5), rtol=1e-14)

    def test_nonnegative_over_random_models(self, g):
        """delta >= 0: the overlap never exceeds sqrt(pi1 pi2)."""
        for _ in range(25):
            m = random_model(g, int(g.integers(1, 6)))
            assert bhattacharyya_overlap(m) <= math.sqrt(m.weight_1 * m.weight_2)

    def test_singular_blend_reports_dimension(self, g):
        v = g.standard_normal(4)
        low_rank = make_spd(np.outer(v, v))
        m = TwoClassGaussian.zero_mean(low_rank, make_spd(np.eye(4)))
        with pytest.raises(SingularBlendError) as err:
            bhattacharyya_overlap(m)
        assert err.value.dim == 4


class TestBhattacharyya:
    def test_identical_balanced_overlap_is_half(self):
        c = make_spd(np.eye(3))
        assert bhattacharyya_overlap(TwoClassGaussian.zero_mean(c, c)) == 0.5

    def test_block_spike_scalar_value(self):
        """Variance ratio 4 in one dimension: overlap = (2.5/2)^(-1/2) / 2."""
        m = scalar_model(4.0, 1.0)
        assert_allclose(bhattacharyya_overlap(m), 0.4472135954999579, rtol=1e-12)

    def test_unbalanced_identical_classes(self):
        c = make_spd(np.eye(2))
        m = TwoClassGaussian.zero_mean(c, c, weight_1=0.9)
        assert_allclose(bhattacharyya_overlap(m), 0.3, rtol=1e-14)

    def test_joint_rotation_invariance(self, g):
        """Conjugating everything by an orthogonal U leaves the overlap alone."""
        for _ in range(10):
            p = int(g.integers(2, 6))
            m = random_model(g, p)
            u = rand_orthonormal(g, p, p)
            rotated = TwoClassGaussian(
                m.weight_1,
                u.T @ m.mean_1,
                u.T @ m.mean_2,
                make_spd(u.T @ m.cov_1.entries @ u),
                make_spd(u.T @ m.cov_2.entries @ u),
            )
            assert_allclose(
                bhattacharyya_overlap(rotated), bhattacharyya_overlap(m), rtol=1e-9
            )


class TestEmbeddedOverlap:
    def test_identity_embedding_matches_ambient(self, g):
        m = random_model(g, 5)
        w = ProjectionMatrix(np.eye(5))
        assert_allclose(embedded_overlap(m, w), bhattacharyya_overlap(m), rtol=1e-12)

    def test_right_factor_invariance(self, g):
        for _ in range(10):
            p, q = 6, 3
            m = random_model(g, p)
            w = ProjectionMatrix(g.standard_normal((p, q)))
            r = g.standard_normal((q, q)) + 3.0 * np.eye(q)
            wr = ProjectionMatrix(w.entries @ r)
            assert_allclose(embedded_overlap(m, wr), embedded_overlap(m, w), rtol=1e-8)

    def test_dimension_mismatch(self, g):
        m = random_model(g, 4)
        w = ProjectionMatrix(np.eye(5)[:, :2])
        with pytest.raises(ConfigError) as err:
            embedded_overlap(m, w)
        assert err.value.field == "w"

    def test_bound_dominance_spot_check(self, g):
        """MC Bayes risk in the embedding never beats the overlap bound."""
        for k in range(10):
            p = int(g.integers(2, 6))
            m = random_model(g, p)
            q = int(g.integers(1, p + 1))
            w = ProjectionMatrix(g.standard_normal((p, q)))
            bound = embedded_overlap(m, w)
            risk = mc_bayes_risk(m, w, 20_000, RngStream(100 + k))
            assert risk.estimate <= bound + 3.0 * risk.std_error


class TestStackedKernel:
    """The stacked scorer gives the per-projection formula's bits."""

    @pytest.mark.parametrize("with_means", [False, True], ids=["zero_means", "means"])
    @pytest.mark.parametrize("p", [2, 5, 20, 50, 200])
    def test_stack_matches_per_projection_reference(self, g, p, with_means):
        for q in range(1, min(10, p - 1) + 1):
            m = random_model(g, p, with_means=with_means)
            frames = [g.standard_normal((p, q)) for _ in range(3)]
            frames.append(rand_orthonormal(g, p, q))
            ws = [ProjectionMatrix(f) for f in frames]
            expected = [reference_embedded_overlap(m, w) for w in ws]
            assert embedded_overlaps(m, ws) == expected
            assert [embedded_overlap(m, w) for w in ws] == expected

    @pytest.mark.parametrize("with_means", [False, True], ids=["zero_means", "means"])
    @pytest.mark.parametrize("p", [2, 5, 20, 50, 200])
    def test_chernoff_matches_reference(self, g, p, with_means):
        m = random_model(g, p, with_means=with_means)
        delta = reference_chernoff_distance(m, 0.5)
        assert bhattacharyya_overlap(m) == math.sqrt(m.weight_1 * m.weight_2) * math.exp(-delta)

    @pytest.mark.parametrize("p", [3, 20, 200])
    def test_project_model_is_the_kernels_first_item(self, g, p):
        """project_model is the one-item case of the stacked kernel: it gives
        item 0 of a stack bit for bit, and so does the 2-d formula, for
        distinct non-zero means and unequal class weights."""
        for q in range(1, min(5, p - 1) + 1):
            m = random_model(g, p)
            assert m.weight_1 != 0.5 and not np.array_equal(m.mean_1, m.mean_2)
            ws = [ProjectionMatrix(g.standard_normal((p, q))) for _ in range(3)]
            stacks = _embed(ws, m.mean_1, m.mean_2, m.cov_1.entries, m.cov_2.entries)
            alone = project_model(m, ws[0])
            assert alone.weight_1 == m.weight_1
            w = ws[0].entries
            for k, (mean, cov) in enumerate(((m.mean_1, m.cov_1), (m.mean_2, m.cov_2))):
                got_mean = (alone.mean_1, alone.mean_2)[k]
                got_cov = (alone.cov_1, alone.cov_2)[k].entries
                assert got_mean.tobytes() == stacks[k][0].tobytes() == (w.T @ mean).tobytes()
                assert stacks[2 + k][0].tobytes() == (w.T @ cov.entries @ w).tobytes()
                assert got_cov.tobytes() == _sym(stacks[2 + k][0]).tobytes()

    def test_empty_stack(self, g):
        assert embedded_overlaps(random_model(g, 4), []) == []

    def test_shapes_checked(self, g):
        m = random_model(g, 4)
        w = ProjectionMatrix(np.eye(4)[:, :2])
        for other, field in ((np.eye(5)[:, :2], "w"), (np.eye(4)[:, :3], "ws")):
            with pytest.raises(ConfigError) as err:
                embedded_overlaps(m, [w, ProjectionMatrix(other)])
            assert err.value.field == field

    def test_memory_layout_does_not_matter(self, g):
        """A Fortran-ordered frame scores as its C-ordered copy, alone or in a
        stack with C-ordered frames."""
        for p in (5, 20, 50):
            for q in range(1, min(10, p - 1) + 1):
                m = random_model(g, p, with_means=bool(q % 2))
                frame = g.standard_normal((p, q))
                w_c = ProjectionMatrix(frame)
                w_f = ProjectionMatrix(np.asfortranarray(frame))
                other = ProjectionMatrix(g.standard_normal((p, q)))
                expected = embedded_overlap(m, w_c)
                assert embedded_overlap(m, w_f) == expected
                assert embedded_overlaps(m, [other, w_f])[1] == expected

    def test_singular_item_fails_the_stack_naming_its_factor(self):
        """W = [e1, e1 + 1e-9 e2] passes the rank check, but W^T C W rounds to
        an exactly singular matrix for a diagonal C."""
        m = TwoClassGaussian.zero_mean(
            make_spd(np.diag([4.0, 4.0, 1.0, 1.0])), make_spd(np.eye(4))
        )
        degenerate = np.zeros((4, 2))
        degenerate[0] = 1.0
        degenerate[1, 1] = 1e-9
        ws = [ProjectionMatrix(np.eye(4)[:, :2]), ProjectionMatrix(degenerate)]
        with pytest.raises(SingularBlendError, match="^covariance blend of order 2"):
            embedded_overlaps(m, ws)
        with pytest.raises(SingularBlendError, match="^covariance blend of order 2"):
            embedded_overlap(m, ws[1])
        assert embedded_overlap(m, ws[0]) == reference_embedded_overlap(m, ws[0])

    def test_each_singular_item_fails_alone(self, g):
        """Two singular items in one stack: each gets the error naming its own
        first singular factor, the others keep the bits they have alone, and
        the public call raises the first item's error."""
        m = TwoClassGaussian.zero_mean(
            make_spd(np.diag([4.0, 4.0, 1.0, 0.0])), make_spd(np.eye(4))
        )
        degenerate = np.zeros((4, 2))
        degenerate[0] = 1.0
        degenerate[1, 1] = 1e-9
        ws = [
            ProjectionMatrix(np.eye(4)[:, :2]),
            ProjectionMatrix(degenerate),  # the blend rounds to singular
            ProjectionMatrix(g.standard_normal((4, 2))),
            ProjectionMatrix(np.eye(4)[:, 2:]),  # W^T C1 W = diag(1, 0)
        ]
        outcomes = _embedded_overlaps(m, ws)
        for i in (0, 2):
            assert outcomes[i] == reference_embedded_overlap(m, ws[i])
        for i, factor in ((1, "covariance blend"), (3, "class-1 covariance")):
            assert isinstance(outcomes[i], SingularBlendError) and outcomes[i].dim == 2
            assert str(outcomes[i]) == f"{factor} of order 2 is numerically singular"
        with pytest.raises(SingularBlendError, match="^covariance blend of order 2"):
            embedded_overlaps(m, ws)
        with pytest.raises(SingularBlendError, match="^class-1 covariance of order 2"):
            embedded_overlaps(m, ws[2:])

    def test_singular_class_factor_named(self, g):
        """A blend that factors and a singular class-1 covariance: the error
        names the class-1 factor, as factoring in formula order would."""
        v = g.standard_normal(4)
        m = TwoClassGaussian.zero_mean(make_spd(np.outer(v, v)), make_spd(np.eye(4)))
        with pytest.raises(SingularBlendError, match="^class-1 covariance of order 4"):
            bhattacharyya_overlap(m)


class TestOptimalOverlapClosedForm:
    def test_all_unit_eigenvalues(self):
        assert optimal_overlap_closed_form([1.0, 1.0, 1.0]) == 0.5

    def test_single_eigenvalue_four(self):
        assert_allclose(optimal_overlap_closed_form([4.0]), 0.4472135954999579, rtol=1e-12)

    def test_two_eigenvalues_four(self):
        """Two factors of (2 + 1/2)/2 = 1.25: overlap = 0.5 / 1.25 = 0.4."""
        assert_allclose(optimal_overlap_closed_form([4.0, 4.0]), 0.4, rtol=1e-12)

    def test_inversion_symmetry(self):
        assert_allclose(
            optimal_overlap_closed_form([4.0, 0.25]),
            optimal_overlap_closed_form([0.25, 4.0]),
            rtol=1e-14,
        )

    def test_nonpositive_rejected(self):
        for bad in ([0.0], [-1.0], []):
            with pytest.raises(ConfigError) as err:
                optimal_overlap_closed_form(bad)
            assert err.value.field == "eigenvalues"

    def test_monotone_in_q(self, g):
        """Appending eigenvalues in decreasing extremeness never raises overlap."""
        for _ in range(20):
            lam = np.exp(g.standard_normal(12))
            lam = lam[np.argsort(-(lam + 1.0 / lam))]
            values = [
                optimal_overlap_closed_form(lam[:q]) for q in range(1, lam.size + 1)
            ]
            assert all(b <= a for a, b in zip(values, values[1:]))
