"""Core types: matrix wrappers, the model container, and RNG streams."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covproj import (
    ConfigError,
    DimensionMismatchError,
    EmptyClassError,
    LabeledDataset,
    NotPositiveDefiniteError,
    NotSquareError,
    ProjectionMatrix,
    RankDeficientError,
    TwoClassGaussian,
    derive_stream,
    make_spd,
)
from conftest import rand_spd


class TestMakeSpd:
    def test_identity_accepted(self):
        m = make_spd(np.eye(3))
        assert m.dim == 3
        assert_allclose(m.entries, np.eye(3))

    def test_two_by_two_eigenvalues(self):
        """[[1, .5], [.5, 1]] has eigenvalues 1 -+ 0.5 by the closed form."""
        m = make_spd(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert_allclose(np.linalg.eigvalsh(m.entries), [0.5, 1.5], atol=1e-12)

    def test_indefinite_rejected(self):
        """[[1, 2], [2, 1]] has eigenvalues 3 and -1, so both variants refuse."""
        raw = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            make_spd(raw, strict=True)
        with pytest.raises(NotPositiveDefiniteError):
            make_spd(raw)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            make_spd(np.ones((2, 3)))

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, strict):
        """Neither the eigenvalue test nor Cholesky fails on NaN by itself."""
        raw = np.eye(2)
        raw[0, 0] = bad
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            make_spd(raw, strict=strict)

    def test_idempotent_bit_for_bit(self, g):
        base = g.standard_normal((6, 6))
        raw = base @ base.T + 6.0 * np.eye(6) + 1e-3 * g.standard_normal((6, 6))
        assert not np.array_equal(raw, raw.T)
        once = make_spd(raw)
        twice = make_spd(once.entries)
        assert once.entries.tobytes() == twice.entries.tobytes()

    def test_rank_deficient_accepted_without_strict(self, g):
        v = g.standard_normal(5)
        outer = np.outer(v, v)
        m = make_spd(outer)
        assert m.dim == 5
        with pytest.raises(NotPositiveDefiniteError):
            make_spd(outer, strict=True)

    def test_cholesky_residual(self, g):
        for p in (2, 5, 20):
            m = rand_spd(g, p)
            ell = m.cholesky()
            resid = np.linalg.norm(ell @ ell.T - m.entries)
            assert resid <= 1e-9 * np.linalg.norm(m.entries)

    def test_entries_immutable(self):
        m = make_spd(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestProjectionMatrix:
    def test_valid(self, g):
        w = ProjectionMatrix(g.standard_normal((7, 3)))
        assert (w.ambient_dim, w.embed_dim) == (7, 3)

    def test_rank_deficient_rejected(self):
        col = np.ones((5, 1))
        with pytest.raises(RankDeficientError):
            ProjectionMatrix(np.hstack([col, col]))

    def test_q_exceeds_p(self, g):
        with pytest.raises(DimensionMismatchError):
            ProjectionMatrix(g.standard_normal((3, 5)))

    def test_orthonormal_flag_checked(self, g):
        with pytest.raises(NotPositiveDefiniteError):
            ProjectionMatrix(2.0 * np.eye(4)[:, :2], orthonormal_columns=True)
        w = ProjectionMatrix(np.eye(4)[:, :2], orthonormal_columns=True)
        assert w.orthonormal_columns


class TestTwoClassGaussian:
    def test_weight_bounds(self):
        c = make_spd(np.eye(2))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                TwoClassGaussian(bad, np.zeros(2), np.zeros(2), c, c)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            TwoClassGaussian(
                0.5, np.zeros(3), np.zeros(2), make_spd(np.eye(2)), make_spd(np.eye(2))
            )

    def test_weight_2_complement(self):
        c = make_spd(np.eye(2))
        m = TwoClassGaussian.zero_mean(c, c, 0.3)
        assert m.weight_1 + m.weight_2 == 1.0


class TestRngStream:
    def test_same_path_identical(self):
        a = derive_stream(42, [0]).generator().standard_normal(1000)
        b = derive_stream(42, [0]).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_paths_uncorrelated(self):
        a = derive_stream(42, [0]).generator().standard_normal(10_000)
        b = derive_stream(42, [1]).generator().standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_path_keyed_reproducibility(self):
        """Re-deriving a path after sibling reordering changes nothing."""
        before = derive_stream(42, [3, 1]).generator().standard_normal(64)
        _ = derive_stream(42, [3, 7]).generator().standard_normal(64)
        after = derive_stream(42, [3, 1]).generator().standard_normal(64)
        assert np.array_equal(before, after)

    def test_child_appends(self):
        s = derive_stream(7, [2])
        assert s.child(5, 1).path == (2, 5, 1)
        assert s.path == (2,)

    def test_negative_path_rejected(self):
        with pytest.raises(ConfigError):
            derive_stream(7, [-1])


class TestLabeledDataset:
    def _toy(self, n1=10, n2=14):
        g = np.random.default_rng(1)
        x = g.standard_normal((n1 + n2, 3))
        z = np.array([1] * n1 + [2] * n2)
        return LabeledDataset(x, z)

    def test_labels_validated(self):
        with pytest.raises(ConfigError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 1]))

    def test_split_stratified(self):
        data = self._toy(10, 20)
        train, val = data.split(0.7, derive_stream(3))
        assert train.n + val.n == data.n
        for part in (train, val):
            assert {1, 2} <= set(part.z.tolist())
        assert np.count_nonzero(train.z == 1) == 7
        assert np.count_nonzero(train.z == 2) == 14

    def test_split_deterministic(self):
        data = self._toy()
        t1, _ = data.split(0.7, derive_stream(9, [4]))
        t2, _ = data.split(0.7, derive_stream(9, [4]))
        assert np.array_equal(t1.X, t2.X)

    def test_split_needs_two_per_class(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 2, 2]))
        with pytest.raises(EmptyClassError):
            data.split(0.7, derive_stream(0))
