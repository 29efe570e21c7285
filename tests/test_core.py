"""Core types: matrix wrappers, the model container, RNG streams, and the
one refusal rule for a value outside its domain."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covproj import (
    ConfigError,
    EmptyClassError,
    LabeledDataset,
    NotPositiveDefiniteError,
    ProjectionMatrix,
    RankDeficientError,
    RngStream,
    SpdMatrix,
    SweepConfig,
    SweepRecord,
    TwoClassGaussian,
    bhattacharyya_optimal_projection,
    bhattacharyya_overlap,
    column_overlap,
    embedded_overlap,
    embedded_overlaps,
    expand_grid,
    fit_embedded_qda,
    gen_iw_pair,
    generalized_eigenpairs,
    make_spd,
    mc_bayes_risk,
    mixture_covariance,
    oos_error,
    optimal_overlap_closed_form,
    pca_projection,
    reconstruction_error,
    sample_gaussian,
    sample_inverse_wishart,
    sample_two_class,
    summarize,
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
        """[[1, 2], [2, 1]] has eigenvalues 3 and -1."""
        raw = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            make_spd(raw)

    def test_not_square(self):
        with pytest.raises(ConfigError) as err:
            make_spd(np.ones((2, 3)))
        assert err.value.field == "matrix"

    def test_order_zero_rejected(self):
        """Order 0 has no eigenvalue to test, so the shape check refuses it."""
        with pytest.raises(ConfigError) as err:
            make_spd(np.empty((0, 0)))
        assert err.value.field == "matrix"

    @pytest.mark.parametrize("off_diagonal", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, off_diagonal):
        """The eigenvalue test does not fail on NaN by itself, on or off the
        diagonal."""
        raw = np.eye(2)
        raw[0, int(off_diagonal)] = bad
        with pytest.raises(ConfigError, match="^matrix: entries must be finite$") as err:
            make_spd(raw)
        assert err.value.field == "matrix"

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

    @pytest.mark.parametrize(
        "raw, error",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), ConfigError),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefiniteError),
            (np.ones((2, 3)), ConfigError),
            (np.empty((0, 0)), ConfigError),
        ],
        ids=["nan", "indefinite", "not_square", "order_zero"],
    )
    def test_constructor_refuses_what_make_spd_refuses(self, raw, error):
        """A NaN entry built directly would reach the overlap, which reads 0.5."""
        with pytest.raises(error) as err:
            SpdMatrix(raw)
        if error is ConfigError:
            assert err.value.field == "matrix"

    def test_constructor_stores_a_read_only_copy(self, g):
        base = g.standard_normal((4, 4))
        raw = base @ base.T + 1e-3 * g.standard_normal((4, 4))
        m = SpdMatrix(raw)
        assert m.entries.tobytes() == make_spd(raw).entries.tobytes()
        raw[0, 0] = 1e6
        assert m.entries[0, 0] != 1e6
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
        with pytest.raises(ConfigError) as err:
            ProjectionMatrix(g.standard_normal((3, 5)))
        assert err.value.field == "q"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("orthonormal", [False, True])
    def test_non_finite_rejected(self, g, bad, orthonormal):
        """An orthonormal frame and a general one are refused alike."""
        frame = np.eye(4)[:, :2].copy() if orthonormal else g.standard_normal((4, 2))
        frame[3, 1] = bad
        with pytest.raises(ConfigError) as err:
            ProjectionMatrix(frame)
        assert err.value.field == "projection"

    def test_package_frames_skip_the_rank_check(self, g, monkeypatch):
        """PCA and the optimal projection build orthonormal frames and run no
        SVD; a frame from outside still gets its singular value ratio."""

        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        c1, c2 = rand_spd(g, 6), rand_spd(g, 6)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert pca_projection(c1, 3).embed_dim == 3
        assert bhattacharyya_optimal_projection(c1, c2, 3).embed_dim == 3
        with pytest.raises(AssertionError, match="svd called"):
            ProjectionMatrix(g.standard_normal((6, 3)))


class TestTwoClassGaussian:
    def test_weight_bounds(self):
        c = make_spd(np.eye(2))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                TwoClassGaussian(bad, np.zeros(2), np.zeros(2), c, c)

    def test_dimension_check(self):
        with pytest.raises(ConfigError) as err:
            TwoClassGaussian(
                0.5, np.zeros(3), np.zeros(2), make_spd(np.eye(2)), make_spd(np.eye(2))
            )
        assert err.value.field == "mean_1"

    def test_weight_2_complement(self):
        c = make_spd(np.eye(2))
        m = TwoClassGaussian.zero_mean(c, c, 0.3)
        assert m.weight_1 + m.weight_2 == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("field", ["mean_1", "mean_2"])
    @pytest.mark.parametrize(
        "use",
        [
            lambda m: embedded_overlap(m, ProjectionMatrix(np.eye(3)[:, :2])),
            bhattacharyya_overlap,
            lambda m: fit_embedded_qda(m).predict(np.zeros((2, 3))),
            lambda m: mc_bayes_risk(m, None, 100, RngStream(1)),
            lambda m: sample_two_class(m, 2, 2, RngStream(1)),
        ],
        ids=["embedded_overlap", "bhattacharyya_overlap", "predict", "mc", "sample"],
    )
    def test_non_finite_mean_refused(self, bad, field, use):
        """A non-finite mean is refused when the model is built, before any
        metric, classifier or sampler can turn it into NaN."""
        means = {"mean_1": np.zeros(3), "mean_2": np.zeros(3)}
        means[field][0] = bad
        covs = make_spd(np.eye(3)), make_spd(2.0 * np.eye(3))
        with pytest.raises(ConfigError, match=f"^{field}: ") as err:
            use(TwoClassGaussian(0.5, means["mean_1"], means["mean_2"], *covs))
        assert err.value.field == field


class TestRngStream:
    def test_same_path_identical(self):
        a = RngStream(42, [0]).generator().standard_normal(1000)
        b = RngStream(42, [0]).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_paths_uncorrelated(self):
        a = RngStream(42, [0]).generator().standard_normal(10_000)
        b = RngStream(42, [1]).generator().standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_path_keyed_reproducibility(self):
        """Re-deriving a path after sibling reordering changes nothing."""
        before = RngStream(42, [3, 1]).generator().standard_normal(64)
        _ = RngStream(42, [3, 7]).generator().standard_normal(64)
        after = RngStream(42, [3, 1]).generator().standard_normal(64)
        assert np.array_equal(before, after)

    def test_child_appends(self):
        s = RngStream(7, [2])
        assert s.child(5, 1).path == (2, 5, 1)
        assert s.path == (2,)

    @pytest.mark.parametrize("bad", [-1, 2**64, 7.5, "3", None])
    def test_rejects_a_bad_seed(self, bad):
        """Checked when the stream is named, not when it first draws."""
        with pytest.raises(ConfigError, match="master_seed"):
            RngStream(bad, [0])

    def test_negative_path_rejected(self):
        with pytest.raises(ConfigError):
            RngStream(7, [-1])

    @pytest.mark.parametrize("bad", [-1, 1.0, "1", None])
    def test_child_rejects_a_bad_index(self, bad):
        with pytest.raises(ConfigError, match="path"):
            RngStream(7, [2]).child(0, bad)

    def test_child_equals_the_stream_built_whole(self):
        """Built without revalidating the parent, a child is still the
        stream of its full path: equal, equally hashed, the same draws."""
        child = RngStream(7, [2]).child(np.int64(5), 1)
        whole = RngStream(7, [2, 5, 1])
        assert child == whole and hash(child) == hash(whole)
        assert all(type(i) is int for i in child.path)
        assert np.array_equal(
            child.generator().standard_normal(8), whole.generator().standard_normal(8)
        )


class TestLabeledDataset:
    def _toy(self, n1=10, n2=14):
        g = np.random.default_rng(1)
        x = g.standard_normal((n1 + n2, 3))
        z = np.array([1] * n1 + [2] * n2)
        return LabeledDataset(x, z)

    def test_labels_validated(self):
        with pytest.raises(ConfigError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_x_refused(self, bad):
        """Refused when the dataset is built, so no estimate or classifier
        downstream sees the value."""
        x = np.zeros((4, 3))
        x[2, 1] = bad
        with pytest.raises(ConfigError, match="^X: ") as err:
            LabeledDataset(x, np.array([1, 1, 2, 2]))
        assert err.value.field == "X"

    def test_split_stratified(self):
        data = self._toy(10, 20)
        train, val = data.split(0.7, RngStream(3))
        assert train.n + val.n == data.n
        for part in (train, val):
            assert {1, 2} <= set(part.z.tolist())
        assert np.count_nonzero(train.z == 1) == 7
        assert np.count_nonzero(train.z == 2) == 14

    def test_split_deterministic(self):
        data = self._toy()
        t1, _ = data.split(0.7, RngStream(9, [4]))
        t2, _ = data.split(0.7, RngStream(9, [4]))
        assert np.array_equal(t1.X, t2.X)

    def test_split_needs_two_per_class(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 2, 2]))
        with pytest.raises(EmptyClassError):
            data.split(0.7, RngStream(0))


def _refusals():
    """(field, call) for each refusal of a value outside its domain: the
    shape, range and embedding-dimension checks, then the one finite rule at
    each of its sites."""
    eye2, eye3 = make_spd(np.eye(2)), make_spd(np.eye(3))
    zero2, zero3 = np.zeros(2), np.zeros(3)
    model2 = TwoClassGaussian.zero_mean(eye2, eye2)
    model3 = TwoClassGaussian.zero_mean(eye3, eye3)
    frame3 = ProjectionMatrix(np.eye(3)[:, :2])
    nan2 = np.array([np.nan, 0.0])

    def config(**fields):
        return SweepConfig(**{"family": "example1", "p": (3,), "q": (1,), **fields})

    def record(**metric):
        fields = dict(family="example1", p=3, q=1, param1="", param2="", param3="")
        return SweepRecord(**fields, replicate=0, projection="pca", **metric)

    return {
        "spd_not_square": ("matrix", lambda: SpdMatrix(np.ones((2, 3)))),
        "frame_not_2d": ("projection", lambda: ProjectionMatrix(np.ones(3))),
        "frame_q_above_p": ("q", lambda: ProjectionMatrix(np.ones((2, 3)))),
        "pca_q_above_p": ("q", lambda: pca_projection(eye2, 3)),
        "eigenpairs_k_above_p": ("k", lambda: generalized_eigenpairs(eye2, eye2, k=3)),
        "eigenpairs_cov_2": ("cov_2", lambda: generalized_eigenpairs(eye2, eye3)),
        "model_cov_2": ("cov_2", lambda: TwoClassGaussian(0.5, zero2, zero2, eye2, eye3)),
        "model_mean_2": ("mean_2", lambda: TwoClassGaussian(0.5, zero2, zero3, eye2, eye2)),
        "dataset_labels_per_row": ("X", lambda: LabeledDataset(np.ones((3, 2)), [1, 2])),
        "predict_columns": (
            "x", lambda: fit_embedded_qda(model3, frame3).predict(np.ones((1, 2)))
        ),
        "predict_columns_no_frame_1": (
            "x", lambda: fit_embedded_qda(model2).predict(np.ones((1, 1)))
        ),
        "predict_columns_no_frame_3": (
            "x", lambda: fit_embedded_qda(model2).predict(np.ones((1, 3)))
        ),
        "oos_empty_val": (
            "val",
            lambda: oos_error(fit_embedded_qda(model2), LabeledDataset(np.ones((0, 2)), [])),
        ),
        "recon_cov_2": (
            "cov_2", lambda: reconstruction_error(frame3, eye3, eye3, eye3, eye2)
        ),
        "overlap_ambient_dim": ("w", lambda: embedded_overlap(model2, frame3)),
        "overlaps_embed_dim": (
            "ws", lambda: embedded_overlaps(model3, [frame3, ProjectionMatrix(np.eye(3))])
        ),
        "closed_form_eigenvalues": ("eigenvalues", lambda: optimal_overlap_closed_form([0.0])),
        "iw_df": ("df", lambda: sample_inverse_wishart(3, 1.5, RngStream(0))),
        "iw_order_0": ("dim", lambda: sample_inverse_wishart(0, 1.0, RngStream(0))),
        "iw_order_negative": ("dim", lambda: sample_inverse_wishart(-1, 1.0, RngStream(0))),
        "scaled_iw_df": ("df_1", lambda: gen_iw_pair(3, 2.5, 4, RngStream(0))),
        "scaled_iw_order_0": ("p", lambda: gen_iw_pair(0, 1, 1, RngStream(0))),
        "mixture_no_rows": ("x", lambda: mixture_covariance(np.ones((0, 2)))),
        "mixture_1d": ("x", lambda: mixture_covariance(np.ones(3))),
        "integer_pca_q": ("q", lambda: pca_projection(eye2, 1.5)),
        "integer_eigenpairs_k": ("k", lambda: generalized_eigenpairs(eye2, eye2, k=1.5)),
        "integer_mc_samples": (
            "n_samples", lambda: mc_bayes_risk(model2, None, 10.5, RngStream(0))
        ),
        "integer_n_simu": ("n_simu", lambda: config(n_simu=1.5)),
        "integer_workers": ("workers", lambda: config(workers=2.5)),
        "integer_p": ("p", lambda: config(p=(20.5,))),
        "integer_q": ("q", lambda: config(q=(1.5,))),
        "integer_sample_grid": (
            "sample_grid", lambda: config(mode="finite_sample_curve", sample_grid=(20.5,))
        ),
        "overlap_columns": (
            "x_2", lambda: column_overlap(np.ones((4, 2)), np.ones((4, 3)), 0.5, RngStream(0))
        ),
        "gaussian_mean": ("mean", lambda: sample_gaussian(zero3, eye2, 5, RngStream(0))),
        "empty_grid": ("q", lambda: expand_grid(SweepConfig(family="example1", p=(3,), q=(3,)))),
        "mixed_metrics": (
            "records",
            lambda: summarize([record(metric_overlap=0.2), record(metric_oos=0.4)], ["q"], "pca"),
        ),
        "finite_matrix": ("matrix", lambda: SpdMatrix(np.diag(nan2))),
        "finite_projection": ("projection", lambda: ProjectionMatrix(nan2[:, None])),
        "finite_mean_1": ("mean_1", lambda: TwoClassGaussian(0.5, nan2, zero2, eye2, eye2)),
        "finite_mean_2": ("mean_2", lambda: TwoClassGaussian(0.5, zero2, nan2, eye2, eye2)),
        "finite_X": ("X", lambda: LabeledDataset(np.array([nan2, nan2]), [1, 2])),
        "finite_mixture_x": ("x", lambda: mixture_covariance(np.array([nan2, nan2]))),
        "finite_predict_x": ("x", lambda: fit_embedded_qda(model2).predict(nan2[None])),
    }


@pytest.mark.parametrize("case", list(_refusals()))
def test_every_refusal_names_its_argument(case):
    """A value outside its domain is a ConfigError whose field names the
    argument that holds it."""
    field, call = _refusals()[case]
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.field == field
    assert str(err.value).startswith(f"{field}: ")
