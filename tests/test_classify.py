"""Embedded QDA: decision geometry, risk estimates, reconstruction error."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

import covproj.classify
from covproj import (
    ConfigError,
    RiskEstimate,
    LabeledDataset,
    ProjectionMatrix,
    SingularEmbeddedCovarianceError,
    TwoClassGaussian,
    derive_stream,
    embedded_overlap,
    empirical_covariances,
    fit_embedded_qda,
    make_spd,
    mc_bayes_risk,
    oos_error,
    pca_projection,
    reconstruction_error,
    sample_two_class,
)
from conftest import rand_spd, rand_orthonormal


def scalar_var_model(var_1=1.0, var_2=4.0, weight_1=0.5):
    return TwoClassGaussian.zero_mean(
        make_spd(np.array([[var_1]])), make_spd(np.array([[var_2]])), weight_1
    )


def analytic_scalar_risk(var_1=1.0, var_2=4.0):
    """Quadrature oracle: balanced zero-mean classes with variances 1 and 4
    decide class 1 iff x^2 <= 8 ln(2) / 3; integrate both error masses."""
    x_star = math.sqrt(8.0 * math.log(2.0) / 3.0)
    p_err_1 = 2.0 * (1.0 - norm.cdf(x_star, scale=math.sqrt(var_1)))
    p_err_2 = norm.cdf(x_star, scale=math.sqrt(var_2)) - norm.cdf(
        -x_star, scale=math.sqrt(var_2)
    )
    return 0.5 * (p_err_1 + p_err_2)


def x_first_mc_bayes_risk(model, w, n_samples, stream):
    """The ambient-space Monte Carlo loop ``mc_bayes_risk`` replaced: form
    every block's samples x = m_k + L_k z in full, then classify W^T x."""
    rule = fit_embedded_qda(model, w)
    l_1 = model.cov_1.cholesky()
    l_2 = model.cov_2.cholesky()
    n_errors = 0
    done = 0
    block = 0
    while done < n_samples:
        nb = min(1 << 16, n_samples - done)
        g = stream.child(block).generator()
        u = g.random(nb)
        noise = g.standard_normal((nb, model.dim))
        labels = np.where(u < model.weight_1, 1, 2)
        x = np.empty_like(noise)
        mask = labels == 1
        x[mask] = model.mean_1 + noise[mask] @ l_1.T
        x[~mask] = model.mean_2 + noise[~mask] @ l_2.T
        n_errors += int(np.count_nonzero(rule.predict(x) != labels))
        done += nb
        block += 1
    estimate = n_errors / n_samples
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_samples)
    return RiskEstimate(estimate=estimate, std_error=std_error, n_samples=n_samples)


def _mc_case(name, g):
    """(model, w, n_samples) for the reference-equivalence cases."""
    p = 12
    model = TwoClassGaussian.zero_mean(rand_spd(g, p), rand_spd(g, p))
    if name == "identity":
        return model, None, 20_000
    if name == "pca":
        mix = make_spd(model.cov_1.entries + model.cov_2.entries)
        return model, pca_projection(mix, 3), 20_000
    if name == "random_w":
        return model, ProjectionMatrix(g.standard_normal((p, 3))), 20_000
    if name == "means_weight":
        shifted = TwoClassGaussian(
            0.3, g.standard_normal(p), 0.5 * g.standard_normal(p), model.cov_1, model.cov_2
        )
        return shifted, ProjectionMatrix(g.standard_normal((p, 4))), 20_000
    assert name == "cross_block"
    return model, ProjectionMatrix(g.standard_normal((p, 2))), (1 << 16) + 500


class TestDecisionGeometry:
    def test_identical_classes_decide_by_prior(self, g):
        c = rand_spd(g, 3)
        model = TwoClassGaussian.zero_mean(c, c, weight_1=0.7)
        rule = fit_embedded_qda(model)
        x = g.standard_normal((200, 3))
        assert np.all(rule.predict(x) == 1)
        minority = fit_embedded_qda(TwoClassGaussian.zero_mean(c, c, weight_1=0.3))
        assert np.all(minority.predict(x) == 2)

    def test_scalar_threshold(self):
        """Boundary at |x| = sqrt(8 ln 2 / 3) = 1.3596 for variances 1 vs 4."""
        rule = fit_embedded_qda(scalar_var_model())
        x_star = math.sqrt(8.0 * math.log(2.0) / 3.0)
        inside = np.array([[0.0], [1.2], [-1.2], [x_star - 1e-6]])
        outside = np.array([[1.5], [-1.5], [x_star + 1e-6]])
        assert np.all(rule.predict(inside) == 1)
        assert np.all(rule.predict(outside) == 2)

    def test_tie_goes_to_class_one(self, g):
        c = rand_spd(g, 2)
        rule = fit_embedded_qda(TwoClassGaussian.zero_mean(c, c, weight_1=0.5))
        assert np.all(rule.predict(g.standard_normal((50, 2))) == 1)

    def test_log_ratio_identity_without_priors(self, g):
        """-2 ln(p1/p2) = x^T (S1^{-1} - S2^{-1}) x + ln(det S1 / det S2)."""
        q = 4
        s1, s2 = rand_spd(g, q), rand_spd(g, q)
        rule = fit_embedded_qda(TwoClassGaussian.zero_mean(s1, s2), use_priors=False)
        x = g.standard_normal((20, q))
        inv1, inv2 = np.linalg.inv(s1.entries), np.linalg.inv(s2.entries)
        _, ld1 = np.linalg.slogdet(s1.entries)
        _, ld2 = np.linalg.slogdet(s2.entries)
        direct = np.einsum("ij,jk,ik->i", x, inv1 - inv2, x) + (ld1 - ld2)
        assert_allclose(rule.log_ratio(x), direct, rtol=1e-9)

    def test_prior_term_shifts_log_ratio(self, g):
        q = 3
        s1, s2 = rand_spd(g, q), rand_spd(g, q)
        model = TwoClassGaussian.zero_mean(s1, s2, weight_1=0.7)
        with_priors = fit_embedded_qda(model)
        without = fit_embedded_qda(model, use_priors=False)
        x = g.standard_normal((10, q))
        shift = with_priors.log_ratio(x) - without.log_ratio(x)
        assert_allclose(shift, -2.0 * math.log(0.7 / 0.3), rtol=1e-12)

    def test_prediction_invariant_under_right_factor(self, g):
        """Fitting on W and W R produces identical labels for invertible R."""
        p, q = 8, 3
        model = TwoClassGaussian.zero_mean(rand_spd(g, p), rand_spd(g, p))
        data = sample_two_class(model, 60, 60, derive_stream(201))
        w = ProjectionMatrix(g.standard_normal((p, q)))
        r = g.standard_normal((q, q)) + 3.0 * np.eye(q)
        wr = ProjectionMatrix(w.entries @ r)
        val = sample_two_class(model, 50, 50, derive_stream(202))
        pred_a = fit_embedded_qda(empirical_covariances(data), w).predict(val.X)
        pred_b = fit_embedded_qda(empirical_covariances(data), wr).predict(val.X)
        assert np.array_equal(pred_a, pred_b)

    def test_fit_deterministic(self, g):
        model = TwoClassGaussian.zero_mean(rand_spd(g, 5), rand_spd(g, 5))
        data = sample_two_class(model, 30, 30, derive_stream(203))
        w = ProjectionMatrix(np.eye(5)[:, :2], orthonormal_columns=True)
        a = fit_embedded_qda(empirical_covariances(data), w)
        b = fit_embedded_qda(empirical_covariances(data), w)
        assert a.model.cov_1.entries.tobytes() == b.model.cov_1.entries.tobytes()

    def test_stored_logdets_match_cholesky(self, g):
        model = TwoClassGaussian.zero_mean(rand_spd(g, 4), rand_spd(g, 4))
        rule = fit_embedded_qda(model)
        for k, cov in enumerate((rule.model.cov_1, rule.model.cov_2)):
            recomputed = 2.0 * np.sum(np.log(np.diag(cov.cholesky())))
            assert abs(rule.log_dets[k] - recomputed) <= 1e-10

    def test_singular_embedded_covariance_raised(self, g):
        """q above the class sample size makes the embedded fit impossible."""
        x = g.standard_normal((8, 10))
        data = LabeledDataset(x, np.array([1] * 4 + [2] * 4))
        w = ProjectionMatrix(g.standard_normal((10, 6)))
        with pytest.raises(SingularEmbeddedCovarianceError):
            fit_embedded_qda(empirical_covariances(data), w)
        fit_embedded_qda(empirical_covariances(data), w, ridge=1e-6)


def former_embedding(weights, means, covs, w, ridge):
    """The arithmetic of the former explicit-parameter QDA builder, kept as
    the reference: push each class through W, add the ridge, symmetrize."""
    p = covs[0].dim
    ridge_abs = 0.0
    if ridge > 0.0:
        ridge_abs = ridge * (
            (float(np.trace(covs[0].entries)) + float(np.trace(covs[1].entries)))
            / (2.0 * p)
        )
    q = p if w is None else w.embed_dim
    classes = []
    for k in range(2):
        if w is None:
            mean_k = np.asarray(means[k], dtype=np.float64)
            cov_k = covs[k].entries.copy()
        else:
            mean_k = w.entries.T @ np.asarray(means[k], dtype=np.float64)
            cov_k = w.entries.T @ covs[k].entries @ w.entries
        if ridge_abs > 0.0:
            cov_k = cov_k + ridge_abs * np.eye(q)
        cov_k = (cov_k + cov_k.T) / 2.0
        chol_k = np.linalg.cholesky(cov_k)
        classes.append((mean_k, cov_k, chol_k, 2.0 * float(np.sum(np.log(np.diag(chol_k))))))
    return weights, classes


class TestOneBuilder:
    """The trained rule is the Bayes rule of the plug-in model: building it
    from the estimates reproduces the former builder's arithmetic bit for bit."""

    @pytest.mark.parametrize("n_1, n_2", [(25, 25), (30, 20)])
    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    @pytest.mark.parametrize("projected", [False, True])
    def test_matches_former_builder_bitwise(self, g, n_1, n_2, ridge, projected):
        p, q = 6, 3
        model = TwoClassGaussian(
            0.5, g.standard_normal(p), g.standard_normal(p), rand_spd(g, p), rand_spd(g, p)
        )
        est = empirical_covariances(sample_two_class(model, n_1, n_2, derive_stream(204)))
        w = ProjectionMatrix(g.standard_normal((p, q))) if projected else None
        rule = fit_embedded_qda(est, w, ridge=ridge)
        weights, classes = former_embedding(
            (n_1 / (n_1 + n_2), n_2 / (n_1 + n_2)),
            (est.mean_1, est.mean_2),
            (est.cov_1, est.cov_2),
            w,
            ridge,
        )
        fitted = (rule.model.mean_1, rule.model.mean_2), (rule.model.cov_1, rule.model.cov_2)
        for k, (mean_k, cov_k, chol_k, log_det_k) in enumerate(classes):
            assert fitted[0][k].tobytes() == mean_k.tobytes()
            assert fitted[1][k].entries.tobytes() == cov_k.tobytes()
            assert rule.chol_factors[k].tobytes() == chol_k.tobytes()
            assert rule.log_dets[k] == log_det_k
        assert rule.model.weight_1 == weights[0]
        assert rule.model.weight_2 == 1.0 - weights[0]
        if n_1 == n_2:
            assert rule.model.weight_2 == weights[1] == 0.5

    @pytest.mark.parametrize("ridge", [-1.0, -1e-12, math.nan, math.inf, -math.inf])
    def test_invalid_ridge_rejected(self, g, ridge):
        model = TwoClassGaussian.zero_mean(rand_spd(g, 3), rand_spd(g, 3))
        w = ProjectionMatrix(g.standard_normal((3, 2)))
        with pytest.raises(ConfigError) as err:
            fit_embedded_qda(model, w, ridge=ridge)
        assert err.value.field == "ridge"


class TestOosError:
    def test_zero_on_agreeing_validation(self, g):
        c = rand_spd(g, 2)
        model = TwoClassGaussian.zero_mean(c, c, weight_1=0.9)
        rule = fit_embedded_qda(model)
        val = LabeledDataset(g.standard_normal((40, 2)), np.ones(40, dtype=int))
        assert oos_error(rule, val) == 0.0

    def test_half_on_identical_distributions(self, g):
        c = rand_spd(g, 3)
        model = TwoClassGaussian.zero_mean(c, c)
        rule = fit_embedded_qda(model)
        val = sample_two_class(model, 2000, 2000, derive_stream(211))
        err = oos_error(rule, val)
        assert abs(err - 0.5) <= 3.0 * math.sqrt(0.25 / val.n)

    def test_perfect_separation(self):
        """A 20-sigma mean gap in one dimension is never misclassified."""
        model = TwoClassGaussian(
            0.5,
            np.zeros(1),
            np.array([20.0]),
            make_spd(np.eye(1)),
            make_spd(np.eye(1)),
        )
        rule = fit_embedded_qda(model)
        val = sample_two_class(model, 500, 500, derive_stream(212))
        assert oos_error(rule, val) == 0.0


class TestMcBayesRisk:
    def test_identical_balanced_near_half(self, g):
        c = rand_spd(g, 3)
        model = TwoClassGaussian.zero_mean(c, c)
        risk = mc_bayes_risk(model, None, 50_000, derive_stream(221))
        assert abs(risk.estimate - 0.5) <= 3.0 * risk.std_error

    def test_scalar_case_matches_quadrature(self):
        risk = mc_bayes_risk(scalar_var_model(), None, 100_000, derive_stream(222))
        assert abs(risk.estimate - analytic_scalar_risk()) <= 3.0 * risk.std_error

    def test_dominated_by_overlap_bound(self, g):
        model = TwoClassGaussian.zero_mean(rand_spd(g, 4), rand_spd(g, 4))
        w = ProjectionMatrix(g.standard_normal((4, 2)))
        risk = mc_bayes_risk(model, w, 50_000, derive_stream(223))
        assert risk.estimate <= embedded_overlap(model, w) + 3.0 * risk.std_error

    def test_std_error_formula(self):
        risk = mc_bayes_risk(scalar_var_model(), None, 10_000, derive_stream(224))
        expected = math.sqrt(risk.estimate * (1 - risk.estimate) / risk.n_samples)
        assert risk.std_error == expected

    def test_nested_projections_monotone(self, g):
        """Adding PCA directions cannot raise the embedded Bayes risk."""
        model = TwoClassGaussian.zero_mean(rand_spd(g, 10), rand_spd(g, 10))
        mix = make_spd(model.cov_1.entries + model.cov_2.entries)
        base = pca_projection(mix, 5)
        stream = derive_stream(225)
        estimates = []
        for q in range(1, 6):
            w = ProjectionMatrix(base.entries[:, :q], orthonormal_columns=True)
            estimates.append(mc_bayes_risk(model, w, 20_000, stream))
        for a, b in zip(estimates, estimates[1:]):
            combined = math.hypot(a.std_error, b.std_error)
            assert b.estimate <= a.estimate + 3.0 * combined

    def test_oracle_classifier_cannot_beat_bayes(self, g):
        """Held-out loss of the population-parameter rule is at least the
        Monte Carlo Bayes risk, up to combined sampling noise."""
        model = TwoClassGaussian.zero_mean(rand_spd(g, 4), rand_spd(g, 4))
        rule = fit_embedded_qda(model)
        val = sample_two_class(model, 1500, 1500, derive_stream(228))
        loss = oos_error(rule, val)
        risk = mc_bayes_risk(model, None, 50_000, derive_stream(229))
        slack = 3.0 * math.hypot(risk.std_error, math.sqrt(0.25 / val.n))
        assert loss >= risk.estimate - slack

    def test_deterministic_given_stream(self):
        model = scalar_var_model()
        a = mc_bayes_risk(model, None, 5000, derive_stream(226, [1]))
        b = mc_bayes_risk(model, None, 5000, derive_stream(226, [1]))
        assert a.estimate == b.estimate

    def test_block_split_invariance(self):
        """Crossing the internal block boundary keeps prefix determinism."""
        model = scalar_var_model()
        big = mc_bayes_risk(model, None, (1 << 16) + 500, derive_stream(227))
        assert 0.25 <= big.estimate <= 0.45
        one_block = mc_bayes_risk(model, None, 1 << 16, derive_stream(227))
        count = round(one_block.estimate * one_block.n_samples)
        big_count = round(big.estimate * big.n_samples)
        assert count <= big_count <= count + 500

    @pytest.mark.parametrize(
        "case", ["identity", "pca", "random_w", "means_weight", "cross_block"]
    )
    def test_matches_x_first_reference(self, g, case):
        """Embedding the noise through W^T L_k gives the estimate of forming
        the ambient samples first, on the same draws."""
        model, w, n = _mc_case(case, g)
        stream = derive_stream(230)
        assert mc_bayes_risk(model, w, n, stream) == x_first_mc_bayes_risk(
            model, w, n, stream
        )

    @pytest.mark.parametrize("chunk", [1000, 1 << 16])
    def test_chunk_size_does_not_move_draws(self, g, monkeypatch, chunk):
        model, w, n = _mc_case("cross_block", g)
        expected = mc_bayes_risk(model, w, n, derive_stream(231))
        monkeypatch.setattr(covproj.classify, "_MC_CHUNK", chunk)
        assert mc_bayes_risk(model, w, n, derive_stream(231)) == expected

    def test_memory_independent_of_samples_times_p(self, g):
        """One p=200 block embeds chunk by chunk; the 65536 x 200 ambient
        sample (over 100 MB) is never formed."""
        model = TwoClassGaussian.zero_mean(rand_spd(g, 200), rand_spd(g, 200))
        w = pca_projection(make_spd(model.cov_1.entries + model.cov_2.entries), 5)
        tracemalloc.start()
        try:
            mc_bayes_risk(model, w, 1 << 16, derive_stream(232))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestReconstructionError:
    def test_zero_when_estimates_exact(self, g):
        c1, c2 = rand_spd(g, 4), rand_spd(g, 4)
        w = ProjectionMatrix(np.eye(4)[:, :2], orthonormal_columns=True)
        assert reconstruction_error(w, c1, c2, c1, c2) == 0.0

    def test_single_unit_discrepancy(self):
        p = 3
        identity = ProjectionMatrix(np.eye(p), orthonormal_columns=True)
        sigma = make_spd(np.eye(p))
        s_1 = make_spd(np.eye(p) + np.diag([1.0, 0.0, 0.0]))
        assert_allclose(
            reconstruction_error(identity, s_1, sigma, sigma, sigma), 0.5, rtol=1e-14
        )

    def test_orthogonal_right_factor_invariance(self, g):
        c1, c2 = rand_spd(g, 6), rand_spd(g, 6)
        s1, s2 = rand_spd(g, 6), rand_spd(g, 6)
        w = ProjectionMatrix(rand_orthonormal(g, 6, 3), orthonormal_columns=True)
        rot = rand_orthonormal(g, 3, 3)
        w_rot = ProjectionMatrix(w.entries @ rot)
        assert_allclose(
            reconstruction_error(w_rot, s1, s2, c1, c2),
            reconstruction_error(w, s1, s2, c1, c2),
            rtol=1e-9,
        )
