import math

import numpy as np
import pytest

from scatterscore.gmm import (
    Covariance2,
    DegenerateCovarianceError,
    GaussianComponent,
    MixtureModel,
    Point2D,
)
from scatterscore.pairspace import (
    AlignedPairFeatures,
    PairFeatures,
    ShapeParams,
    align,
    align_training_record,
    compose_covariance,
    decompose_covariance,
    extract_pair_features,
    wrap_angle,
)

from conftest import random_spd

HALF_PI = math.pi / 2


def angles_close(a, b, tol=1e-9):
    """Compare ellipse orientations modulo pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d) <= tol


def features_close(a: PairFeatures, b: PairFeatures, tol=1e-9):
    va, vb = a.as_vector(), b.as_vector()
    return np.allclose(va[:6], vb[:6], atol=tol) and all(
        angles_close(va[i], vb[i], tol) for i in (6, 7)
    )


class TestCompose:
    def test_no_rotation(self):
        cov = compose_covariance(ShapeParams(0.0, 2.0, 1.0))
        assert (cov.xx, cov.xy, cov.yy) == (4.0, 0.0, 1.0)

    def test_quarter_turn_swaps_axes(self):
        cov = compose_covariance(ShapeParams(HALF_PI, 2.0, 1.0))
        assert cov.xx == pytest.approx(1.0, abs=1e-12)
        assert cov.xy == pytest.approx(0.0, abs=1e-12)
        assert cov.yy == pytest.approx(4.0, abs=1e-12)

    def test_isotropic_rotation_invariant(self):
        cov = compose_covariance(ShapeParams(math.pi / 4, 1.0, 1.0))
        assert cov.xx == pytest.approx(1.0, abs=1e-12)
        assert cov.xy == pytest.approx(0.0, abs=1e-12)
        assert cov.yy == pytest.approx(1.0, abs=1e-12)


class TestDecompose:
    def test_identity_is_isotropic_convention(self):
        shape = decompose_covariance(Covariance2(1.0, 0.0, 1.0))
        assert shape == ShapeParams(0.0, 1.0, 1.0)

    def test_axis_aligned(self):
        shape = decompose_covariance(Covariance2(4.0, 0.0, 1.0))
        assert shape.theta == 0.0
        assert shape.sigma_x == pytest.approx(2.0, abs=1e-12)
        assert shape.sigma_y == pytest.approx(1.0, abs=1e-12)

    def test_larger_axis_along_y(self):
        shape = decompose_covariance(Covariance2(1.0, 0.0, 4.0))
        assert shape.theta == pytest.approx(HALF_PI, abs=1e-12)
        assert shape.sigma_x == pytest.approx(2.0)  # largest axis first

    def test_roundtrip_on_random_spd(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            cov = random_spd(rng)
            back = compose_covariance(decompose_covariance(cov))
            assert abs(back.xx - cov.xx) <= 1e-9 * max(1.0, abs(cov.xx))
            assert abs(back.xy - cov.xy) <= 1e-9 * max(1.0, abs(cov.xy))
            assert abs(back.yy - cov.yy) <= 1e-9 * max(1.0, abs(cov.yy))

    def test_canonical_ordering_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            shape = decompose_covariance(random_spd(rng))
            assert shape.sigma_x >= shape.sigma_y
            assert -HALF_PI < shape.theta <= HALF_PI

    def test_swap_covariance_equivalence(self):
        # (theta, sx, sy) and (theta +- pi/2, sy, sx) compose identically
        shape = ShapeParams(0.3, 2.0, 0.7)
        swapped = ShapeParams(wrap_angle(0.3 + HALF_PI), 0.7, 2.0)
        a = compose_covariance(shape)
        b = compose_covariance(swapped)
        assert a.xx == pytest.approx(b.xx, abs=1e-12)
        assert a.xy == pytest.approx(b.xy, abs=1e-12)
        assert a.yy == pytest.approx(b.yy, abs=1e-12)
        da, db = decompose_covariance(a), decompose_covariance(b)
        assert angles_close(da.theta, db.theta, tol=1e-12)
        assert da.sigma_x == pytest.approx(db.sigma_x, abs=1e-12)
        assert da.sigma_y == pytest.approx(db.sigma_y, abs=1e-12)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DegenerateCovarianceError):
            decompose_covariance(Covariance2(1.0, 1.0, 1.0))


class TestExtractPairFeatures:
    def make_model(self, w=(0.5, 0.5), means=((0.0, 0.0), (0.0, 3.0)), covs=None):
        covs = covs or (Covariance2(1, 0, 1), Covariance2(1, 0, 1))
        comps = tuple(
            GaussianComponent(wi, Point2D(*m), c) for wi, m, c in zip(w, means, covs)
        )
        return MixtureModel(components=comps, log_likelihood=0.0, n_points=1)

    def test_weight_ratio(self):
        # third component absorbs the remaining mass; tau only sees the pair
        model = self.make_model(
            w=(0.3, 0.6, 0.1),
            means=((0, 0), (1, 0), (5, 5)),
            covs=(Covariance2(1, 0, 1),) * 3,
        )
        feats, _, _ = extract_pair_features(model, 0, 1)
        assert feats.tau == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_direct_substitution(self):
        model = self.make_model()
        feats, mu_u, mu_v = extract_pair_features(model, 0, 1)
        assert feats.tau == 0.5
        assert feats.mu == 3.0
        assert feats.shape_u == ShapeParams(0.0, 1.0, 1.0)
        assert feats.shape_v == ShapeParams(0.0, 1.0, 1.0)
        assert (mu_u, mu_v) == (Point2D(0.0, 0.0), Point2D(0.0, 3.0))

    def test_coincident_means(self):
        model = self.make_model(means=((1.0, 1.0), (1.0, 1.0)))
        feats, _, _ = extract_pair_features(model, 0, 1)
        assert feats.mu == 0.0

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            extract_pair_features(self.make_model(), 1, 1)


class TestAlign:
    def test_centers_on_y_axis_no_correction(self):
        raw = PairFeatures(0.4, 5.0, ShapeParams(0.2, 2.0, 1.0), ShapeParams(-0.3, 1.5, 0.5))
        out = align(raw, (0.0, 0.0), (0.0, 5.0))
        assert out.shape_u.theta == pytest.approx(0.2, abs=1e-12)
        assert out.shape_v.theta == pytest.approx(-0.3, abs=1e-12)
        assert out.mu == 1.0  # mu = 5 dominates the sigmas

    def test_scale_invariance(self):
        raw = PairFeatures(0.4, 5.0, ShapeParams(0.2, 2.0, 1.0), ShapeParams(-0.3, 1.5, 0.5))
        big = PairFeatures(0.4, 50.0, ShapeParams(0.2, 20.0, 10.0), ShapeParams(-0.3, 15.0, 5.0))
        a = align(raw, (0.0, 0.0), (0.0, 5.0))
        b = align(big, (0.0, 0.0), (0.0, 50.0))
        assert features_close(a, b, tol=1e-12)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            mu = rng.uniform(0.0, 8.0)
            raw = PairFeatures(
                rng.uniform(0.1, 0.9),
                mu,
                decompose_covariance(random_spd(rng)),
                decompose_covariance(random_spd(rng)),
            )
            out = align(raw, (0.0, 0.0), (0.0, mu))
            v = out.as_vector()
            assert max(v[1:6]) == pytest.approx(1.0, abs=1e-9)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mean_u = rng.normal(size=2)
            mean_v = rng.normal(size=2) * 3.0
            cov_u, cov_v = random_spd(rng), random_spd(rng)
            tau = rng.uniform(0.1, 0.9)

            def pipeline(mu_u, mu_v, mat_u, mat_v):
                raw = PairFeatures(
                    tau,
                    float(np.hypot(*(np.asarray(mu_v) - mu_u))),
                    decompose_covariance(Covariance2.from_matrix(mat_u)),
                    decompose_covariance(Covariance2.from_matrix(mat_v)),
                )
                return align(raw, tuple(mu_u), tuple(mu_v))

            base = pipeline(mean_u, mean_v, cov_u.as_matrix(), cov_v.as_matrix())

            delta = rng.uniform(-math.pi, math.pi)
            scale = rng.uniform(0.1, 10.0)
            shift = rng.normal(size=2) * 5.0
            c, s = math.cos(delta), math.sin(delta)
            rot = np.array([[c, -s], [s, c]])
            moved = pipeline(
                scale * rot @ mean_u + shift,
                scale * rot @ mean_v + shift,
                scale**2 * rot @ cov_u.as_matrix() @ rot.T,
                scale**2 * rot @ cov_v.as_matrix() @ rot.T,
            )
            assert features_close(base, moved, tol=1e-8)

    def test_idempotent_on_aligned_features(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            mu = rng.uniform(0.5, 6.0)
            raw = PairFeatures(
                rng.uniform(0.1, 0.9),
                mu,
                decompose_covariance(random_spd(rng)),
                decompose_covariance(random_spd(rng)),
            )
            once = align(raw, (0.0, 0.0), (0.0, mu))
            again = align(once, (0.0, 0.0), (0.0, once.mu))
            assert features_close(once, again, tol=1e-9)

    def test_coincident_means_beta_zero(self):
        raw = PairFeatures(0.5, 0.0, ShapeParams(0.4, 2.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        out = align(raw, (1.0, 1.0), (1.0, 1.0))
        assert out.shape_u.theta == pytest.approx(0.4, abs=1e-12)
        assert out.mu == 0.0


class TestAlignTrainingRecord:
    def test_isotropic_fixed_point(self):
        raw = PairFeatures(0.5, 0.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        out = align_training_record(raw)
        assert out.shape_u == ShapeParams(0.0, 1.0, 1.0)
        assert out.shape_v == ShapeParams(0.0, 1.0, 1.0)

    def test_roundtrip_canonical_equivalent(self):
        raw_shape = ShapeParams(HALF_PI, 2.0, 1.0)
        raw = PairFeatures(0.5, 0.0, raw_shape, ShapeParams(0.0, 0.5, 0.5))
        out = align_training_record(raw)
        a = compose_covariance(raw_shape)
        s = 2.0  # max sigma after roundtrip
        b = compose_covariance(out.shape_u)
        assert b.xx * s * s == pytest.approx(a.xx, abs=1e-9)
        assert b.xy * s * s == pytest.approx(a.xy, abs=1e-9)
        assert b.yy * s * s == pytest.approx(a.yy, abs=1e-9)

    def test_benchmark_grid_record(self):
        raw = PairFeatures(0.5, 3.0, ShapeParams(0.0, 2.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        out = align_training_record(raw)
        expect = [0.5, 1.0, 2 / 3, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0]
        assert np.allclose(out.as_vector(), expect, atol=1e-12)

    def test_sigma_order_normalized_through_roundtrip(self):
        # generator convention allows sigma_x < sigma_y; the roundtrip
        # re-expresses it with the largest axis first
        raw = PairFeatures(0.5, 0.0, ShapeParams(0.0, 1.0, 2.0), ShapeParams(0.0, 1.0, 1.0))
        out = align_training_record(raw)
        assert out.shape_u.sigma_x >= out.shape_u.sigma_y
        assert angles_close(out.shape_u.theta, HALF_PI, tol=1e-12)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "theta,expect",
        [
            (0.0, 0.0),
            (HALF_PI, HALF_PI),
            (-HALF_PI, HALF_PI),
            (0.6 * math.pi, -0.4 * math.pi),
            (math.pi, 0.0),
            (-2.3 * math.pi, 0.7 * math.pi - math.pi),
        ],
    )
    def test_values(self, theta, expect):
        assert wrap_angle(theta) == pytest.approx(expect, abs=1e-12)

    def test_range(self):
        for theta in np.linspace(-10, 10, 2001):
            w = wrap_angle(float(theta))
            assert -HALF_PI < w <= HALF_PI


class TestAlignedValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AlignedPairFeatures(0.5, 2.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))

    def test_accepts_both_half_pi_endpoints(self):
        AlignedPairFeatures(0.5, 1.0, ShapeParams(-HALF_PI, 0.5, 0.5), ShapeParams(HALF_PI, 0.5, 0.5))


class TestVectorCodec:
    def test_from_vector_inverts_as_vector(self):
        raw = PairFeatures(0.3, 2.0, ShapeParams(0.4, 1.5, 0.5), ShapeParams(-0.2, 1.0, 2.5))
        assert PairFeatures.from_vector(raw.as_vector()) == raw
        aligned = align_training_record(raw)
        back = AlignedPairFeatures.from_vector(aligned.as_vector())
        assert type(back) is AlignedPairFeatures and back == aligned

    def test_from_vector_validates(self):
        with pytest.raises(ValueError):
            AlignedPairFeatures.from_vector([0.5, 2.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
