import math

import numpy as np
import pytest

from scatterscore.augment import TrainingCorpus
from scatterscore.gmm import DegenerateCovarianceError, MixtureModel
from scatterscore.pairspace import (
    PairFeatures,
    ShapeParams,
    align_training_record,
    aligned_pair_from_model,
    compose_covariance,
    decompose_covariance,
    wrap_angle,
)

from conftest import random_spd

HALF_PI = math.pi / 2
IDENTITY = (1.0, 0.0, 1.0)


def angles_close(a, b, tol=1e-9):
    """Compare ellipse orientations modulo pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d) <= tol


def features_close(a, b, tol=1e-9):
    """Two aligned feature vectors (or PairFeatures) agree, thetas modulo pi."""
    va, vb = (np.asarray(f.as_vector() if isinstance(f, PairFeatures) else f) for f in (a, b))
    return np.allclose(va[:6], vb[:6], atol=tol) and all(angles_close(va[i], vb[i], tol) for i in (6, 7))


def as_matrix(cov) -> np.ndarray:
    xx, xy, yy = cov
    return np.array([[xx, xy], [xy, yy]])


def from_matrix(m) -> tuple[float, float, float]:
    return float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1])


def pair_row(tau, mean_u, mean_v, cov_u, cov_v) -> np.ndarray:
    """The aligned row of the pair (0, 1) of a two-component mixture."""
    model = MixtureModel([tau, 1.0 - tau], [mean_u, mean_v], [cov_u, cov_v], 0.0, 1)
    return aligned_pair_from_model(model, 0, 1)[0]


class TestCompose:
    def test_no_rotation(self):
        assert compose_covariance(ShapeParams(0.0, 2.0, 1.0)) == (4.0, 0.0, 1.0)

    def test_quarter_turn_swaps_axes(self):
        assert compose_covariance(ShapeParams(HALF_PI, 2.0, 1.0)) == pytest.approx((1.0, 0.0, 4.0), abs=1e-12)

    def test_isotropic_rotation_invariant(self):
        assert compose_covariance(ShapeParams(math.pi / 4, 1.0, 1.0)) == pytest.approx(IDENTITY, abs=1e-12)


class TestDecompose:
    def test_identity_is_isotropic_convention(self):
        assert decompose_covariance(IDENTITY) == ShapeParams(0.0, 1.0, 1.0)

    def test_axis_aligned(self):
        shape = decompose_covariance((4.0, 0.0, 1.0))
        assert shape.theta == 0.0
        assert shape.sigma_x == pytest.approx(2.0, abs=1e-12)
        assert shape.sigma_y == pytest.approx(1.0, abs=1e-12)

    def test_larger_axis_along_y(self):
        shape = decompose_covariance((1.0, 0.0, 4.0))
        assert shape.theta == pytest.approx(HALF_PI, abs=1e-12)
        assert shape.sigma_x == pytest.approx(2.0)  # largest axis first

    def test_array_row_same_as_floats(self):
        cov = random_spd(np.random.default_rng(3))
        assert decompose_covariance(np.array(cov)) == decompose_covariance(cov)

    def test_roundtrip_on_random_spd(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            cov = random_spd(rng)
            back = compose_covariance(decompose_covariance(cov))
            for a, b in zip(back, cov):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

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
        assert a == pytest.approx(b, abs=1e-12)
        da, db = decompose_covariance(a), decompose_covariance(b)
        assert angles_close(da.theta, db.theta, tol=1e-12)
        assert da.sigma_x == pytest.approx(db.sigma_x, abs=1e-12)
        assert da.sigma_y == pytest.approx(db.sigma_y, abs=1e-12)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(DegenerateCovarianceError):
            decompose_covariance((1.0, 1.0, 1.0))

    @pytest.mark.parametrize("cov", [(0.0, 0.0, 1.0), (1.0, 2.0, 1.0), (-1.0, 0.0, -1.0), (1e-200, 0.0, 1e-200)])
    def test_rejects_every_non_positive_definite_kind(self, cov):
        with pytest.raises(DegenerateCovarianceError):
            decompose_covariance(cov)


class TestExtractPairFeatures:
    """Pair features of a fitted mixture's components, from ``aligned_pair_from_model``."""

    def make_model(self, w=(0.5, 0.5), means=((0.0, 0.0), (0.0, 3.0)), covs=(IDENTITY, IDENTITY)):
        return MixtureModel(weights=w, means=means, covs=covs, log_likelihood=0.0, n_points=1)

    def test_weight_ratio(self):
        # the third component absorbs the remaining mass; tau only sees the pair
        model = self.make_model(w=(0.3, 0.6, 0.1), means=((0, 0), (1, 0), (5, 5)), covs=(IDENTITY,) * 3)
        assert aligned_pair_from_model(model, 0, 1)[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_direct_substitution(self):
        rows = aligned_pair_from_model(self.make_model(), 0, 1)
        assert rows.shape == (1, 8)
        assert rows[0].tolist() == [0.5, 1.0, 1 / 3, 1 / 3, 1 / 3, 1 / 3, 0.0, 0.0]

    def test_coincident_means(self):
        assert aligned_pair_from_model(self.make_model(means=((1.0, 1.0), (1.0, 1.0))), 0, 1)[0, 1] == 0.0

    def test_same_index_rejected(self):
        with pytest.raises(ValueError):
            aligned_pair_from_model(self.make_model(), 1, 1)

    def test_rows_equal_one_pair_at_a_time(self):
        rng = np.random.default_rng(12)
        weights = rng.dirichlet(np.ones(5))
        model = self.make_model(w=weights, means=rng.normal(size=(5, 2)) * 4.0,
                                covs=[random_spd(rng) for _ in range(5)])
        u, v = np.triu_indices(5, 1)
        rows = aligned_pair_from_model(model, u, v)
        assert rows.shape == (10, 8)
        one_by_one = np.concatenate([aligned_pair_from_model(model, a, b) for a, b in zip(u.tolist(), v.tolist())])
        assert rows.tobytes() == one_by_one.tobytes()
        assert all(PairFeatures.from_vector(row) for row in rows)

    def test_no_pairs_no_rows(self):
        assert aligned_pair_from_model(self.make_model(), [], []).shape == (0, 8)

    def test_degenerate_component_of_a_pair_rejected(self):
        model = self.make_model(w=(0.3, 0.3, 0.4), means=((0, 0), (1, 0), (5, 5)),
                                covs=(IDENTITY, (1.0, 1.0, 1.0), IDENTITY))
        assert aligned_pair_from_model(model, 0, 2).shape == (1, 8)
        with pytest.raises(DegenerateCovarianceError):
            aligned_pair_from_model(model, [0, 0], [2, 1])

    @pytest.mark.parametrize(
        "u,v,message",
        [(1, 1, "must differ"), ([0, 1], [1, 1], "must differ"), (0, 2, "out of range"), (-1, 0, "out of range"),
         ([0, 1], [1], "got 2 first and 1 second")],
    )
    def test_bad_indices_rejected(self, u, v, message):
        with pytest.raises(ValueError, match=message):
            aligned_pair_from_model(self.make_model(), u, v)


class TestAlign:
    """A pair turned so that center v lies straight above center u, and rescaled."""

    def test_centers_on_y_axis_no_correction(self):
        shape_u, shape_v = ShapeParams(0.2, 2.0, 1.0), ShapeParams(-0.3, 1.5, 0.5)
        row = pair_row(0.4, (0.0, 0.0), (0.0, 5.0), compose_covariance(shape_u), compose_covariance(shape_v))
        assert row[6] == pytest.approx(0.2, abs=1e-12)
        assert row[7] == pytest.approx(-0.3, abs=1e-12)
        assert row[1] == 1.0  # mu = 5 dominates the sigmas

    def test_coincident_means_beta_zero(self):
        row = pair_row(0.5, (1.0, 1.0), (1.0, 1.0), compose_covariance(ShapeParams(0.4, 2.0, 1.0)), IDENTITY)
        assert row[6] == pytest.approx(0.4, abs=1e-12)
        assert row[1] == 0.0

    def test_scale_invariance(self):
        cov_u, cov_v = compose_covariance(ShapeParams(0.2, 2.0, 1.0)), compose_covariance(ShapeParams(-0.3, 1.5, 0.5))
        a = pair_row(0.4, (0.0, 0.0), (0.0, 5.0), cov_u, cov_v)
        b = pair_row(0.4, (0.0, 0.0), (0.0, 50.0), [100 * c for c in cov_u], [100 * c for c in cov_v])
        assert features_close(a, b, tol=1e-12)

    def test_normalization_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            row = pair_row(rng.uniform(0.1, 0.9), (0.0, 0.0), (0.0, rng.uniform(0.0, 8.0)), random_spd(rng),
                           random_spd(rng))
            assert max(row[1:6]) == pytest.approx(1.0, abs=1e-9)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mean_u = rng.normal(size=2)
            mean_v = rng.normal(size=2) * 3.0
            cov_u, cov_v = as_matrix(random_spd(rng)), as_matrix(random_spd(rng))
            tau = rng.uniform(0.1, 0.9)
            base = pair_row(tau, mean_u, mean_v, from_matrix(cov_u), from_matrix(cov_v))

            delta = rng.uniform(-math.pi, math.pi)
            scale = rng.uniform(0.1, 10.0)
            shift = rng.normal(size=2) * 5.0
            c, s = math.cos(delta), math.sin(delta)
            rot = np.array([[c, -s], [s, c]])
            moved = pair_row(
                tau,
                scale * rot @ mean_u + shift,
                scale * rot @ mean_v + shift,
                from_matrix(scale**2 * rot @ cov_u @ rot.T),
                from_matrix(scale**2 * rot @ cov_v @ rot.T),
            )
            assert features_close(base, moved, tol=1e-8)

    def test_idempotent_on_aligned_features(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            mu = rng.uniform(0.5, 6.0)
            once = pair_row(rng.uniform(0.1, 0.9), (0.0, 0.0), (0.0, mu), random_spd(rng), random_spd(rng))
            aligned = PairFeatures.from_vector(once)
            again = pair_row(aligned.tau, (0.0, 0.0), (0.0, aligned.mu), compose_covariance(aligned.shape_u),
                             compose_covariance(aligned.shape_v))
            assert features_close(once, again, tol=1e-9)


class TestAlignTrainingRecord:
    def test_isotropic_fixed_point(self):
        raw = PairFeatures(0.5, 0.0, ShapeParams(0.0, 1.0, 1.0), ShapeParams(0.0, 1.0, 1.0))
        out = align_training_record(raw)
        assert type(out) is PairFeatures
        assert out.shape_u == ShapeParams(0.0, 1.0, 1.0)
        assert out.shape_v == ShapeParams(0.0, 1.0, 1.0)

    def test_roundtrip_canonical_equivalent(self):
        raw_shape = ShapeParams(HALF_PI, 2.0, 1.0)
        raw = PairFeatures(0.5, 0.0, raw_shape, ShapeParams(0.0, 0.5, 0.5))
        out = align_training_record(raw)
        s = 2.0  # max sigma after roundtrip
        back = [c * s * s for c in compose_covariance(out.shape_u)]
        assert back == pytest.approx(compose_covariance(raw_shape), abs=1e-9)

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

    def test_same_rule_as_a_mixture_pair(self):
        # a generator record is the pair of a mixture with weights tau and 1 - tau, u at the origin and v at
        # (0, mu): the same row, bit for bit, also at coincident or nearly coincident centers and at theta = +-pi/2
        rng = np.random.default_rng(4)
        for i in range(10_000):
            tau = (rng.uniform(0.01, 0.99), 1e-9, 0.5, 1.0 - 1e-9)[i % 4]
            mu = (rng.uniform(0.0, 10.0), 0.0, rng.uniform(0.0, 1e-12), 1e-12)[i // 4 % 4]
            thetas = (rng.uniform(-HALF_PI, HALF_PI), rng.uniform(-HALF_PI, HALF_PI), HALF_PI, -HALF_PI)
            su, sv = (ShapeParams(thetas[(i // 16 + j) % 4], *rng.uniform(0.3, 3.0, size=2)) for j in (0, 1))
            record = align_training_record(PairFeatures(tau, mu, su, sv)).as_vector()
            mixture = pair_row(tau, (0.0, 0.0), (0.0, mu), compose_covariance(su), compose_covariance(sv))
            assert record.tobytes() == mixture.tobytes(), (tau, mu, su, sv)


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
            (math.nextafter(HALF_PI, 4), HALF_PI),  # the modulo rounds to pi, which lands on -pi/2
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
        with pytest.raises(ValueError, match="max scale 1"):
            TrainingCorpus(X=[[0.5, 2.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]], y=[1], origin_ids=["a"])

    def test_accepts_both_half_pi_endpoints(self):
        PairFeatures(0.5, 1.0, ShapeParams(-HALF_PI, 0.5, 0.5), ShapeParams(HALF_PI, 0.5, 0.5))
        TrainingCorpus(X=[[0.5, 1.0, 0.5, 0.5, 0.5, 0.5, -HALF_PI, HALF_PI]], y=[1], origin_ids=["a"])


class TestVectorCodec:
    def test_from_vector_inverts_as_vector(self):
        raw = PairFeatures(0.3, 2.0, ShapeParams(0.4, 1.5, 0.5), ShapeParams(-0.2, 1.0, 2.5))
        assert PairFeatures.from_vector(raw.as_vector()) == raw
        aligned = align_training_record(raw)
        assert PairFeatures.from_vector(aligned.as_vector()) == aligned

    def test_from_vector_validates(self):
        with pytest.raises(ValueError):
            PairFeatures.from_vector([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
