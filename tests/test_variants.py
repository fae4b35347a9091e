import numpy as np
import pytest

from autojacobin.checks import check_gradients, random_instance
from autojacobin.network import ObjectiveConfig, objective
from autojacobin.variants import VariantConfig, draw_mask, lsh_generate


def test_variant_config_validation():
    with pytest.raises(ValueError):
        VariantConfig(kind="itq")
    with pytest.raises(ValueError):
        VariantConfig(corruption_t=1.5)
    with pytest.raises(ValueError):
        VariantConfig(lambda_c=-1.0)
    for field in ("corruption_t", "lambda_c"):
        with pytest.raises(ValueError, match=f"{field} must"):
            VariantConfig(**{field: float("nan")})
    assert VariantConfig(kind="auto-jacobin").needs_tangents
    assert not VariantConfig(kind="autobin").needs_tangents


def test_autobin_is_jacobin_minus_jacobian_part():
    p, batch, factors = random_instance(6, 3, 5, seed=0)
    cfg = ObjectiveConfig(alpha=0.1, epsilon=1e-4)
    full, parts, _ = objective(p, batch, factors, cfg)
    auto = objective(p, batch, None, cfg)[0]
    assert auto == pytest.approx(full - parts.jacobian, rel=1e-12)


def test_autobin_alpha_zero_is_plain_autoencoder():
    p, batch, _ = random_instance(5, 3, 4, seed=1)
    total, parts, _ = objective(p, batch, None, ObjectiveConfig(alpha=0.0))
    from autojacobin.network import forward_batch
    _, Z, _, _ = forward_batch(p, batch)
    assert total == pytest.approx(float(np.sum((batch - Z) ** 2)), rel=1e-12)
    assert parts.binary == 0.0


def test_draw_mask_extremes():
    # t = 0 masks nothing and t = 1 everything, whatever the draws
    shape = (6, 10)
    np.testing.assert_array_equal(draw_mask(shape, 0.0, np.random.default_rng(0)),
                                  np.zeros(shape, dtype=bool))
    np.testing.assert_array_equal(draw_mask(shape, 1.0, np.random.default_rng(0)),
                                  np.ones(shape, dtype=bool))
    with pytest.raises(ValueError):
        draw_mask(shape, -0.1, np.random.default_rng(2))


def test_corruption_mask_keeps_the_order_of_the_uniform_draws():
    # in blocks of rows, the mask reads the draws of one (N, D) uniform
    # array in the same order, and leaves the stream where it left it:
    # the trainer's next epoch permutation is the same
    D, N, t = 7, 300, 0.3
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    mask = VariantConfig(kind="dautobin", corruption_t=t).corrupt((N, D), rng)
    assert mask.dtype == np.bool_ and mask.shape == (N, D)
    np.testing.assert_array_equal(mask, ref.uniform(0.0, 1.0, size=(N, D)) <= t)
    np.testing.assert_array_equal(rng.permutation(N), ref.permutation(N))
    # and methods without corruption draw nothing
    assert VariantConfig(kind="autobin").corrupt((N, D), rng) is None
    np.testing.assert_array_equal(rng.permutation(N), ref.permutation(N))


def test_dautobin_t0_equals_autobin():
    p, batch, _ = random_instance(5, 3, 6, seed=4)
    cfg = ObjectiveConfig(alpha=0.1)
    a = objective(p, batch, None, cfg)[0]
    d = objective(p, batch, None, cfg, corrupted=batch.copy())[0]
    assert d == pytest.approx(a, rel=1e-12)


def test_dautobin_fully_corrupted_zero_params():
    from autojacobin.network import NetworkParams
    D, d, n = 4, 2, 5
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((D, n)).T
    p = NetworkParams(w1=np.zeros((d, D)), w2=np.zeros((D, d)),
                      b1=np.zeros(d), b2=np.zeros(D))
    total, parts, _ = objective(p, batch, None, ObjectiveConfig(alpha=0.0),
                                corrupted=np.zeros_like(batch))
    assert parts.recon == pytest.approx(float(np.sum(batch ** 2)), rel=1e-12)


def test_dautobin_shape_mismatch():
    p, batch, _ = random_instance(4, 2, 3, seed=6)
    with pytest.raises(ValueError, match="clean/corrupted batch shape mismatch"):
        objective(p, batch, None, ObjectiveConfig(), corrupted=batch[:-1])


def test_objective_rejects_two_middle_terms():
    p, batch, factors = random_instance(4, 2, 3, seed=9)
    with pytest.raises(ValueError, match="not both"):
        objective(p, batch, factors, ObjectiveConfig(), lambda_c=0.01)


def test_cautobin_lambda_zero_equals_autobin():
    p, batch, _ = random_instance(5, 3, 4, seed=7)
    cfg = ObjectiveConfig(alpha=0.1)
    a = objective(p, batch, None, cfg)[0]
    c = objective(p, batch, None, cfg, lambda_c=0.0)[0]
    assert c == pytest.approx(a, rel=1e-12)


def test_cautobin_contractive_value():
    # ||d y / d x||_F^2 summed over the batch, against an explicit loop
    p, batch, _ = random_instance(4, 3, 5, seed=8)
    lam = 0.01
    _, parts, _ = objective(p, batch, None, ObjectiveConfig(alpha=0.0), lambda_c=lam)
    from autojacobin.network import forward_batch
    Y, _, _, _ = forward_batch(p, batch)
    ref = 0.0
    for j in range(5):
        Jh = (p.w1 * (1.0 - Y[j] ** 2)[:, None]).T  # (D, d), entry (i,k)
        ref += lam * float(np.sum(Jh * Jh))
    assert parts.jacobian == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kind", ["auto-jacobin", "autobin", "dautobin", "cautobin"])
def test_gradients_match_finite_differences(kind):
    for seed in range(3):
        errors = check_gradients(kind, D=8, d=4, n=5, seed=seed)
        worst = max(errors.values())
        assert worst < 1e-6, f"{kind} seed {seed}: {errors}"


def test_lsh_deterministic_and_scale_invariant():
    a = lsh_generate(16, 8, seed=42)
    b = lsh_generate(16, 8, seed=42)
    np.testing.assert_array_equal(a.w1, b.w1)

    from autojacobin import hamming
    rng = np.random.default_rng(9)
    X = rng.standard_normal((16, 20)).T
    c1 = hamming.encode(a, X)
    c2 = hamming.encode(a, 2.0 * X)
    np.testing.assert_array_equal(c1.packed, c2.packed)


def test_lsh_collision_probability_tracks_angle():
    # random-hyperplane argument: P[bit disagree] = angle / pi
    rng = np.random.default_rng(10)
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([np.cos(1.0), np.sin(1.0), 0.0])  # angle 1 rad
    disagree = 0
    trials = 10_000
    W = np.random.default_rng(11).standard_normal((trials, 3))
    disagree = np.mean((W @ u >= 0) != (W @ v >= 0))
    assert abs(disagree - 1.0 / np.pi) < 0.02


def test_lsh_rejects_bad_bits():
    with pytest.raises(ValueError):
        lsh_generate(4, 0, seed=0)
