import numpy as np
import pytest

from autojacobin import synth, svgplot


def test_simplex_points_on_plane():
    rng = np.random.default_rng(0)
    X = synth.simplex_points(500, rng)
    assert X.shape == (500, 3)
    np.testing.assert_allclose(X.sum(axis=1), 1.0, atol=1e-12)
    assert X.min() > 0.0


def test_simplex_points_deterministic():
    a = synth.simplex_points(50, np.random.default_rng(1))
    b = synth.simplex_points(50, np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


def test_curved_manifold_shape_and_regeneration():
    rng = np.random.default_rng(2)
    X, params = synth.curved_manifold(300, 4, 16, rng, noise=0.0)
    assert X.shape == (300, 16) and X.flags.c_contiguous
    assert np.all(np.abs(X) <= 1.0 / np.sqrt(16) + 1e-12)
    more = synth.curved_manifold_more(100, params, rng)
    assert more.shape == (100, 16) and more.flags.c_contiguous


def test_curved_manifold_noise_scale():
    rng = np.random.default_rng(3)
    X0, params = synth.curved_manifold(2000, 2, 8, rng, noise=0.0)
    rng2 = np.random.default_rng(3)
    X1, _ = synth.curved_manifold(2000, 2, 8, rng2, noise=0.05)
    # same map, same parameter draws: difference is only the added noise
    assert np.std(X1 - X0) == pytest.approx(0.05, rel=0.05)


def _cosine_map_out_of_place(n, omega, phi, rng, noise):
    """The (n, D) rows of the points drawn one per column."""
    t = rng.uniform(0.0, 1.0, size=(omega.shape[1], n))
    X = np.cos(omega @ t + phi[:, None]) / np.sqrt(omega.shape[0])
    if noise > 0:
        X = X + noise * rng.standard_normal(X.shape)
    return X.T


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_curved_manifold_has_the_bits_of_the_out_of_place_expression(seed, noise):
    rng = np.random.default_rng(seed)
    X, params = synth.curved_manifold(500, 8, 64, rng, noise=noise)
    more = synth.curved_manifold_more(300, params, rng)
    ref = np.random.default_rng(seed)
    omega = ref.standard_normal((64, 8)) * 1.5
    phi = ref.uniform(0.0, 2.0 * np.pi, size=64)
    assert params[0].tobytes() == omega.tobytes()
    assert params[1].tobytes() == phi.tobytes()
    assert X.tobytes() == _cosine_map_out_of_place(500, omega, phi, ref, noise).tobytes()
    assert more.tobytes() == _cosine_map_out_of_place(300, omega, phi, ref, noise).tobytes()


def test_render_chart_basic_structure():
    svg = svgplot.render_chart([("a", [0, 1], [0.0, 1.0])], "x", "y", "t")
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1
    assert "t</text>" in svg and "x</text>" in svg and "y</text>" in svg


def test_render_chart_deterministic():
    series = [("s1", [0, 1, 2], [0.1, 0.5, 0.2]), ("s2", [0, 1, 2], [1, 2, 3])]
    a = svgplot.render_chart(series, "i", "recall")
    b = svgplot.render_chart(series, "i", "recall")
    assert a == b
    assert a.count("<polyline") == 2


def test_render_chart_escapes_markup():
    svg = svgplot.render_chart([("<b&d>", [0, 1], [0, 1])], "x", "y")
    assert "<b&d>" not in svg
    assert "&lt;b&amp;d&gt;" in svg


def test_render_chart_rejects_bad_series():
    with pytest.raises(ValueError):
        svgplot.render_chart([])
    with pytest.raises(ValueError):
        svgplot.render_chart([("a", [1, 2], [1.0])])
    with pytest.raises(ValueError):
        svgplot.render_chart([("a", [], [])])


def test_render_chart_flat_series_does_not_divide_by_zero():
    svg = svgplot.render_chart([("flat", [0, 1, 2], [0.5, 0.5, 0.5])])
    assert "<polyline" in svg
    assert "nan" not in svg.lower()
