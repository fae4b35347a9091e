"""Points are rows from file to code: every reader returns the same (N, D)
C-ordered matrix for the same points, so a model does not depend on the
file format its points came from, and training keeps one row per point
and per tangent direction."""

import struct

import numpy as np
import pytest

from autojacobin import matrix_io, variants
from autojacobin.checks import random_instance
from autojacobin.cli import main
from autojacobin.network import forward_batch
from autojacobin.tangent import estimate_all_tangents


def _records(path, fmt, points):
    """Write points (N, D) by struct, one [int32 D][D values] record each."""
    D = points.shape[1]
    path.write_bytes(b"".join(struct.pack(f"<i{D}{fmt}", D, *row) for row in points))


def test_every_reader_returns_c_ordered_rows_in_record_order(tmp_path):
    rng = np.random.default_rng(0)
    points = rng.integers(0, 256, size=(37, 5))
    _records(tmp_path / "p.fvecs", "f", points)
    _records(tmp_path / "p.bvecs", "B", points)
    (tmp_path / "p.txt").write_text("".join(" ".join(map(str, row)) + "\n"
                                            for row in points))
    for name, read in (("p.fvecs", matrix_io.read_fvecs), ("p.bvecs", matrix_io.read_bvecs),
                       ("p.txt", matrix_io.read_txt)):
        X = read(tmp_path / name)
        assert X.dtype == np.float64 and X.flags.c_contiguous, name
        assert X.shape == (37, 5), name
        for i, row in enumerate(points):
            np.testing.assert_array_equal(X[i], row, err_msg=f"{name} record {i}")


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
@pytest.mark.parametrize("method", ["autobin", "auto-jacobin"])
def test_the_same_points_train_the_same_model_from_any_file_format(tmp_path, method):
    # at D = 64 a sum over the points rounds differently when it runs
    # along the memory (pairwise) than across it (one point at a time),
    # so a layout that followed the file format moved the model's bits
    rng = np.random.default_rng(1)
    points = rng.integers(0, 256, size=(240, 64)).astype(float)
    matrix_io.write_fvecs(tmp_path / "p.fvecs", points)
    matrix_io.write_bvecs(tmp_path / "p.bvecs", points)
    assert main(["convert", "--input", str(tmp_path / "p.fvecs"),
                 "--output", str(tmp_path / "p.txt")]) == 0
    models = []
    for fmt in ("fvecs", "bvecs", "txt"):
        model = tmp_path / f"{fmt}.ajb"
        assert main(["train", "--input", str(tmp_path / f"p.{fmt}"), "--bits", "8",
                     "--method", method, "--epochs", "2", "--batch", "120",
                     "--seed", "5", "--out", str(model)]) == 0
        models.append(model.read_bytes())
    assert models[1] == models[0], "bvecs and fvecs"
    assert models[2] == models[0], "txt and fvecs"


def test_training_holds_points_and_tangent_directions_as_rows():
    p, batch, _ = random_instance(9, 4, 50, seed=3)
    for out, width in zip(forward_batch(p, batch), (4, 9)):
        assert out.shape == (50, width) and out.flags.c_contiguous
    rng = np.random.default_rng(4)
    X = rng.standard_normal((120, 6)) * np.linspace(1.0, 1e-2, 6)
    ts = estimate_all_tangents(X, 3)
    assert ts.factors.shape == (120, max(ts.ranks), 6) and ts.factors.flags.c_contiguous
    for i, t in enumerate(ts):
        np.testing.assert_array_equal(t.basis, ts.factors[i, :ts.ranks[i]].T)
    # a mask of several blocks of rows reads the draws of one (N, D) array
    N, D = 1000, 100
    assert N * D > 3 * variants._MASK_DRAWS
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    mask = variants.draw_mask((N, D), 0.3, rng)
    np.testing.assert_array_equal(mask, ref.uniform(size=(N, D)) <= 0.3)
    assert rng.random() == ref.random()
