"""Patch arithmetic, convolution, bilinear sampling, and PGM round trips."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedmim.errors import FedmimError
from fedmim.image import (
    as_image,
    bilinear_sample_grid,
    convolve2d,
    depatchify,
    patchify,
    read_pgm,
    write_pgm,
)

from oracles import bilinear_sample, convolve2d_taps

images = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 24), st.integers(2, 24)),
    elements=st.floats(0.0, 255.0, allow_nan=False),
)


def test_as_image_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_image(np.zeros(5))
    with pytest.raises(ValueError):
        as_image(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_image([[1.0, np.nan]])


def test_patchify_single_patch_is_image():
    img = np.arange(12.0).reshape(3, 4)
    patches = patchify(img, 3, 4)
    assert patches.shape == (1, 12)
    np.testing.assert_array_equal(patches[0].reshape(3, 4), img)


def test_patchify_constant_patches():
    img = np.full((4, 4), 7.0)
    patches = patchify(img, 2, 2)
    np.testing.assert_array_equal(patches, np.full((4, 4), 7.0))
    np.testing.assert_array_equal(depatchify(patches, 2, 2, img.shape), img)


def test_patchify_row_major_order():
    img = np.arange(16.0).reshape(4, 4)
    patches = patchify(img, 2, 2)
    # Patch 1 is the top-right 2x2 block, pixels row-major within it.
    np.testing.assert_array_equal(patches[1], [2.0, 3.0, 6.0, 7.0])


def test_patchify_writes_into_a_row_of_a_stack():
    img = np.arange(24.0).reshape(4, 6)
    stack = np.zeros((3, 6, 4))
    assert np.shares_memory(patchify(img, 2, 2, out=stack[1]), stack)
    np.testing.assert_array_equal(stack[1], patchify(img, 2, 2))
    np.testing.assert_array_equal(stack[[0, 2]], 0.0)


def test_patchify_rejects_non_divisible():
    with pytest.raises(FedmimError, match="^patch size 2x2 does not tile image 5x4$"):
        patchify(np.zeros((5, 4)), 2, 2)


@given(images, st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60)
def test_patchify_round_trip(img, ph, pw):
    h, w = img.shape
    img = img[: (h // ph) * ph, : (w // pw) * pw]
    if img.shape[0] < ph or img.shape[1] < pw:
        return
    np.testing.assert_array_equal(depatchify(patchify(img, ph, pw), ph, pw, img.shape), img)


def test_convolve_identity_kernel():
    img = np.arange(20.0).reshape(4, 5)
    np.testing.assert_array_equal(convolve2d(img, np.array([[1.0]])), img)


def test_convolve_box_kernel_hand_value():
    img = np.arange(25.0).reshape(5, 5)
    box = np.full((3, 3), 1.0 / 9.0)
    out = convolve2d(img, box)
    # Interior pixel (2, 2): mean of its 3x3 neighborhood.
    expected = img[1:4, 1:4].mean()
    assert out[2, 2] == pytest.approx(expected, abs=1e-12)


def brute_force_convolve(img, kernel):
    k = kernel.shape[0]
    r = k // 2
    h, w = img.shape
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(k):
                for j in range(k):
                    yy = min(max(y + i - r, 0), h - 1)
                    xx = min(max(x + j - r, 0), w - 1)
                    acc += kernel[i, j] * img[yy, xx]
            out[y, x] = acc
    return out


@given(images, st.integers(0, 1))
@settings(max_examples=25, deadline=None)
def test_convolve_matches_brute_force(img, which):
    rng = np.random.default_rng(int(img.sum()) % 1000 + which)
    k = 3 if which == 0 else 5
    kernel = rng.uniform(-1.0, 1.0, (k, k))
    np.testing.assert_allclose(
        convolve2d(img, kernel), brute_force_convolve(img, kernel), atol=1e-9
    )


odd_sizes = st.integers(0, 8).map(lambda r: 2 * r + 1)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 24), st.integers(1, 24)),
                  elements=st.just(-0.0) | st.floats(-300.0, 300.0)),
       st.tuples(odd_sizes, odd_sizes).flatmap(lambda shape: hnp.arrays(
           np.float64, shape, elements=st.just(0.0) | st.floats(-2.0, 2.0))))
@example(np.array([[-0.0, 1.0, -2.5]]), np.array([[0.0, -1.0, 0.5]]))
@example(np.arange(-6.0, 6.0).reshape(3, 4), np.array([[1.0], [0.0], [-3.0]]))
@settings(max_examples=100, deadline=None)
def test_convolve_bytes_equal_the_tap_loop(img, kernel):
    assert convolve2d(img, kernel).tobytes() == convolve2d_taps(img, kernel).tobytes()


def test_convolve_rejects_even_kernel():
    with pytest.raises(ValueError):
        convolve2d(np.zeros((4, 4)), np.zeros((2, 2)))


def test_bilinear_exact_at_integers():
    img = np.arange(12.0).reshape(3, 4)
    for y in range(3):
        for x in range(4):
            assert bilinear_sample_grid(img, float(x), float(y)) == img[y, x]


def test_bilinear_midpoint_blend():
    img = np.array([[0.0, 10.0], [20.0, 30.0]])
    assert bilinear_sample_grid(img, 0.5, 0.5) == pytest.approx(15.0)


def test_bilinear_outside_is_zero():
    img = np.ones((3, 3))
    assert bilinear_sample_grid(img, -0.1, 1.0) == 0.0
    assert bilinear_sample_grid(img, 1.0, 2.1) == 0.0


@given(images)
@settings(max_examples=30)
def test_bilinear_grid_matches_scalar(img):
    h, w = img.shape
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, w, 40)
    ys = rng.uniform(-1.0, h, 40)
    grid_vals = bilinear_sample_grid(img, xs, ys)
    for x, y, v in zip(xs, ys, grid_vals):
        assert v == pytest.approx(bilinear_sample(img, x, y), abs=1e-12)


def test_pgm_round_trip(tmp_path):
    img = np.arange(24.0).reshape(4, 6) * 10.0
    path = tmp_path / "a.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    np.testing.assert_array_equal(back, np.clip(np.floor(img + 0.5), 0, 255))


def test_pgm_quantization_rounds_half_up(tmp_path):
    img = np.array([[0.4, 0.5, 254.5, 300.0, -5.0]])
    path = tmp_path / "q.pgm"
    write_pgm(img, path)
    np.testing.assert_array_equal(read_pgm(path), [[0.0, 1.0, 255.0, 255.0, 0.0]])


def test_pgm_reads_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
    np.testing.assert_array_equal(read_pgm(path), [[1.0, 2.0], [3.0, 4.0]])


# Malformed PGM files, each with the message read_pgm gives after the path.
MALFORMED_PGM = {
    b"P2\n2 2\n255\n\x00\x00\x00\x00": "expected P5 magic, got b'P2'",
    b"P5\n2 2\n65535\n\x00\x00\x00\x00": "only maxval 255 supported, got 65535",
    b"P5\n2 2\n255\n\x00\x00": "truncated pixel data",
    b"P5\n2\n255\n": "truncated PGM header",
    b"P5\nx 2\n255\n\x00\x00\x00\x00": "non-numeric PGM header",
}


@pytest.mark.parametrize("raw", list(MALFORMED_PGM))
def test_pgm_malformed(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(FedmimError, match=re.escape(f"bad.pgm: {MALFORMED_PGM[raw]}") + "$"):
        read_pgm(path)
