"""Image container, patch arithmetic, convolution, interpolation, PGM I/O.

Images are 2-D float64 numpy arrays in row-major (H, W) order with
intensities nominally in [0, 255]. Values stay in double precision
internally and are quantized only at file I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FedmimError


def as_image(data) -> np.ndarray:
    """Validate and coerce to a 2-D float64 image."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be 2-D and non-empty, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    return img


def patchify(img: np.ndarray, patch_h: int, patch_w: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Split an image into its (L, N) patch rows: L = rows*cols patches of
    N = patch_h*patch_w pixels, patches and pixels both in row-major order.
    The rows go into out, a C-contiguous (L, N) float64 array, if given."""
    img = as_image(img)
    h, w = img.shape
    if patch_h < 1 or patch_w < 1 or h % patch_h != 0 or w % patch_w != 0:
        raise FedmimError(f"patch size {patch_h}x{patch_w} does not tile image {h}x{w}")
    rows = h // patch_h
    cols = w // patch_w
    if out is None:
        out = np.empty((rows * cols, patch_h * patch_w))
    # A view of out, as out is contiguous: one copy, straight from img.
    out.reshape(rows, cols, patch_h, patch_w)[...] = \
        img.reshape(rows, patch_h, cols, patch_w).transpose(0, 2, 1, 3)
    return out


def depatchify(patches: np.ndarray, patch_h: int, patch_w: int,
               shape: tuple[int, int]) -> np.ndarray:
    """Exact inverse of patchify: the (H, W) image of the patch rows."""
    h, w = shape
    blocks = patches.reshape(h // patch_h, w // patch_w, patch_h, patch_w)
    return blocks.transpose(0, 2, 1, 3).reshape(h, w).copy()


def convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate an odd-sized (kh, kw) kernel over the image.

    Border handling is edge replication; the output has the same shape as
    the input. out[y, x] = sum_{i,j} kernel[i, j] * img[y+i-ry, x+j-rx],
    summed tap by tap in row-major kernel order.
    """
    img = as_image(img)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
        raise ValueError(f"kernel must be 2-D with odd sizes, got {kernel.shape}")
    (kh, kw), (h, w) = kernel.shape, img.shape
    ry, rx, stride = kh // 2, kw // 2, w + kw - 1
    # The edge-replicated image, filled in place. Its rows sit stride apart,
    # as output rows do, so each tap is one run.
    padded = np.empty((h + kh - 1, stride))
    padded[ry:ry + h, rx:rx + w] = img
    padded[ry:ry + h, :rx], padded[ry:ry + h, rx + w:] = img[:, :1], img[:, -1:]
    padded[:ry], padded[ry + h:] = padded[ry], padded[ry + h - 1]
    padded = padded.ravel()
    out = np.zeros(h * stride)
    run = out[: (h - 1) * stride + w]
    for t in np.flatnonzero(kernel).tolist():  # row-major, as kernel.flat
        start = t // kw * stride + t % kw
        run += kernel.item(t) * padded[start : start + run.size]
    return out.reshape(h, stride)[:, :w].copy()


@dataclass(frozen=True)
class BilinearPlan:
    """Where and how to bilinearly sample an H x W source on a grid of
    points, independent of the source's pixel values.

    corners holds the flat source indices of the 4 pixels around each
    point, as (y0, x0), (y0, x1), (y1, x0), (y1, x1); weights holds
    1 - fx, fx, 1 - fy and fy; keep marks the points whose blend is kept
    (all others are 0). The arrays are read-only, so one plan can serve
    every image of its size.
    """

    shape: tuple[int, int]
    corners: np.ndarray
    weights: np.ndarray
    keep: np.ndarray


def bilinear_plan(shape: tuple[int, int], xs, ys, within=None) -> BilinearPlan:
    """The plan that samples an image of the given (H, W) shape at each
    (x, y); a point outside [0, W-1] x [0, H-1], or where within is False,
    samples 0."""
    h, w = shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = (xs >= 0.0) & (ys >= 0.0) & (xs <= w - 1) & (ys <= h - 1)
    xc = np.where(inside, xs, 0.0)
    yc = np.where(inside, ys, 0.0)
    x0 = np.floor(xc).astype(np.int64)
    y0 = np.floor(yc).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    corners = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1])
    weights = np.stack([1.0 - fx, fx, 1.0 - fy, fy])
    keep = np.asarray(inside if within is None else inside & within)
    for arr in (corners, weights, keep):
        arr.flags.writeable = False
    return BilinearPlan((h, w), corners, weights, keep)


def apply_bilinear(plan: BilinearPlan, img: np.ndarray) -> np.ndarray:
    """Sample img (of the plan's shape) at the plan's points."""
    if img.shape != plan.shape:
        raise ValueError(f"plan is for a {plan.shape} image, got {img.shape}")
    a, b, c, d = img.ravel().take(plan.corners)
    wx0, wx1, wy0, wy1 = plan.weights
    top = wx0 * a + wx1 * b
    bot = wx0 * c + wx1 * d
    out = wy0 * top + wy1 * bot
    return np.where(plan.keep, out, 0.0)


def bilinear_sample_grid(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear blend of the 4 pixels around each (x, y); 0 outside
    [0, W-1] x [0, H-1]."""
    return apply_bilinear(bilinear_plan(img.shape, xs, ys), img)


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM with maxval 255."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = []
    i = 0
    # Header tokens, skipping '#' comments.
    while len(tokens) < 4 and i < len(raw):
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        if i < len(raw) and raw[i : i + 1] == b"#":
            while i < len(raw) and raw[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(raw) and not raw[i : i + 1].isspace():
            i += 1
        if i > start:
            tokens.append(raw[start:i])
    if len(tokens) < 4:
        raise FedmimError(f"{path}: truncated PGM header")
    if tokens[0] != b"P5":
        raise FedmimError(f"{path}: expected P5 magic, got {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise FedmimError(f"{path}: non-numeric PGM header") from exc
    if width < 1 or height < 1:
        raise FedmimError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FedmimError(f"{path}: only maxval 255 supported, got {maxval}")
    i += 1  # single whitespace byte after maxval
    pixels = raw[i : i + width * height]
    if len(pixels) != width * height:
        raise FedmimError(f"{path}: truncated pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).astype(np.float64)


def write_pgm(img: np.ndarray, path) -> None:
    """Write a binary (P5) PGM; rounds half up and clamps to [0, 255]."""
    img = as_image(img)
    quantized = np.clip(np.floor(img + 0.5), 0.0, 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())
