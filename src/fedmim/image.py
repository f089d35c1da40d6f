"""Image container, patch arithmetic, convolution, interpolation, PGM I/O.

Images are 2-D float64 numpy arrays in row-major (H, W) order with
intensities nominally in [0, 255]. Values stay in double precision
internally and are quantized only at file I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedFile, NonDivisible


def as_image(data) -> np.ndarray:
    """Validate and coerce to a 2-D float64 image."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be 2-D and non-empty, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    return img


@dataclass(frozen=True)
class PatchGrid:
    """An image cut into rows x cols patches of patch_h x patch_w pixels.

    patches has shape (L, N) with L = rows*cols and N = patch_h*patch_w;
    both patches and pixels within a patch are in row-major order.
    """

    patch_h: int
    patch_w: int
    rows: int
    cols: int
    patches: np.ndarray

    @property
    def num_patches(self) -> int:
        return self.rows * self.cols

    @property
    def patch_dim(self) -> int:
        return self.patch_h * self.patch_w


def patchify(img: np.ndarray, patch_h: int, patch_w: int) -> PatchGrid:
    """Split an image into non-overlapping patches in row-major patch order."""
    img = as_image(img)
    h, w = img.shape
    if patch_h < 1 or patch_w < 1 or h % patch_h != 0 or w % patch_w != 0:
        raise NonDivisible(
            f"patch size {patch_h}x{patch_w} does not tile image {h}x{w}"
        )
    rows = h // patch_h
    cols = w // patch_w
    blocks = img.reshape(rows, patch_h, cols, patch_w).transpose(0, 2, 1, 3)
    patches = blocks.reshape(rows * cols, patch_h * patch_w).copy()
    return PatchGrid(patch_h, patch_w, rows, cols, patches)


def depatchify(grid: PatchGrid) -> np.ndarray:
    """Exact inverse of patchify."""
    blocks = grid.patches.reshape(grid.rows, grid.cols, grid.patch_h, grid.patch_w)
    return blocks.transpose(0, 2, 1, 3).reshape(
        grid.rows * grid.patch_h, grid.cols * grid.patch_w
    ).copy()


def convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate a square odd-sized kernel over the image.

    Border handling is edge replication; the output has the same shape as
    the input. out[y, x] = sum_{i,j} kernel[i, j] * img[y+i-r, x+j-r].
    """
    img = as_image(img)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1] or kernel.shape[0] % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {kernel.shape}")
    k = kernel.shape[0]
    r = k // 2
    padded = np.pad(img, r, mode="edge")
    h, w = img.shape
    out = np.zeros_like(img)
    for i in range(k):
        for j in range(k):
            wij = kernel[i, j]
            if wij != 0.0:
                out += wij * padded[i : i + h, j : j + w]
    return out


def bilinear_sample_grid(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear blend of the 4 pixels around each (x, y); 0 outside
    [0, W-1] x [0, H-1]."""
    h, w = img.shape
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
    top = (1.0 - fx) * img[y0, x0] + fx * img[y0, x1]
    bot = (1.0 - fx) * img[y1, x0] + fx * img[y1, x1]
    out = (1.0 - fy) * top + fy * bot
    return np.where(inside, out, 0.0)


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
        raise MalformedFile(f"{path}: truncated PGM header")
    if tokens[0] != b"P5":
        raise MalformedFile(f"{path}: expected P5 magic, got {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise MalformedFile(f"{path}: non-numeric PGM header") from exc
    if width < 1 or height < 1:
        raise MalformedFile(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedFile(f"{path}: only maxval 255 supported, got {maxval}")
    i += 1  # single whitespace byte after maxval
    pixels = raw[i : i + width * height]
    if len(pixels) != width * height:
        raise MalformedFile(f"{path}: truncated pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).astype(np.float64)


def write_pgm(img: np.ndarray, path) -> None:
    """Write a binary (P5) PGM; rounds half up and clamps to [0, 255]."""
    img = as_image(img)
    quantized = np.clip(np.floor(img + 0.5), 0.0, 255.0).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())
