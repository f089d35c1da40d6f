"""Shared fixtures and helpers for the test suite."""

import numpy as np

# Acceptance-criterion results, printed in the terminal summary so each
# criterion gets one visible pass/fail line even when capture is on.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d}: {status} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

from fedmim.image import PatchGrid
from fedmim.model import ModelConfig
from fedmim.rng import Rng
from fedmim.tgm import MaskPartition, select_mask


def random_sample(cfg: ModelConfig, rng: Rng, rows: int, cols: int):
    """A random (PatchGrid, MaskPartition) pair matching the model config.

    Pixel values span [0, 255]; the mask is drawn from random texture
    scores so its composition varies across draws.
    """
    assert rows * cols == cfg.num_patches
    patches = np.array(
        [[rng.uniform(0.0, 255.0) for _ in range(cfg.patch_dim)]
         for _ in range(cfg.num_patches)]
    )
    # patch_h/patch_w only need to multiply to patch_dim for model-side use.
    patch_h, patch_w = _factor(cfg.patch_dim)
    grid = PatchGrid(patch_h, patch_w, rows, cols, patches)
    scores = np.array([rng.random() for _ in range(cfg.num_patches)])
    part = select_mask(scores, 0.5)
    return grid, part


def explicit_sample(cfg: ModelConfig, patches: np.ndarray, masked, visible):
    patch_h, patch_w = _factor(cfg.patch_dim)
    rows, cols = _factor(cfg.num_patches)
    grid = PatchGrid(patch_h, patch_w, rows, cols, np.asarray(patches, dtype=np.float64))
    part = MaskPartition(tuple(masked), tuple(visible))
    return grid, part


def _factor(n: int) -> tuple[int, int]:
    """Split n into two factors as close to square as possible."""
    for a in range(int(np.sqrt(n)), 0, -1):
        if n % a == 0:
            return a, n // a
    return 1, n
