"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

pytest.register_assert_rewrite("invariance")
from invariance import invariance  # noqa: E402,F401  (the fixture)

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

from fedmim.model import ModelConfig
from fedmim.rng import Rng
from fedmim.tgm import select_mask


def random_sample(cfg: ModelConfig, rng: Rng):
    """A random (patches, masked) sample matching the model config.

    Pixel values span [0, 255]; the mask is drawn from random texture
    scores so its composition varies across draws.
    """
    patches = np.array(
        [[rng.uniform(0.0, 255.0) for _ in range(cfg.patch_dim)]
         for _ in range(cfg.num_patches)]
    )
    scores = np.array([rng.random() for _ in range(cfg.num_patches)])
    return patches, select_mask(scores, 0.5)


def explicit_sample(cfg: ModelConfig, patches, masked):
    """(patches, mask), the mask True at the patch indices in masked."""
    mask = np.zeros(cfg.num_patches, dtype=bool)
    mask[list(masked)] = True
    return np.asarray(patches, dtype=np.float64), mask
