"""Fuzzed inputs to the commands: PGM files to the single-image commands,
and damaged checkpoints and labels.json files to finetune and a pretrain
resume. Every file, however malformed, ends in a documented exit code with
at most a one-line message."""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from fedmim.image import write_pgm

MAX_SIDE = 16

# Tokens that look like a header field but are not a plain positive integer.
ODD_NUMBERS = [b"", b"x", b"1e3", b"+4", b"-0", b"08", b"4.0", b"99999999999999999999"]


def _sometimes(draw, good, bad):
    """A draw from bad one time in five, else from good, so that most files
    are valid or broken in one place only."""
    return draw(bad) if draw(st.integers(0, 4)) == 4 else draw(good)


def _token(draw, good, bad) -> bytes:
    value = _sometimes(draw, good, bad)
    return value if isinstance(value, bytes) else str(value).encode()


@st.composite
def pgm_bytes(draw) -> bytes:
    """A P5 file with each header field, separator, the pixel data and the
    file's length drawn from valid and invalid choices."""
    magic = _token(draw, st.just(b"P5"),
                   st.sampled_from([b"P2", b"P6", b"P", b"p5", b"P55", b""]))
    sides = st.one_of(st.sampled_from([8, 16]), st.integers(1, MAX_SIDE))
    odd_sides = st.one_of(st.integers(-1, 0), st.sampled_from(ODD_NUMBERS))
    width = _token(draw, sides, odd_sides)
    height = _token(draw, sides, odd_sides)
    maxval = _token(draw, st.just(255), st.one_of(
        st.sampled_from([0, 1, 256, 65535]), st.sampled_from(ODD_NUMBERS)))
    separators = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# comment\n"])
    odd_separators = st.sampled_from([b"", b" #no newline", b"#\n", b"\n#"])
    data = magic
    for token in (width, height, maxval):
        data += _sometimes(draw, separators, odd_separators) + token
    data += _sometimes(draw, st.just(b"\n"), st.sampled_from([b" ", b"", b"\n\n"]))
    try:
        size = max(0, min(int(width) * int(height), MAX_SIDE * MAX_SIDE))
    except ValueError:
        size = draw(st.integers(0, MAX_SIDE * MAX_SIDE))
    size = max(0, size + _sometimes(draw, st.just(0), st.integers(-2, 2)))
    data += draw(st.binary(min_size=size, max_size=size))
    # A cut inside the header, or anywhere.
    cut = _sometimes(draw, st.none(), st.one_of(st.integers(0, 12), st.integers(0, len(data))))
    return data if cut is None else data[:cut]


def _valid_pgm(path: Path) -> Path:
    write_pgm(np.tile([0.0, 255.0], (MAX_SIDE, MAX_SIDE // 2)), path)
    return path


def _run(argv: list[str]) -> tuple[int | str, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # an exception escaping main is the failure
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


@given(pgm_bytes())
@example(b"")  # empty file
@example(b"P5\n# a comment and nothing else\n")
@example(b"P5\n1 1\n255\n\x80")  # one pixel
@example(b"P5\n16 16\n255\n" + b"\xff" * 255)  # one pixel short
@settings(max_examples=60, deadline=None)
def test_single_image_commands_exit_cleanly_on_any_pgm(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        fuzzed = root / "in.pgm"
        fuzzed.write_bytes(data)
        valid = _valid_pgm(root / "valid.pgm")
        out = str(root / "out.pgm")
        commands = [
            ["transform", "linear-to-convex", str(fuzzed), out],
            ["transform", "convex-to-linear", str(fuzzed), out],
            ["corrupt", str(fuzzed), out],
            ["mask-preview", str(fuzzed), out],
            ["eval", str(fuzzed), str(valid), "--report", str(root / "r.json")],
            ["eval", str(valid), str(fuzzed), "--report", str(root / "r.json")],
        ]
        bad = []
        for argv in commands:
            code, err = _run(argv)
            if (code not in (EXIT_OK, EXIT_CONFIG, EXIT_IO)
                    or err.count("\n") != (code != EXIT_OK) or "Traceback" in err):
                bad.append(f"{argv[0]} {argv[1]}: exit {code}, stderr {err!r}")
        assert not bad, f"input {data!r}:\n" + "\n".join(bad)


# A small run; the default lesion axes fit into 32 x 32 phantoms.
FUZZ_RUN = {
    "version": 1,
    "synth": {"n": 16, "width": 32, "height": 32, "class_mix": [0.5, 0.5, 0.0]},
    "model": {"embed_dim": 4},
    "federation": {"num_clients": 2, "total_rounds": 2},
    "optimizer": {"warmup_rounds": 1},
    "probe": {"epochs": 5, "warmup_rounds": 1},
}
FUZZED_FILES = ["run/checkpoint.json", "run/checkpoint.params", "data/labels.json"]


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A generated dataset and the checkpoint and trace of a run over it,
    and the argv of the finetune and pretrain resume that read them."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.json").write_text(json.dumps(FUZZ_RUN))
    (root / "resume.json").write_text(json.dumps(dict(FUZZ_RUN, resume_from=str(
        root / "run" / "checkpoint"))))
    base = ["--config", str(root / "run.json"), "--seed", "3"]
    assert main(base + ["--out", str(root / "data"), "generate"]) == EXIT_OK
    assert main(base + ["--out", str(root / "run"), "pretrain"]) == EXIT_OK
    # The checkpoint is at round 2 of 2: resuming it runs no round, but
    # still loads, synthesizes and saves.
    commands = [
        base + ["--out", str(root / "ft"), "finetune", str(root / "run" / "checkpoint"),
                str(root / "data")],
        ["--config", str(root / "resume.json"), "--seed", "3", "--out", str(root / "tail"),
         "pretrain"],
    ]
    for argv in commands:
        assert _resume_into_fresh_tail(root, argv) == (EXIT_OK, "")
    return root, commands


def _resume_into_fresh_tail(root: Path, argv: list[str]) -> tuple[int | str, str]:
    """_run(argv) with <root>/tail holding only the head's trace."""
    shutil.rmtree(root / "tail", ignore_errors=True)
    (root / "tail").mkdir()
    shutil.copy(root / "run" / "loss_trace.csv", root / "tail")
    return _run(argv)


@given(st.sampled_from(FUZZED_FILES), st.booleans(), st.integers(0, 2**16),
       st.integers(1, 255))
@example("run/checkpoint.json", False, 0, 1)  # an empty manifest
@example("run/checkpoint.params", False, 3, 1)  # a partial value
@example("data/labels.json", True, 0, ord("{") ^ ord("["))  # a list root
@settings(max_examples=100, deadline=None)
def test_damaged_checkpoint_or_labels_exit_cleanly(fuzz_run, name, flip, where, xor):
    # A file cut at a random byte, or with one byte flipped: exit 0 (a flip
    # can leave the file valid), 2 or 3, one stderr line, no traceback.
    root, commands = fuzz_run
    path = root / name
    original = path.read_bytes()
    data = bytearray(original)
    if flip:
        data[where % len(data)] ^= xor
    else:
        del data[where % len(data):]
    bad = []
    try:
        path.write_bytes(bytes(data))
        for argv in commands:
            code, err = _resume_into_fresh_tail(root, argv)
            if (code not in (EXIT_OK, EXIT_CONFIG, EXIT_IO)
                    or err.count("\n") != (code != EXIT_OK) or "Traceback" in err):
                bad.append(f"{argv[-1]}: exit {code}, stderr {err!r}")
    finally:
        path.write_bytes(original)
    assert not bad, f"{name} as {bytes(data)[:200]!r}:\n" + "\n".join(bad)
