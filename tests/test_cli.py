"""Command-line interface: subcommands, config handling, exit codes."""

import io
import json
import math
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedmim import cli, fed, model, synth
from fedmim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, _NULLABLE,
                        load_config, main)
from fedmim.image import read_pgm, write_pgm
from fedmim.metrics import auroc
from invariance import Case

# sha256 of checkpoint.params from `fedmim --seed 7 pretrain` with the
# default config. A change here means every default run's model changed.
DEFAULT_PRETRAIN_PARAMS_SHA256 = (
    "fa64a8a54bb762fe7e5ea15a9f127a526006fe4d7ed384f0685ebcb7a92ef5ff"
)
# sha256 of the same run's loss_trace.csv.
DEFAULT_PRETRAIN_TRACE_SHA256 = (
    "f3e15e2e72cf36df5e439e471a6010737646c7188d616923a4296bd7a52370c4"
)

# sha256 of checkpoint.params and loss_trace.csv from `fedmim --seed 7
# pretrain` with TWO_STEP_CONFIG: the default run, but with two local
# steps, so each round runs every client on its own and merges them.
TWO_STEP_CONFIG = {"version": 1, "federation": {"local_steps": 2}}
TWO_STEP_PARAMS_SHA256 = (
    "e29f579b8d4bcd2ded2cce28bf4b6065a0c42175a5595c059a5ef95d281ff6c0"
)
TWO_STEP_TRACE_SHA256 = (
    "eb2135b90e54febbcb1ccd38b258325e9cc22109905fd1f3095faddbda5e32b9"
)

# digest (see tests/invariance.py) of every file `fedmim --seed 7
# generate` writes with the default config, in name order.
DEFAULT_GENERATE_SHA256 = (
    "58c254bf6d1ce3102dac0f3288c54756764d997ec6de99159117f229383d5dc3"
)

# digest of `fedmim transform` in both directions on the first image and
# mask of `fedmim --seed 7 generate`.
DEFAULT_TRANSFORM_SHA256 = (
    "1a4c90552df816092759e2464975588aacd837679db0e8060f0356c7384d940b"
)

# digest of the previews and sidecars of `fedmim --seed 7 mask-preview` on
# the first two images of `fedmim --seed 7 generate`.
DEFAULT_MASK_PREVIEW_SHA256 = (
    "b92e8386a2521e7f8bd5c406b89b9d947a1cf95a3a05be3487d8f582569c526c"
)

# digest of every file `fedmim --seed 7 finetune` writes from the default
# pretrain checkpoint and generate directory, in name order.
DEFAULT_FINETUNE_SHA256 = (
    "678a676d3ce664947ea40d85da336cc42ae46748a8a3612a8646de81f877ae15"
)

# The config of the README's criterion-4 experiment.
EXPERIMENT_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "pretrain_experiment.json"

# The commands behind the golden hashes, each case run in a fresh process.
GENERATE = ("--seed", "7", "--out", "data", "generate")
PRETRAIN = ("--seed", "7", "--out", "run", "pretrain")
WARPS = [(direction, f"data/{stem}.pgm", f"{stem}.{direction}.pgm")
         for stem in ("img_0000", "mask_0000")
         for direction in ("linear-to-convex", "convex-to-linear")]
PREVIEWED = ("img_0000", "img_0001")
DEFAULT_IMAGES = Case((GENERATE, *(("transform", *warp) for warp in WARPS), *(
    ("--seed", "7", "mask-preview", f"data/{stem}.pgm", f"{stem}.preview.pgm")
    for stem in PREVIEWED)))
DEFAULT_CHAIN = Case((GENERATE, PRETRAIN,
                      ("--seed", "7", "--out", "ft", "finetune", "run/checkpoint", "data")))
TWO_STEP_PRETRAIN = Case((("--config", "c.json", *PRETRAIN),), {"c.json": TWO_STEP_CONFIG})

# Every golden case is checked at each perturbation. The pretrain and
# finetune bytes still move with numpy's SIMD dispatch.
PERTURBATIONS = [pytest.param("baseline", id=pytest.HIDDEN_PARAM), "blas2",
                 "no_x86_v4", "no_x86_v3"]
DISPATCH_BOUND = [*PERTURBATIONS[:2], *(
    pytest.param(p, marks=pytest.mark.xfail(strict=True,
                                            reason="ROADMAP item 3: numpy SIMD dispatch"))
    for p in PERTURBATIONS[2:])]


SMOKE = {
    "version": 1,
    "synth": {"n": 40, "width": 32, "height": 32, "class_mix": [0.5, 0.5, 0.0]},
    "model": {"embed_dim": 8},
    "federation": {"num_clients": 2, "total_rounds": 3, "local_steps": 2},
    "optimizer": {"warmup_rounds": 1},
    "probe": {"epochs": 30},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generate + pretrain + finetune chain shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SMOKE))
    base = ["--config", str(cfg_path), "--seed", "5"]
    assert main(base + ["--out", str(root / "data"), "generate"]) == EXIT_OK
    assert main(base + ["--out", str(root / "run"), "pretrain"]) == EXIT_OK
    assert main(base + ["--out", str(root / "ft"), "finetune",
                        str(root / "run" / "checkpoint"), str(root / "data")]) == EXIT_OK
    return root, cfg_path


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg["version"] == 1
    assert cfg["model"]["embed_dim"] == 32
    # The lesion section is synth.LesionSpec's defaults as JSON values.
    assert cfg["synth"]["lesion"] == {"intensity_delta": -60.0, "malignant_delta": None,
                                      "irregularity_range": [0.45, 0.85],
                                      "axis_range": [0.14, 0.24]}


def test_load_config_merges_leaves(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "model": {"embed_dim": 4},
                                "optimizer": {"eta_max": 1}}))
    cfg = load_config(str(path))
    assert cfg["model"]["embed_dim"] == 4
    assert cfg["patch"]["patch_h"] == 8  # untouched default
    assert cfg["optimizer"]["eta_max"] == 1  # an integer where a float is due


def test_unknown_config_key_is_exit_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "modle": {}}))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "generate"]) == EXIT_CONFIG


def test_threads_config_key_is_exit_2(tmp_path):
    # The thread count is a command-line flag, not a configuration key.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "threads": 1}))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "generate"]) == EXIT_CONFIG


@pytest.mark.parametrize("override, key", [
    ({"federation": {"num_clients": "4"}}, "federation.num_clients"),
    ({"federation": {"num_clients": True}}, "federation.num_clients"),
    ({"seed": 7.5}, "seed"),
    ({"synth": {"class_mix": "0.5,0.5,0"}}, "synth.class_mix"),
    ({"resume_from": 3}, "resume_from"),
    ({"synth": {"lesion": {"axis_range": [0.2]}}}, "synth.lesion.axis_range"),
], ids=["string-int", "bool-int", "float-seed", "string-list", "number-resume",
        "short-range"])
def test_config_value_of_wrong_type_is_exit_2(tmp_path, capsys, override, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(override, version=1)))
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "pretrain"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("override, message", [
    ({"model": {"patch_dim": 63}},
     "model.patch_dim 63 does not match the 64 that the patch and synth sections give"),
    ({"model": {"num_patches": 16}},
     "model.num_patches 16 does not match the 64 that the patch and synth sections give"),
    ({"model": {"num_patches": 64.0}}, "model.num_patches must be an integer, got 64.0"),
    ({"checkpoint_name": "checkpoint"}, "unknown config key: checkpoint_name"),
], ids=["patch_dim", "num_patches", "num_patches-float", "checkpoint_name"])
def test_removed_config_key_is_exit_2(tmp_path, capsys, monkeypatch, override, message):
    # The model shape follows from the patch and image sizes: a config may
    # state it, but only as it follows. The checkpoint is always
    # <out>/checkpoint.
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(override, version=1)))
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "pretrain"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_model_shape_keys_that_follow_are_accepted(workspace, tmp_path):
    # SMOKE's 32x32 phantoms in 8x8 patches give 16 patches of 64 pixels.
    root, _ = workspace
    cfg = dict(SMOKE, model=dict(SMOKE["model"], patch_dim=64, num_patches=16))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--seed", "5", "--out", str(tmp_path / "run"),
                 "pretrain"]) == EXIT_OK
    for name in ("loss_trace.csv", "checkpoint.json", "checkpoint.params"):
        assert (tmp_path / "run" / name).read_bytes() == \
            (root / "run" / name).read_bytes(), name


def _no_synthesis(*args, **kwargs):
    raise AssertionError("synthesized phantoms for an invalid config")


@pytest.mark.parametrize("override, message", [
    ({"synth": {"width": 60}}, "configuration error: "
     "patch.patch_h x patch.patch_w (8x8) does not tile synth.height x synth.width (64x60)"),
    ({"patch": {"patch_w": 5}}, "configuration error: "
     "patch.patch_h x patch.patch_w (8x5) does not tile synth.height x synth.width (64x64)"),
    ({"patch": {"mask_ratio": 0.005}}, "configuration error: "
     "patch.mask_ratio 0.005 masks 0 of the 64 patches; it must mask some but not all"),
    ({"patch": {"mask_ratio": 0.995}}, "configuration error: "
     "patch.mask_ratio 0.995 masks 64 of the 64 patches; it must mask some but not all"),
    ({"patch": {"mask_ratio": 1.0}}, "error: mask ratio must be in (0,1), got 1.0"),
], ids=["width", "patch-w", "mask-none", "mask-all", "mask-ratio-1"])
def test_bad_model_shape_is_exit_2_before_synthesis(tmp_path, capsys, monkeypatch,
                                                    override, message):
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(override, version=1)))
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "pretrain"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"{message}\n"


def test_wrong_version_is_exit_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 2}))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "generate"]) == EXIT_CONFIG


def test_generate_outputs(workspace):
    root, _ = workspace
    data = root / "data"
    assert (data / "labels.json").exists()
    records = json.loads((data / "labels.json").read_text())["samples"]
    assert len(records) == 40
    for rec in records[:3]:
        assert (data / f"img_{rec['index']:04d}.pgm").exists()
        assert (data / f"mask_{rec['index']:04d}.pgm").exists()


def test_generate_deterministic(workspace, tmp_path):
    root, cfg_path = workspace
    base = ["--config", str(cfg_path), "--seed", "5"]
    assert main(base + ["--out", str(tmp_path / "again"), "generate"]) == EXIT_OK
    for name in ("img_0000.pgm", "mask_0003.pgm", "labels.json"):
        assert (tmp_path / "again" / name).read_bytes() == \
            (root / "data" / name).read_bytes()


def _no_input_read(*args, **kwargs):
    raise AssertionError("read an input before checking --out")


@pytest.fixture
def no_work(monkeypatch):
    """Make synthesis and checkpoint reads fail the test, so an exit that
    comes before them is shown to."""
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    monkeypatch.setattr(fed, "load_checkpoint", _no_input_read)


def test_generate_missing_parent_is_exit_3(workspace, tmp_path, capsys, no_work):
    _, cfg_path = workspace
    capsys.readouterr()
    assert main(["--config", str(cfg_path),
                 "--out", str(tmp_path / "no" / "such" / "dir"),
                 "generate"]) == EXIT_IO
    assert capsys.readouterr().err.startswith(
        "I/O error: [Errno 2] --out has no parent directory")
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_train_missing_parent_is_exit_3(workspace, tmp_path, no_work, command):
    root, cfg_path = workspace
    inputs = ([str(root / "run" / "checkpoint"), str(root / "data")]
              if command == "finetune" else [])
    assert main(["--config", str(cfg_path), "--seed", "5",
                 "--out", str(tmp_path / "no" / "such" / "dir"),
                 command] + inputs) == EXIT_IO
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("command", ["generate", "pretrain", "finetune"])
def test_out_that_is_a_file_is_exit_3(workspace, tmp_path, capsys, no_work, command):
    root, cfg_path = workspace
    inputs = ([str(root / "run" / "checkpoint"), str(root / "data")]
              if command == "finetune" else [])
    out = tmp_path / "file"
    out.write_bytes(b"keep")
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--out", str(out),
                 command] + inputs) == EXIT_IO
    assert capsys.readouterr().err.startswith(
        "I/O error: [Errno 20] --out is not a directory")
    assert out.read_bytes() == b"keep"


def test_generate_negative_n_is_exit_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "synth": {"n": -3}}))
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "generate"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: n must be >= 0, got -3\n"
    assert not (tmp_path / "o" / "labels.json").exists()


@pytest.mark.parametrize("command", ["generate", "pretrain"])
@pytest.mark.parametrize("synth_section, message", [
    ({"speckle_strength": math.nan}, "speckle_strength must be >= 0, got nan"),
    ({"class_mix": [math.nan, 0.5, 0.5]},
     "class_mix must be a probability vector, got (nan, 0.5, 0.5)"),
    # No lesion is drawn, yet the lesion range is checked.
    ({"n": 4, "class_mix": [0.0, 0.0, 1.0], "lesion": {"axis_range": [0.3, 0.1]}},
     "axis_range must satisfy 0 < lo <= hi, got [0.3, 0.1]"),
    ({"n": 4, "background_level": math.nan}, "background_level must be finite, got nan"),
    ({"n": 4, "lesion": {"intensity_delta": math.nan}},
     "intensity_delta must be finite, got nan"),
    ({"n": 4, "lesion": {"malignant_delta": -math.inf}},
     "malignant_delta must be finite, got -inf"),
], ids=["nan-speckle", "nan-class-mix", "no-lesion-drawn", "nan-background",
        "nan-intensity-delta", "inf-malignant-delta"])
def test_bad_synth_value_is_exit_2(tmp_path, capsys, command, synth_section, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "synth": synth_section}))
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(out), command]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0, -1],
                         ids=["nan", "inf", "zero", "negative"])
def test_bad_alpha_is_exit_2_before_synthesis(tmp_path, capsys, monkeypatch, alpha):
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "federation": {"alpha": alpha}}))
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(out), "pretrain"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: federation.alpha must be "
                                       f"a finite number > 0, got {alpha}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "pretrain"])
@pytest.mark.parametrize("flag, config_seed", [
    (-1, None), (2**64, None), (None, -5), (None, 2**64),
], ids=["flag-negative", "flag-2^64", "config-negative", "config-2^64"])
def test_seed_outside_u64_is_exit_2(tmp_path, capsys, no_work, command, flag,
                                     config_seed):
    # Rng keeps a seed's low 64 bits: -1 would run as 2**64 - 1, 2**64 as 0.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1} if config_seed is None
                               else {"version": 1, "seed": config_seed}))
    out = tmp_path / "o"
    seed = [] if flag is None else ["--seed", str(flag)]
    capsys.readouterr()
    assert main(["--config", str(path), *seed, "--out", str(out), command]) == EXIT_CONFIG
    bad = config_seed if flag is None else flag
    assert capsys.readouterr().err == (
        f"configuration error: seed must be in [0, 2**64), got {bad}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "pretrain"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "2^64-1"])
def test_seed_at_u64_ends_is_accepted(tmp_path, command, seed):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SMOKE))
    assert main(["--config", str(path), "--seed", str(seed),
                 "--out", str(tmp_path / "o"), command]) == EXIT_OK


def test_pretrain_trace_rows(workspace):
    root, _ = workspace
    lines = (root / "run" / "loss_trace.csv").read_text().splitlines()
    assert lines[0] == "round,global_loss,eta"
    assert len(lines) == 1 + SMOKE["federation"]["total_rounds"] + 1  # round 0 + T
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 0.0


def test_pretrain_invalid_clients_is_exit_2(tmp_path):
    cfg = dict(SMOKE, federation=dict(SMOKE["federation"], num_clients=0))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "pretrain"]) == EXIT_CONFIG


def test_pretrain_thread_count_invariance(workspace, tmp_path):
    root, cfg_path = workspace
    base = ["--config", str(cfg_path), "--seed", "5"]
    assert main(base + ["--threads", "8", "--out", str(tmp_path / "run8"),
                        "pretrain"]) == EXIT_OK
    for name in ("loss_trace.csv", "checkpoint.params", "checkpoint.json"):
        assert (tmp_path / "run8" / name).read_bytes() == \
            (root / "run" / name).read_bytes()


def _pretrain_head(tmp_path) -> tuple[Path, list[str]]:
    """Pre-train SMOKE's first round into <tmp>/seg; return that directory
    and the argv that resumes the remaining rounds there."""
    head_cfg = dict(SMOKE, federation=dict(SMOKE["federation"], total_rounds=1))
    head_path = tmp_path / "head.json"
    head_path.write_text(json.dumps(head_cfg))
    out = tmp_path / "seg"
    assert main(["--config", str(head_path), "--seed", "5",
                 "--out", str(out), "pretrain"]) == EXIT_OK
    # The resumed run reads <out>/checkpoint before it writes the new one.
    tail_cfg = dict(SMOKE, resume_from=str(out / "checkpoint"))
    tail_path = tmp_path / "tail.json"
    tail_path.write_text(json.dumps(tail_cfg))
    return out, ["--config", str(tail_path), "--seed", "5", "--out", str(out), "pretrain"]


def test_pretrain_resume_matches_full_run(invariance):
    invariance.check(Case((("--config", "cfg.json", "--seed", "5", "--out", "run", "pretrain"),),
                          {"cfg.json": SMOKE}), "resume1")


def test_pretrain_resume_failed_save_keeps_head(workspace, tmp_path, monkeypatch):
    # A resumed run that fails while saving leaves the checkpoint and trace
    # it resumed from, and a retry then matches an uninterrupted run.
    root, _ = workspace
    out, tail = _pretrain_head(tmp_path)
    names = ("loss_trace.csv", "checkpoint.json", "checkpoint.params")
    head = {name: (out / name).read_bytes() for name in names}

    # The disk fills up as the save opens its second file for writing.
    writes = []

    def open_until_disk_full(path, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(path)
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(fed, "open", open_until_disk_full, raising=False)
    assert main(tail) == EXIT_IO
    monkeypatch.undo()
    assert {name: (out / name).read_bytes() for name in names} == head
    assert fed.load_checkpoint(str(out / "checkpoint")).round_index == 1
    assert main(tail) == EXIT_OK
    for name in names:
        assert (out / name).read_bytes() == (root / "run" / name).read_bytes(), name


def test_pretrain_resume_stops_at_first_nan_round(workspace, tmp_path, monkeypatch,
                                                 capsys):
    # A NaN loss at round 2 of a resumed run exits 4 before round 3 runs,
    # and writes nothing: the head's checkpoint and trace keep their bytes.
    out, tail = _pretrain_head(tmp_path)
    names = ("loss_trace.csv", "checkpoint.json", "checkpoint.params")
    head = {name: (out / name).read_bytes() for name in names}
    per_round = SMOKE["federation"]["num_clients"] * SMOKE["federation"]["local_steps"]
    calls = []

    def nan_at_round_2(*args):
        loss, grad = model.batch_loss_and_grad(*args)
        calls.append(args)
        return (math.nan if len(calls) == per_round + 1 else loss), grad

    monkeypatch.setattr(fed, "batch_loss_and_grad", nan_at_round_2)
    capsys.readouterr()
    assert main(tail) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: global loss at round 2 is nan\n"
    assert len(calls) == 2 * per_round  # rounds 1 and 2, no later one
    assert {name: (out / name).read_bytes() for name in names} == head
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


def test_pretrain_trains_without_its_phantoms(tmp_path, monkeypatch):
    # The clients own their patch rows, so no phantom outlives build_clients.
    made, alive = [], []
    generate, run = synth.generate_dataset, fed.run_pretraining

    def recording_generate(*args, **kwargs):
        dataset = generate(*args, **kwargs)
        made.extend(weakref.ref(sample) for sample in dataset)
        return dataset

    def counting_run(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return run(*args, **kwargs)

    monkeypatch.setattr(synth, "generate_dataset", recording_generate)
    monkeypatch.setattr(fed, "run_pretraining", counting_run)
    assert _run_config(SMOKE, ["--out", str(tmp_path / "run"), "pretrain"], tmp_path) \
        == (EXIT_OK, "")
    assert len(made) == SMOKE["synth"]["n"] and alive == [0]


@pytest.mark.parametrize("case, code, message", [
    ("missing-checkpoint", EXIT_IO, "I/O error: [Errno 2] No such file"),
    ("model-mismatch", EXIT_CONFIG,
     "configuration error: checkpoint model config does not match run config"),
    ("no-trace", EXIT_IO, "I/O error: resume requires an existing "),
], ids=["missing-checkpoint", "model-mismatch", "no-trace"])
def test_bad_resume_exits_before_synthesis(workspace, tmp_path, capsys, monkeypatch,
                                           case, code, message):
    # resume_from is read, and the trace it extends looked for, before any
    # phantom is synthesized; "no-trace" resumes into a fresh --out.
    root, _ = workspace
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    cfg = dict(SMOKE, resume_from=str(root / "run" / "checkpoint"))
    if case == "missing-checkpoint":
        cfg["resume_from"] = str(tmp_path / "nosuch" / "checkpoint")
    elif case == "model-mismatch":
        cfg["model"] = dict(SMOKE["model"], embed_dim=16)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["--config", str(path), "--seed", "5", "--out", str(tmp_path / "o"),
                 "pretrain"]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change", [
    {"federation": {"num_clients": 3, "local_steps": 1}},
    {"federation": {"local_steps": 1}},
    {"optimizer": {"eta_max": 1e-3}},
    {"optimizer": {"warmup_rounds": 0}},
    {"federation": {"alpha": 50.0}},
    {"synth": {"speckle_strength": 0.9}},
    {"corruption": {"p": 1.0}},
], ids=["clients-and-steps", "steps", "eta-max", "warmup", "alpha", "speckle", "corruption"])
def test_resume_from_another_federation_is_exit_2_before_synthesis(
        tmp_path, capsys, monkeypatch, change):
    # A checkpoint resumes only the federation it was trained in, on the
    # same data: any config value but the horizon, total_rounds, that
    # differs exits 2 before any phantom is synthesized, and the head keeps
    # its checkpoint and trace.
    out, tail = _pretrain_head(tmp_path)
    names = ("loss_trace.csv", "checkpoint.json", "checkpoint.params")
    head = {name: (out / name).read_bytes() for name in names}
    cfg = json.loads(Path(tail[1]).read_text())
    for section, fields in change.items():
        cfg[section] = dict(cfg.get(section, {}), **fields)
    Path(tail[1]).write_text(json.dumps(cfg))
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    capsys.readouterr()
    assert main(tail) == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: checkpoint federation "
                                       "config does not match run config\n")
    assert {name: (out / name).read_bytes() for name in names} == head


def test_resume_at_another_seed_is_a_federation_mismatch(tmp_path, capsys, monkeypatch):
    # The seed does not shape the model, so a resume at another seed is
    # refused as another federation, not as another model.
    out, tail = _pretrain_head(tmp_path)
    tail[tail.index("--seed") + 1] = "6"
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    capsys.readouterr()
    assert main(tail) == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: checkpoint federation "
                                       "config does not match run config\n")


def test_resume_from_checkpoint_without_config_is_exit_2_before_synthesis(
        tmp_path, capsys, monkeypatch):
    # A checkpoint whose manifest has no "config" record, as pretrain wrote
    # them before it kept one, cannot show what it was trained on.
    out, tail = _pretrain_head(tmp_path)
    manifest = json.loads((out / "checkpoint.json").read_text())
    del manifest["config"]
    (out / "checkpoint.json").write_text(json.dumps(manifest))
    trace = (out / "loss_trace.csv").read_bytes()
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    capsys.readouterr()
    assert main(tail) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: checkpoint {out}/checkpoint "
                                       f"has no config record to resume by\n")
    assert (out / "loss_trace.csv").read_bytes() == trace


@pytest.mark.parametrize("bad_round, message", [
    ("3", "error: {ck}.json: bad field: round must be an int >= 0, got '3'"),
    (3.0, "error: {ck}.json: bad field: round must be an int >= 0, got 3.0"),
    (None, "error: {ck}.json: bad field: round must be an int >= 0, got None"),
    (True, "error: {ck}.json: bad field: round must be an int >= 0, got True"),
    (-1, "error: {ck}.json: bad field: round must be an int >= 0, got -1"),
    (99, "configuration error: checkpoint round 99 is past federation.total_rounds 3"),
], ids=["string", "float", "null", "bool", "negative", "past-end"])
def test_resume_from_bad_round_is_exit_2_before_synthesis(workspace, tmp_path, capsys,
                                                          monkeypatch, bad_round, message):
    # A "round" that is not a non-negative int, or that lies past the run's
    # last round, exits 2 before any phantom is synthesized or file written.
    root, _ = workspace
    ck = tmp_path / "ck"
    manifest = json.loads((root / "run" / "checkpoint.json").read_text())
    manifest["round"] = bad_round
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    (tmp_path / "ck.params").write_bytes((root / "run" / "checkpoint.params").read_bytes())
    out = tmp_path / "o"
    out.mkdir()
    trace = (root / "run" / "loss_trace.csv").read_bytes()
    (out / "loss_trace.csv").write_bytes(trace)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(SMOKE, resume_from=str(ck))))
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    capsys.readouterr()
    assert main(["--config", str(path), "--seed", "5", "--out", str(out),
                 "pretrain"]) == EXIT_CONFIG
    assert capsys.readouterr().err == message.format(ck=ck) + "\n"
    assert [p.name for p in out.iterdir()] == ["loss_trace.csv"]
    assert (out / "loss_trace.csv").read_bytes() == trace


def test_finetune_outputs_and_auroc_recompute(workspace):
    root, _ = workspace
    report = json.loads((root / "ft" / "finetune_report.json").read_text())
    assert 0.0 <= report["val_accuracy"] <= 1.0
    # Reported AUROC must match an offline recomputation from scores.csv.
    rows = (root / "ft" / "scores.csv").read_text().splitlines()[1:]
    scores, labels = [], []
    for row in rows:
        idx, label, split, p0, p1 = row.split(",")
        if split == "val":
            scores.append(float(p1))
            labels.append(int(label))
    assert report["val_auroc"] == auroc(np.array(scores), np.array(labels))
    probe = np.load(root / "ft" / "probe_params.npy")
    assert probe.shape == (2 * 8 + 2,)


def test_finetune_deterministic(workspace, tmp_path):
    root, cfg_path = workspace
    base = ["--config", str(cfg_path), "--seed", "5"]
    assert main(base + ["--out", str(tmp_path / "ft2"), "finetune",
                        str(root / "run" / "checkpoint"),
                        str(root / "data")]) == EXIT_OK
    for name in ("scores.csv", "finetune_report.json"):
        assert (tmp_path / "ft2" / name).read_bytes() == \
            (root / "ft" / name).read_bytes()


def test_finetune_zero_epochs_still_reports(workspace, tmp_path):
    root, _ = workspace
    cfg = dict(SMOKE, probe=dict(SMOKE["probe"], epochs=0))
    path = tmp_path / "z.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--seed", "5",
                 "--out", str(tmp_path / "zft"), "finetune",
                 str(root / "run" / "checkpoint"), str(root / "data")]) == EXIT_OK
    assert (tmp_path / "zft" / "finetune_report.json").exists()


@pytest.mark.parametrize("epochs", [-1, 5])
def test_finetune_epochs_out_of_range_is_exit_2(workspace, tmp_path, capsys, epochs):
    # The probe schedule's warmup is 10 rounds, so it needs 0 or >= 10 epochs.
    message = {-1: "epochs must be >= 0, got -1",
               5: "need 0 <= warmup_rounds <= epochs, got warmup_rounds 10 and epochs 5"}
    root, _ = workspace
    cfg = dict(SMOKE, probe=dict(SMOKE["probe"], epochs=epochs))
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    out = tmp_path / "eft"
    assert main(["--config", str(path), "--seed", "5",
                 "--out", str(out), "finetune",
                 str(root / "run" / "checkpoint"), str(root / "data")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message[epochs]}\n"
    assert not (out / "finetune_report.json").exists()


@pytest.mark.parametrize("probe, message", [
    ({"num_classes": 1}, "num_classes must be >= 2, got 1"),
    ({"val_fraction": 1.0}, "val_fraction must be in (0, 1), got 1.0"),
    ({"val_fraction": 0.0}, "val_fraction must be in (0, 1), got 0.0"),
    ({"eta_min": 0.6}, "need 0 <= eta_min <= eta_max, got eta_min 0.6 and eta_max 0.5"),
    ({"eta_min": -1.0}, "need 0 <= eta_min <= eta_max, got eta_min -1.0 and eta_max 0.5"),
    ({"warmup_rounds": -1}, "need 0 <= warmup_rounds <= epochs, "
     "got warmup_rounds -1 and epochs 30"),
], ids=["classes", "val-1", "val-0", "eta-order", "eta-negative", "warmup"])
def test_bad_probe_is_exit_2_before_any_input_is_read(tmp_path, capsys, probe, message):
    # Neither the checkpoint nor the labeled directory exists: the probe
    # section is checked first.
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(SMOKE, probe=dict(SMOKE["probe"], **probe))))
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(tmp_path / "ft"), "finetune",
                 str(tmp_path / "nosuch" / "checkpoint"),
                 str(tmp_path / "nosuch")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("command", ["generate", "pretrain", "finetune"])
def test_exit_2_run_leaves_no_out_directory(workspace, tmp_path, command):
    root, _ = workspace
    section = ({"probe": {"num_classes": 1}} if command == "finetune"
               else {"synth": {"n": -3}})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(section, version=1)))
    inputs = ([str(root / "run" / "checkpoint"), str(root / "data")]
              if command == "finetune" else [])
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), command] + inputs) == EXIT_CONFIG
    assert not out.exists()


def test_finetune_at_other_seed_than_checkpoint(workspace, tmp_path):
    # The checkpoint was pre-trained at seed 5; a probe may use any seed.
    root, cfg_path = workspace
    assert main(["--config", str(cfg_path), "--seed", "8",
                 "--out", str(tmp_path / "ft8"), "finetune",
                 str(root / "run" / "checkpoint"), str(root / "data")]) == EXIT_OK
    assert (tmp_path / "ft8" / "finetune_report.json").exists()


def test_finetune_missing_checkpoint_is_exit_3(workspace, tmp_path, capsys):
    root, cfg_path = workspace
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "ft"), "finetune",
                 str(tmp_path / "nosuch" / "checkpoint"),
                 str(root / "data")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: [Errno 2] No such file")


def test_finetune_mismatched_model_is_exit_2(workspace, tmp_path):
    root, _ = workspace
    cfg = dict(SMOKE, model=dict(SMOKE["model"], embed_dim=16))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--seed", "5",
                 "--out", str(tmp_path / "mft"), "finetune",
                 str(root / "run" / "checkpoint"),
                 str(root / "data")]) == EXIT_CONFIG


@pytest.mark.parametrize("manifest, missing", [
    ({"version": 1, "samples": [{"index": 0, "label": 0}, {"label": 1}]},
     "sample 1 has no integer 'index' field"),
    ({"version": 1, "samples": [{"index": 0}]}, "sample 0 has no integer 'label' field"),
    ([{"index": 0, "label": 0}], 'root must be an object with a "samples" list'),
    ({"version": 1, "samples": [{"index": 0, "label": 1.7}]},
     "sample 0 has no integer 'label' field"),
    ({"version": 1, "samples": [{"index": "0", "label": 0}]},
     "sample 0 has no integer 'index' field"),
    ('{"version": 1, "samples": [',
     "not valid JSON: Expecting value: line 1 column 28 (char 27)"),
    # A 2-class probe leaves out the no-lesion samples (label 2); fewer
    # than two left cannot be split.
    ({"version": 1, "samples": [{"index": i, "label": 2} for i in range(3)]},
     "the probe needs at least 2 samples, got 0 after leaving out 3 with no lesion"),
    ({"version": 1, "samples": [{"index": 0, "label": 1}]},
     "the probe needs at least 2 samples, got 1"),
], ids=["no-index", "no-label", "root-not-object", "fractional-label", "string-index",
        "truncated", "all-no-lesion", "one-sample"])
def test_finetune_malformed_labels_is_exit_2(workspace, tmp_path, capsys, manifest, missing):
    root, cfg_path = workspace
    data = tmp_path / "data"
    data.mkdir()
    text = manifest if isinstance(manifest, str) else json.dumps(manifest)
    (data / "labels.json").write_text(text)
    capsys.readouterr()
    code = main(["--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path / "ft"),
                 "finetune", str(root / "run" / "checkpoint"), str(data)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == f"error: {data / 'labels.json'}: {missing}\n"


def test_eval_identical_masks(workspace, tmp_path):
    root, _ = workspace
    mask = root / "data" / "mask_0000.pgm"
    report_path = tmp_path / "m.json"
    assert main(["eval", str(mask), str(mask),
                 "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["dsc"] == 1.0
    assert report["mae"] == 0.0


def _eval_masks(tmp_path, pred, truth) -> tuple[int, dict | None]:
    """Exit code and report of `fedmim eval` on two 0/1 masks."""
    paths = []
    for name, mask in (("pred", pred), ("truth", truth)):
        paths.append(str(tmp_path / f"{name}.pgm"))
        write_pgm(255.0 * np.asarray(mask, dtype=np.float64), paths[-1])
    report = tmp_path / "r.json"
    code = main(["eval", *paths, "--report", str(report)])
    return code, json.loads(report.read_text()) if report.exists() else None


def test_eval_shape_mismatch_is_exit_2(tmp_path, capsys):
    capsys.readouterr()
    code, report = _eval_masks(tmp_path, np.ones((64, 64)), np.ones((32, 32)))
    assert (code, report) == (EXIT_CONFIG, None)
    assert capsys.readouterr().err == "error: length mismatch: (64, 64) vs (32, 32)\n"


@pytest.mark.parametrize("pred, truth, dsc, hd", [
    (np.zeros((8, 8)), np.eye(8), 0.0, None),
    (np.zeros((8, 8)), np.zeros((8, 8)), 1.0, None),
    (np.ones((8, 8)), np.ones((8, 8)), 1.0, 0.0),
], ids=["empty-pred", "both-empty", "both-full"])
def test_eval_empty_and_full_masks(tmp_path, pred, truth, dsc, hd):
    code, report = _eval_masks(tmp_path, pred, truth)
    assert code == EXIT_OK
    assert (report["dsc"], report["hausdorff"]) == (dsc, hd)


def test_transform_round_trip_matches_library(workspace, tmp_path):
    from fedmim.smat import convex_to_linear, linear_to_convex

    root, _ = workspace
    src = root / "data" / "img_0000.pgm"
    mid = tmp_path / "mid.pgm"
    back = tmp_path / "back.pgm"
    assert main(["transform", "linear-to-convex", str(src), str(mid)]) == EXIT_OK
    assert main(["transform", "convex-to-linear", str(mid), str(back)]) == EXIT_OK
    img = read_pgm(src)
    lib_mid = linear_to_convex(img)
    expect_mid = tmp_path / "lib_mid.pgm"
    write_pgm(lib_mid, expect_mid)
    assert mid.read_bytes() == expect_mid.read_bytes()
    lib_back = convex_to_linear(read_pgm(mid))
    expect_back = tmp_path / "lib_back.pgm"
    write_pgm(lib_back, expect_back)
    assert back.read_bytes() == expect_back.read_bytes()


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_transform_golden_hash(invariance, perturbation):
    invariance.check(DEFAULT_IMAGES, perturbation,
                     {tuple(out for *_, out in WARPS): DEFAULT_TRANSFORM_SHA256})


def test_corrupt_p_zero_is_identity(workspace, tmp_path):
    root, _ = workspace
    cfg = dict(SMOKE, corruption={"p": 0.0})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    src = root / "data" / "img_0001.pgm"
    out = tmp_path / "same.pgm"
    assert main(["--config", str(path), "corrupt", str(src), str(out)]) == EXIT_OK
    assert out.read_bytes() == src.read_bytes()


def test_corrupt_deterministic(workspace, tmp_path):
    root, cfg_path = workspace
    src = root / "data" / "img_0002.pgm"
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    base = ["--config", str(cfg_path), "--seed", "9"]
    assert main(base + ["corrupt", str(src), str(a)]) == EXIT_OK
    assert main(base + ["corrupt", str(src), str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_mask_preview(workspace, tmp_path):
    root, cfg_path = workspace
    src = root / "data" / "img_0000.pgm"
    out = tmp_path / "mp.pgm"
    assert main(["--config", str(cfg_path), "--seed", "3",
                 "mask-preview", str(src), str(out)]) == EXIT_OK
    sidecar = json.loads((tmp_path / "mp.pgm.json").read_text())
    assert sorted(sidecar["masked"] + sidecar["visible"]) == list(range(16))
    assert len(sidecar["masked"]) == 12  # round_half_up(0.75 * 16)
    preview = read_pgm(out)
    # Masked patches are zeroed in the preview.
    first_masked = sidecar["masked"][0]
    r, c = divmod(first_masked, 4)
    assert np.all(preview[r * 8:(r + 1) * 8, c * 8:(c + 1) * 8] == 0.0)


@pytest.mark.parametrize("motion_d", [129, 100001, 100000000001])
def test_huge_motion_d_is_exit_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                 motion_d):
    # A motion blur builds d x d arrays, so a d past corrupt.MAX_MOTION_D
    # exits 2 naming the key, in every command that corrupts, before any
    # phantom is synthesized or file written.
    root, _ = workspace
    monkeypatch.setattr(synth, "generate_dataset", _no_synthesis)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(SMOKE, corruption={"p": 1.0, "motion_d": motion_d})))
    src = str(root / "data" / "img_0000.pgm")
    for command in (["corrupt", src, str(tmp_path / "c.pgm")],
                    ["mask-preview", src, str(tmp_path / "m.pgm")],
                    ["--out", str(tmp_path / "o"), "pretrain"]):
        capsys.readouterr()
        assert main(["--config", str(path), "--seed", "2", *command]) == EXIT_CONFIG, command
        assert capsys.readouterr().err == (f"configuration error: motion_d must be "
                                           f"<= 127, got {motion_d}\n"), command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_parser_reuse_leaks_no_options(workspace, tmp_path):
    # main parses every call with one parser; no call's options may
    # reach the next one.
    root, cfg_path = workspace
    mask = root / "data" / "mask_0000.pgm"
    pred = tmp_path / "pred.pgm"
    pred.write_bytes(mask.read_bytes())
    report = tmp_path / "r.json"
    first = ["--config", str(cfg_path), "--seed", "3", "--threads", "2",
             "--out", str(tmp_path / "o"), "eval", str(pred), str(mask),
             "--report", str(report)]
    second = ["eval", str(pred), str(mask)]
    assert main(first) == EXIT_OK
    report.unlink()
    assert main(second) == EXIT_OK
    assert not report.exists()
    assert json.loads(Path(str(pred) + ".metrics.json").read_text())["dsc"] == 1.0
    for argv in (first, second, ["corrupt", "a", "b"], second):
        assert cli._PARSER.parse_args(argv) == cli.build_parser().parse_args(argv)
    assert cli._PARSER.parse_args(second).seed is None


def test_usage_error_then_valid_call(workspace, tmp_path, capsys):
    root, _ = workspace
    mask = root / "data" / "mask_0000.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(mask)])
    assert exc.value.code == EXIT_CONFIG
    assert "usage: fedmim" in capsys.readouterr().err
    assert main(["eval", str(mask), str(mask),
                 "--report", str(tmp_path / "r.json")]) == EXIT_OK


def test_help_prints(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: fedmim")
        assert "transform" in out and "--config" in out


def test_missing_input_file_is_exit_3(tmp_path):
    assert main(["eval", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
                 "--report", str(tmp_path / "r.json")]) == EXIT_IO


def test_threads_must_be_positive(workspace, tmp_path):
    _, cfg_path = workspace
    assert main(["--config", str(cfg_path), "--threads", "0",
                 "--out", str(tmp_path / "o"), "pretrain"]) == EXIT_CONFIG


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_default_generate_golden_hash(invariance, perturbation):
    invariance.check(DEFAULT_IMAGES, perturbation, {("data",): DEFAULT_GENERATE_SHA256})


@pytest.mark.parametrize("perturbation", DISPATCH_BOUND)
def test_default_pretrain_golden_hash(invariance, perturbation):
    invariance.check(DEFAULT_CHAIN, perturbation,
                     {"run/checkpoint.params": DEFAULT_PRETRAIN_PARAMS_SHA256,
                      "run/loss_trace.csv": DEFAULT_PRETRAIN_TRACE_SHA256})


@pytest.mark.parametrize("perturbation", PERTURBATIONS)
def test_mask_preview_golden_hash(invariance, perturbation):
    invariance.check(DEFAULT_IMAGES, perturbation,
                     {tuple(f"{stem}.preview.pgm{ext}" for stem in PREVIEWED
                            for ext in ("", ".json")):
                      DEFAULT_MASK_PREVIEW_SHA256})


@pytest.mark.parametrize("perturbation", DISPATCH_BOUND)
def test_default_finetune_golden_hash(invariance, perturbation):
    invariance.check(DEFAULT_CHAIN, perturbation, {("ft",): DEFAULT_FINETUNE_SHA256})


@pytest.mark.parametrize("perturbation", DISPATCH_BOUND)
def test_two_step_pretrain_golden_hash(invariance, perturbation):
    invariance.check(TWO_STEP_PRETRAIN, perturbation,
                     {"run/checkpoint.params": TWO_STEP_PARAMS_SHA256,
                      "run/loss_trace.csv": TWO_STEP_TRACE_SHA256})


def test_pretrain_outputs_independent_of_blas_threads(invariance):
    invariance.check(DEFAULT_CHAIN, "blas2")


def test_pretrain_of_41_phantoms_independent_of_blas_threads(invariance):
    # A one-step run trains its 41 samples stacked as one client, whose 656
    # visible rows the step sums in three 256-row pieces.
    invariance.check(Case((("--config", "c.json", *PRETRAIN),),
                          {"c.json": {"version": 1, "synth": {"n": 41}}}), "blas2")


def test_pretrain_of_520_phantoms_independent_of_blas_threads(invariance):
    # Past 256 stacked samples the step's sums over samples are cut into
    # 256-row pieces too; one BLAS product over all 520 rows (model.SUM_PIECE
    # set to 1 << 30) writes other bytes at 2 OpenBLAS threads.
    config = {"version": 1, "synth": {"n": 520}, "federation": {"total_rounds": 3},
              "optimizer": {"warmup_rounds": 1}}
    invariance.check(Case((("--config", "c.json", *PRETRAIN),), {"c.json": config}), "blas2")


def test_experiment_config_independent_of_blas_threads(invariance):
    # The criterion-4 run of scripts/pretrain_experiment.json, cut to two
    # rounds: 512 phantoms, 8 clients and 48 local steps, whose client sums
    # of about 1000 rows pass the 256-row pieces.
    config = json.loads(EXPERIMENT_CONFIG.read_text(encoding="utf-8"))
    config["federation"]["total_rounds"] = 2
    config["optimizer"] = {"warmup_rounds": 1}
    invariance.check(Case((("--config", "c.json", *PRETRAIN),), {"c.json": config}), "blas2")


def test_default_chain_leaves_out_no_lesion_samples(invariance):
    # The default class mix emits label 2 (no lesion); a 2-class probe
    # leaves those samples out and keeps each row's labels.json index.
    chain = invariance.run(DEFAULT_CHAIN, "baseline")
    out = chain / "ft"
    report = json.loads((out / "finetune_report.json").read_text())
    samples = json.loads((chain / "data" / "labels.json").read_text())["samples"]
    no_lesion = [rec["index"] for rec in samples if rec["label"] == synth.NONE]
    assert report["no_lesion_left_out"] == len(no_lesion) == 22
    rows = [row.split(",") for row in
            (out / "scores.csv").read_text().splitlines()[1:]]
    labels = {rec["index"]: rec["label"] for rec in samples}
    assert [int(r[0]) for r in rows] == sorted(set(labels) - set(no_lesion))
    assert all(int(r[1]) == labels[int(r[0])] for r in rows)
    assert {r[1] for r in rows if r[2] == "val"} == {"0", "1"}


def test_default_chain_bad_label_is_exit_2(invariance, tmp_path, capsys):
    # Only label 2 is left out; any other label outside [0, 2) is
    # rejected, even when no training epoch runs.
    data = tmp_path / "data"
    assert main(["--seed", "7", "--out", str(data), "generate"]) == EXIT_OK
    manifest = json.loads((data / "labels.json").read_text())
    manifest["samples"][5]["label"] = 3
    (data / "labels.json").write_text(json.dumps(manifest))
    zero_epochs = tmp_path / "zero_epochs.json"
    zero_epochs.write_text(json.dumps({"version": 1, "probe": {"epochs": 0}}))
    checkpoint = invariance.run(DEFAULT_CHAIN, "baseline") / "run" / "checkpoint"
    for name, config in (("default", []), ("zero_epochs", ["--config", str(zero_epochs)])):
        capsys.readouterr()
        out = tmp_path / name
        code = main(config + ["--seed", "7", "--out", str(out), "finetune",
                              str(checkpoint), str(data)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, name
        assert err == "error: label 3 outside [0, 2)\n"
        assert not (out / "finetune_report.json").exists()


# A cheap run at the default 64x64 phantoms and 8x8 patches: no speckle,
# eight samples, two clients, two rounds.
SWEEP_BASE = {
    "version": 1,
    "model": {"embed_dim": 4},
    "federation": {"num_clients": 2, "total_rounds": 2},
    "optimizer": {"warmup_rounds": 1},
    "synth": {"n": 8, "speckle_strength": 0.0, "class_mix": [0.5, 0.5, 0.0]},
    "probe": {"epochs": 10, "val_fraction": 0.5},
}
SWEEP_INTS = [-1, 0, 1, 2, 3]
SWEEP_FLOATS = [-1.0, 0.0, 1e-9, 0.005, 0.995, 1.0, 2.0, 1e6]
# The lesion ranges a run takes; any other exits 2 naming the key.
LESION_RANGES = {
    "synth.lesion.axis_range": lambda lo, hi: 0 < lo <= hi,
    "synth.lesion.irregularity_range": lambda lo, hi: 0 <= lo <= hi,
}


def _numeric_leaves(section: dict, path: str = ""):
    """(dotted key, default) of every number or list leaf; a null default
    stands for a number when the key takes one."""
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _numeric_leaves(value, where)
        elif where != "version":
            value = _NULLABLE.get(where, value)
            if isinstance(value, (int, float, list)):
                yield where, value


def _with_leaf(cfg: dict, where: str, value) -> dict:
    out = json.loads(json.dumps(cfg))
    *parents, key = where.split(".")
    node = out
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return out


def _run_config(cfg: dict, argv: list[str], root: Path) -> tuple[int | str, str]:
    """main with cfg, written to root/c.json, and argv: the exit code, or the
    exception that escaped main, and stderr."""
    path = root / "c.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(["--config", str(path)] + argv)
        except Exception as exc:  # an exception escaping main is the failure
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def _exits_cleanly(code: int | str, err: str) -> bool:
    """Whether a run ended in a documented exit code, with one stderr line
    if it failed and none if not, and no traceback."""
    return (code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)
            and err.count("\n") == (code != EXIT_OK) and "Traceback" not in err)


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """A dataset and checkpoint of SWEEP_BASE at seed 3, and a function
    that gives the argv of a run with one leaf set, writing to out:
    finetune on them for a probe leaf, else pretrain."""
    root = tmp_path_factory.mktemp("sweep")
    data, ckpt = root / "data", root / "run" / "checkpoint"
    finetune = ["finetune", str(ckpt), str(data)]
    for argv in (["--out", str(data), "generate"],
                 ["--out", str(ckpt.parent), "pretrain"],
                 ["--out", str(root / "ft")] + finetune):
        assert _run_config(SWEEP_BASE, ["--seed", "3"] + argv, root) == (EXIT_OK, "")

    def argv_of(where: str, out: Path) -> list[str]:
        return ["--out", str(out)] + (finetune if where.startswith("probe.") else ["pretrain"])
    return argv_of


def test_config_leaf_sweep_exits_cleanly(tmp_path, sweep_run):
    # Every numeric config leaf at edge values ends in a documented exit
    # code with at most a one-line message: pretrain for each leaf outside
    # "probe", finetune on one fixed dataset and checkpoint for each probe
    # leaf.
    bad = []
    leaves = list(_numeric_leaves(load_config(None)))
    for where, default in leaves:
        if isinstance(default, list):
            values = [[v] * len(default) for v in (-1, 0, 1, 2)]
            values.append(list(range(len(default), 0, -1)))  # descending
        else:
            values = SWEEP_INTS if isinstance(default, int) else SWEEP_FLOATS
        for i, value in enumerate(values):
            argv = ["--seed", "3"] + sweep_run(where, tmp_path / f"{where}-{i}")
            code, err = _run_config(_with_leaf(SWEEP_BASE, where, value), argv, tmp_path)
            if not _exits_cleanly(code, err):
                bad.append(f"{where}={value!r}: exit {code}, stderr {err!r}")
            range_ok = LESION_RANGES.get(where)
            if range_ok and not range_ok(*value) and not (
                    code == EXIT_CONFIG and where.rsplit(".", 1)[1] in err):
                bad.append(f"{where}={value!r}: exit {code}, stderr {err!r}, "
                           f"not exit 2 naming the key")
    assert not bad, "\n".join(bad)
    assert len(leaves) == 32  # all 34 leaves but version and resume_from


# Seeds at and past either end of [0, 2**64); None runs without --seed,
# so the config's own seed counts.
FUZZ_SEEDS = [None, -1, 0, 2**64 - 1, 2**64]
ODD_VALUES = [math.nan, math.inf, -math.inf, -0.0, "x", True, False, None, {}, {"a": 1}]


def leaf_settings() -> st.SearchStrategy:
    """(dotted key, value) of one numeric config leaf: a small integer (a
    large one would be valid work, not a bad input), a non-finite or
    signed-zero float, a value of another JSON type, or a list of a length
    other than the default's."""
    def values(leaf):
        where, default = leaf
        length = len(default) if isinstance(default, list) else None
        return st.tuples(st.just(where), st.one_of(
            st.integers(-3, 8), st.sampled_from(ODD_VALUES),
            st.lists(st.integers(-3, 8), max_size=4).filter(lambda v: len(v) != length)))
    return st.sampled_from(list(_numeric_leaves(load_config(None)))).flatmap(values)


@given(leaf_settings(), st.sampled_from(FUZZ_SEEDS))
@example(("seed", 2**64), None)  # a config seed past the range
@example(("synth.class_mix", [1, 0]), 0)  # a list one short
@settings(max_examples=200, deadline=None)
def test_config_leaf_fuzz_exits_cleanly(sweep_run, leaf, seed):
    # One leaf of the SWEEP_BASE run set to a drawn value, at a drawn seed:
    # the sweep's clean exit, whatever the value's type.
    where, value = leaf
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = ([] if seed is None else ["--seed", str(seed)]) + sweep_run(where, root / "out")
        code, err = _run_config(_with_leaf(SWEEP_BASE, where, value), argv, root)
    assert _exits_cleanly(code, err), \
        f"{where}={value!r}, --seed {seed}: exit {code}, stderr {err!r}"
