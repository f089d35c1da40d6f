"""Command-line interface: subcommands, config handling, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedmim
from fedmim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, load_config, main
from fedmim.image import read_pgm, write_pgm
from fedmim.metrics import auroc

# sha256 of checkpoint.params from `fedmim --seed 7 pretrain` with the
# default config. A change here means every default run's model changed.
DEFAULT_PRETRAIN_PARAMS_SHA256 = (
    "46bbe19e76ac0a5109bad176b83904a519a2b769c446108dded934bb38cd26ae"
)


SMOKE = {
    "version": 1,
    "synth": {"n": 40, "width": 32, "height": 32, "class_mix": [0.5, 0.5, 0.0]},
    "model": {"patch_dim": 64, "embed_dim": 8, "num_patches": 16},
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


def test_load_config_merges_leaves(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "model": {"embed_dim": 4}}))
    cfg = load_config(str(path))
    assert cfg["model"]["embed_dim"] == 4
    assert cfg["model"]["patch_dim"] == 64  # untouched default


def test_unknown_config_key_is_exit_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "modle": {}}))
    assert main(["--config", str(path), "--out", str(tmp_path / "o"),
                 "generate"]) == EXIT_CONFIG


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


def test_generate_missing_parent_is_exit_3(workspace, tmp_path):
    _, cfg_path = workspace
    assert main(["--config", str(cfg_path),
                 "--out", str(tmp_path / "no" / "such" / "dir"),
                 "generate"]) == EXIT_IO


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


def test_pretrain_resume_matches_full_run(workspace, tmp_path):
    root, _ = workspace
    head_cfg = dict(SMOKE, federation=dict(SMOKE["federation"], total_rounds=1),
                    checkpoint_name="head")
    head_path = tmp_path / "head.json"
    head_path.write_text(json.dumps(head_cfg))
    out = tmp_path / "seg"
    assert main(["--config", str(head_path), "--seed", "5",
                 "--out", str(out), "pretrain"]) == EXIT_OK
    tail_cfg = dict(SMOKE, resume_from=str(out / "head"))
    tail_path = tmp_path / "tail.json"
    tail_path.write_text(json.dumps(tail_cfg))
    assert main(["--config", str(tail_path), "--seed", "5",
                 "--out", str(out), "pretrain"]) == EXIT_OK
    assert (out / "loss_trace.csv").read_bytes() == \
        (root / "run" / "loss_trace.csv").read_bytes()
    assert (out / "checkpoint.params").read_bytes() == \
        (root / "run" / "checkpoint.params").read_bytes()


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


def test_finetune_mismatched_model_is_exit_2(workspace, tmp_path):
    root, _ = workspace
    cfg = dict(SMOKE, model=dict(SMOKE["model"], embed_dim=16))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--seed", "5",
                 "--out", str(tmp_path / "mft"), "finetune",
                 str(root / "run" / "checkpoint"),
                 str(root / "data")]) == EXIT_CONFIG


def test_eval_identical_masks(workspace, tmp_path):
    root, _ = workspace
    mask = root / "data" / "mask_0000.pgm"
    report_path = tmp_path / "m.json"
    assert main(["eval", str(mask), str(mask),
                 "--report", str(report_path)]) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["dsc"] == 1.0
    assert report["mae"] == 0.0


def test_transform_round_trip_matches_library(workspace, tmp_path):
    from fedmim.smat import ScanGeometry, convex_to_linear, linear_to_convex

    root, _ = workspace
    src = root / "data" / "img_0000.pgm"
    mid = tmp_path / "mid.pgm"
    back = tmp_path / "back.pgm"
    assert main(["transform", "linear-to-convex", str(src), str(mid)]) == EXIT_OK
    assert main(["transform", "convex-to-linear", str(mid), str(back)]) == EXIT_OK
    img = read_pgm(src)
    geom = ScanGeometry.default_for(32, 32)
    lib_mid = linear_to_convex(img, geom, 32, 32)
    expect_mid = tmp_path / "lib_mid.pgm"
    write_pgm(lib_mid, expect_mid)
    assert mid.read_bytes() == expect_mid.read_bytes()
    lib_back = convex_to_linear(read_pgm(mid), geom, 32, 32)
    expect_back = tmp_path / "lib_back.pgm"
    write_pgm(lib_back, expect_back)
    assert back.read_bytes() == expect_back.read_bytes()


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


def test_missing_input_file_is_exit_3(tmp_path):
    assert main(["eval", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
                 "--report", str(tmp_path / "r.json")]) == EXIT_IO


def test_threads_must_be_positive(workspace, tmp_path):
    _, cfg_path = workspace
    assert main(["--config", str(cfg_path), "--threads", "0",
                 "--out", str(tmp_path / "o"), "pretrain"]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """`fedmim --seed 7 pretrain` with default settings, in fresh processes
    with OpenBLAS pinned to 1 and to 2 threads; maps thread count to the
    output directory."""
    root = tmp_path_factory.mktemp("default")
    src = str(Path(fedmim.__file__).resolve().parents[1])
    runs = {}
    for blas in (1, 2):
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas), PYTHONPATH=pythonpath)
        out = root / f"blas{blas}"
        subprocess.run(
            [sys.executable, "-m", "fedmim.cli", "--seed", "7", "--out", str(out),
             "pretrain"],
            env=env, check=True, capture_output=True,
        )
        runs[blas] = out
    return runs


def test_default_pretrain_golden_hash(default_runs):
    digest = hashlib.sha256(
        (default_runs[1] / "checkpoint.params").read_bytes()).hexdigest()
    assert digest == DEFAULT_PRETRAIN_PARAMS_SHA256


def test_pretrain_outputs_independent_of_blas_threads(default_runs):
    for name in ("loss_trace.csv", "checkpoint.params", "checkpoint.json"):
        assert (default_runs[1] / name).read_bytes() == \
            (default_runs[2] / name).read_bytes(), name


def test_default_chain_bad_label_is_exit_2(default_runs, tmp_path, capsys):
    # The default class mix emits label 2 (no lesion) against a 2-class
    # probe; it is rejected even when no training epoch runs.
    data = tmp_path / "data"
    assert main(["--seed", "7", "--out", str(data), "generate"]) == EXIT_OK
    zero_epochs = tmp_path / "zero_epochs.json"
    zero_epochs.write_text(json.dumps({"version": 1, "probe": {"epochs": 0}}))
    for name, config in (("default", []), ("zero_epochs", ["--config", str(zero_epochs)])):
        capsys.readouterr()
        out = tmp_path / name
        code = main(config + ["--seed", "7", "--out", str(out), "finetune",
                              str(default_runs[1] / "checkpoint"), str(data)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, name
        assert err.startswith("error: label 2 ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "finetune_report.json").exists()
