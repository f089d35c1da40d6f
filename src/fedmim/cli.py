"""Command-line entry point: dataset generation, federated pre-training,
probe fine-tuning, metric evaluation, and single-image transforms.

Configuration is UTF-8 JSON with a top-level ``"version": 1``; unknown
keys anywhere are an error so typos fail loudly, and each value must have
its default's JSON type. Exit codes: 0 success, 2 configuration/validation
error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import fed, metrics, model, smat, synth
from .corrupt import CorruptionConfig, mixed_corrupt
from .errors import FedmimError, NonFiniteLoss
from .finetune import ProbeConfig, extract_features, probe_scores, train_probe
from .image import depatchify, read_pgm, write_pgm
from .pipeline import PatchSpec, build_clients
from .rng import Rng
from .tgm import apply_uim, mask_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _fields(defaults, *drop: str) -> dict:
    """The field defaults of a config class instance, minus drop, as JSON
    values: a tuple becomes a list."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(defaults).items() if k not in drop}


# The phantom keys of the "synth" section: PhantomSpec's fields.
_PHANTOM = _fields(synth.PhantomSpec())

# Default run configuration; a config file overrides leaf values. The
# "patch", "corruption", "optimizer", "synth.lesion" and "probe" sections
# hold the fields of the config class each one builds, with that class's
# defaults. The model shape follows from "patch" and "synth" (see
# _model_config).
_DEFAULTS: dict = {
    "version": 1,
    "seed": 0,
    "model": {"embed_dim": 32},
    "patch": _fields(PatchSpec()),
    "federation": {"num_clients": 4, "total_rounds": 10, "local_steps": 1,
                   "alpha": 0.5},
    "optimizer": _fields(model.OptimizerConfig(), "total_rounds"),
    "corruption": _fields(CorruptionConfig()),
    "synth": {"n": 64, **_PHANTOM,
              "class_mix": [0.35, 0.35, 0.3],
              "lesion": _fields(synth.LesionSpec())},
    "probe": _fields(ProbeConfig(), "seed"),
    "resume_from": None,
}


# What each null default takes besides null, as a default of that type.
_NULLABLE = {"resume_from": "", "synth.lesion.malignant_delta": 0.0}
# Model shape keys that have no default, each with a value of its type: a
# config may still set them, but only to what _model_config derives.
_SHAPE_KEYS = {"model.patch_dim": 0, "model.num_patches": 0}
_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _same_type(default, value) -> bool:
    """Whether value has default's JSON type: a float takes any number, an
    int an int but not a bool, and a list a list of as many numbers."""
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_same_type(d, v) for d, v in zip(default, value)))
    return type(value) is type(default)


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key in defaults:
            default = defaults[key]
        elif where in _SHAPE_KEYS:
            default = _SHAPE_KEYS[where]
        else:
            raise ValueError(f"unknown config key: {where}")
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"{where} must be an object")
            out[key] = _merge(default, value, where)
        else:
            expect = _NULLABLE.get(where, default)
            nulled = value is None and default is None
            if not (nulled or _same_type(expect, value)):
                kind = (_KINDS.get(type(expect))
                        or f"a list of {len(expect)} numbers")
                raise ValueError(f"{where} must be {kind}, got {value!r}")
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    """Defaults merged with the JSON file at path (if any)."""
    if path is None:
        return json.loads(json.dumps(_DEFAULTS))
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    if raw.get("version") != 1:
        raise ValueError(f"unsupported config version: {raw.get('version')!r}")
    return _merge(_DEFAULTS, raw)


def _model_config(cfg: dict) -> model.ModelConfig:
    """The model of the config's patches and phantoms: an H x W image in
    p_h x p_w patches has L = (H/p_h)(W/p_w) patches of N = p_h p_w pixels,
    of which mask_count(mask_ratio, L) are masked: some, but not all."""
    patch, phantom = _patch_spec(cfg), _phantom_spec(cfg)
    if phantom.height % patch.patch_h or phantom.width % patch.patch_w:
        raise ValueError(
            f"patch.patch_h x patch.patch_w ({patch.patch_h}x{patch.patch_w}) "
            f"does not tile synth.height x synth.width "
            f"({phantom.height}x{phantom.width})")
    num_patches = (phantom.height // patch.patch_h) * (phantom.width // patch.patch_w)
    masked = mask_count(patch.mask_ratio, num_patches)
    if not 0 < masked < num_patches:
        raise ValueError(
            f"patch.mask_ratio {patch.mask_ratio} masks {masked} of the "
            f"{num_patches} patches; it must mask some but not all")
    shape = {"patch_dim": patch.patch_h * patch.patch_w, "num_patches": num_patches}
    for key, value in shape.items():
        if cfg["model"].get(key, value) != value:
            raise ValueError(
                f"model.{key} {cfg['model'][key]} does not match the {value} "
                f"that the patch and synth sections give")
    return model.ModelConfig(embed_dim=cfg["model"]["embed_dim"], **shape,
                             seed=cfg["seed"])


def _same_model(ckpt_cfg: model.ModelConfig, model_cfg: model.ModelConfig) -> bool:
    """Whether a checkpoint's model has the run's shape, whatever its init seed."""
    return replace(ckpt_cfg, seed=model_cfg.seed) == model_cfg


def _patch_spec(cfg: dict) -> PatchSpec:
    return PatchSpec(**cfg["patch"])


def _phantom_spec(cfg: dict) -> synth.PhantomSpec:
    return synth.PhantomSpec(**{key: cfg["synth"][key] for key in _PHANTOM})


def _corruption(cfg: dict) -> CorruptionConfig:
    return CorruptionConfig(**cfg["corruption"])


def _optimizer(cfg: dict) -> model.OptimizerConfig:
    return model.OptimizerConfig(
        **cfg["optimizer"], total_rounds=cfg["federation"]["total_rounds"])


def _federation(cfg: dict) -> fed.FederationConfig:
    f = cfg["federation"]
    # The split's alpha is read only after synthesis; check it before.
    if not 0.0 < f["alpha"] < math.inf:
        raise ValueError(
            f"federation.alpha must be a finite number > 0, got {f['alpha']}")
    return fed.FederationConfig(
        num_clients=f["num_clients"], total_rounds=f["total_rounds"],
        local_steps=f["local_steps"], opt=_optimizer(cfg), seed=cfg["seed"],
    )


def _generate(cfg: dict) -> list[synth.LabeledSample]:
    s = cfg["synth"]
    lesion = synth.LesionSpec(**{k: tuple(v) if isinstance(v, list) else v
                                 for k, v in s["lesion"].items()})
    return synth.generate_dataset(s["n"], tuple(s["class_mix"]), Rng(cfg["seed"]),
                                  _phantom_spec(cfg), lesion)


def _check_out(out_dir: Path) -> None:
    """Fail before any synthesis or input read if out_dir could not be
    made at the first write: its parent is missing or it is a file.
    Creates nothing."""
    if not out_dir.absolute().parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "--out has no parent directory",
                                str(out_dir))
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "--out is not a directory",
                                 str(out_dir))


def cmd_generate(cfg: dict, out_dir: Path) -> int:
    _check_out(out_dir)
    dataset = _generate(cfg)
    out_dir.mkdir(exist_ok=True)
    records = []
    for i, sample in enumerate(dataset):
        write_pgm(sample.image, out_dir / f"img_{i:04d}.pgm")
        write_pgm(sample.lesion_mask * 255.0, out_dir / f"mask_{i:04d}.pgm")
        records.append({"index": i, "label": sample.label, "mode": sample.mode})
    (out_dir / "labels.json").write_text(
        json.dumps({"version": 1, "samples": records}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(dataset)} samples to {out_dir}")
    return EXIT_OK


def _without_horizon(record: dict) -> dict:
    """A config record but its federation.total_rounds, the one key that a
    resume may change (ROADMAP item 4)."""
    section = record.get("federation")
    if not isinstance(section, dict):
        return record
    return dict(record, federation={k: v for k, v in section.items() if k != "total_rounds"})


def cmd_pretrain(cfg: dict, out_dir: Path) -> int:
    model_cfg = _model_config(cfg)
    fed_cfg = _federation(cfg)
    corruption, patch = _corruption(cfg), _patch_spec(cfg)
    _check_out(out_dir)
    trace_path = out_dir / "loss_trace.csv"
    resume = cfg["resume_from"]
    # The config the checkpoint keeps, without the model shape keys, which
    # can only repeat what the patch and synth sections give.
    record = dict(cfg, model={"embed_dim": model_cfg.embed_dim})
    del record["resume_from"]
    if resume is not None:
        ckpt = fed.load_checkpoint(str(resume))
        if ckpt.config is None:
            raise ValueError(f"checkpoint {resume} has no config record to resume by")
        if _without_horizon(ckpt.config) != _without_horizon(record):
            what = "federation" if _same_model(ckpt.model_cfg, model_cfg) else "model"
            raise ValueError(f"checkpoint {what} config does not match run config")
        params, start_round = ckpt.params, ckpt.round_index
        if start_round > fed_cfg.total_rounds:
            raise ValueError(f"checkpoint round {start_round} is past "
                              f"federation.total_rounds {fed_cfg.total_rounds}")
        if not trace_path.exists():
            raise OSError(f"resume requires an existing {trace_path}")
    else:
        params, start_round = model.init_params(model_cfg), 0
    # No name holds the phantoms, so they go once the clients are built.
    clients = build_clients(_generate(cfg), fed_cfg.num_clients, cfg["federation"]["alpha"],
                            model_cfg, corruption, patch, cfg["seed"])
    final, trace = fed.run_pretraining(fed_cfg, model_cfg, clients, params,
                                       start_round=start_round)
    # The checkpoint goes first: a save that fails leaves the checkpoint
    # and trace this run resumed from as they were, ready for a retry.
    out_dir.mkdir(exist_ok=True)
    fed.save_checkpoint(
        str(out_dir / "checkpoint"),
        fed.Checkpoint(model_cfg, fed_cfg, fed_cfg.total_rounds, cfg["seed"], final,
                       record),
    )
    rows = trace[1:] if resume is not None else trace
    with open(trace_path, "a" if resume is not None else "w",
              encoding="utf-8") as fh:
        if resume is None:
            fh.write("round,global_loss,eta\n")
        for rnd, loss, eta in rows:
            fh.write(f"{rnd},{loss!r},{eta!r}\n")
    print(f"pre-trained {fed_cfg.total_rounds} rounds; "
          f"final global loss {trace[-1][1]:.6f}")
    return EXIT_OK


def _load_samples(labeled_dir: Path) -> list[dict]:
    """The "samples" records of labeled_dir's labels.json, each checked to
    have an integer index and label."""
    path = labeled_dir / "labels.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise FedmimError(f"{path}: not valid JSON: {exc}") from exc
    samples = manifest.get("samples") if isinstance(manifest, dict) else None
    if not isinstance(samples, list):
        raise FedmimError(f"{path}: root must be an object with a \"samples\" list")
    for i, rec in enumerate(samples):
        for key in ("index", "label"):
            if not isinstance(rec, dict) or type(rec.get(key)) is not int:
                raise FedmimError(f"{path}: sample {i} has no integer {key!r} field")
    return samples


def cmd_finetune(cfg: dict, checkpoint: Path, labeled_dir: Path, out_dir: Path) -> int:
    model_cfg = _model_config(cfg)
    probe_cfg = ProbeConfig(**cfg["probe"], seed=cfg["seed"])
    num_classes = probe_cfg.num_classes
    _check_out(out_dir)
    ckpt = fed.load_checkpoint(str(checkpoint))
    if not _same_model(ckpt.model_cfg, model_cfg):
        raise ValueError("checkpoint model config does not match run config")
    samples = _load_samples(labeled_dir)
    # A 2-class probe tells benign from malignant lesions; a phantom with
    # no lesion is neither, so it is left out rather than rejected.
    kept = [rec for rec in samples
            if not (num_classes == 2 and rec["label"] == synth.NONE)]
    left_out = len(samples) - len(kept)
    if len(kept) < 2:
        raise FedmimError(
            f"{labeled_dir / 'labels.json'}: the probe needs at least 2 samples, "
            f"got {len(kept)}" + (f" after leaving out {left_out} with no lesion"
                                  if left_out else ""))
    images = [read_pgm(labeled_dir / f"img_{rec['index']:04d}.pgm") for rec in kept]
    labels = np.array([rec["label"] for rec in kept], dtype=np.int64)
    patch = _patch_spec(cfg)
    feats = extract_features(ckpt.params, model_cfg, images, patch.patch_h, patch.patch_w)
    result = train_probe(feats, labels, probe_cfg)
    scores = probe_scores(result.probe_params, feats, num_classes)
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "scores.csv", "w", encoding="utf-8") as fh:
        fh.write("index,label,split," +
                 ",".join(f"p{c}" for c in range(num_classes)) + "\n")
        val = set(int(i) for i in result.val_indices)
        for i, (rec, row) in enumerate(zip(kept, scores)):
            split = "val" if i in val else "train"
            fh.write(f"{rec['index']},{rec['label']},{split}," +
                     ",".join(repr(float(v)) for v in row) + "\n")
    val_idx = result.val_indices
    report = {
        "version": 1,
        "val_accuracy": result.val_accuracy,
        "val_auroc": (metrics.auroc(scores[val_idx, 1], labels[val_idx])
                      if num_classes == 2 else None),
        "no_lesion_left_out": left_out,
    }
    np.save(out_dir / "probe_params.npy", result.probe_params)
    (out_dir / "finetune_report.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"probe val accuracy {result.val_accuracy:.4f}")
    return EXIT_OK


def cmd_eval(pred_path: Path, gt_path: Path, out_path: Path) -> int:
    pred = read_pgm(pred_path) >= 127.5
    gt = read_pgm(gt_path) >= 127.5
    report = {
        "version": 1,
        "dsc": metrics.dsc(pred, gt),
        "hausdorff": (metrics.hausdorff(pred, gt)
                      if pred.any() and gt.any() else None),
        "mae": metrics.mae(pred.astype(np.float64), gt.astype(np.float64)),
    }
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    return EXIT_OK


def cmd_transform(direction: str, in_path: Path, out_path: Path) -> int:
    warp = (smat.linear_to_convex if direction == "linear-to-convex"
            else smat.convex_to_linear)
    write_pgm(warp(read_pgm(in_path)), out_path)
    return EXIT_OK


def cmd_corrupt(cfg: dict, in_path: Path, out_path: Path) -> int:
    img = read_pgm(in_path)
    out = mixed_corrupt(img, _corruption(cfg), Rng(cfg["seed"]))
    write_pgm(out, out_path)
    return EXIT_OK


def cmd_mask_preview(cfg: dict, in_path: Path, out_path: Path) -> int:
    img = read_pgm(in_path)
    patch = _patch_spec(cfg)
    patches, masked = apply_uim(
        img, _corruption(cfg), patch.patch_h, patch.patch_w,
        patch.mask_ratio, Rng(cfg["seed"]),
    )
    patches[masked] = 0.0
    write_pgm(depatchify(patches, patch.patch_h, patch.patch_w, img.shape), out_path)
    sidecar = {"version": 1, "masked": np.flatnonzero(masked).tolist(),
               "visible": np.flatnonzero(~masked).tolist()}
    Path(str(out_path) + ".json").write_text(
        json.dumps(sidecar, indent=1) + "\n", encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmim",
        description="Deterministic federated masked-image-modeling pipeline "
                    "for ultrasound phantoms.",
    )
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility (>= 1); has no effect")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write a synthetic labeled dataset")
    sub.add_parser("pretrain", help="run federated pre-training")
    p = sub.add_parser("finetune", help="train a linear probe on a checkpoint")
    p.add_argument("checkpoint", help="checkpoint base path (no extension)")
    p.add_argument("labeled_dir", help="directory from `generate`")
    p = sub.add_parser("eval", help="compare prediction and truth masks")
    p.add_argument("pred"); p.add_argument("truth")
    p.add_argument("--report", default=None, help="metrics JSON path")
    p = sub.add_parser("transform", help="scanning-mode warp of one image")
    p.add_argument("direction", choices=["linear-to-convex", "convex-to-linear"])
    p.add_argument("input"); p.add_argument("output")
    p = sub.add_parser("corrupt", help="apply mixed corruption to one image")
    p.add_argument("input"); p.add_argument("output")
    p = sub.add_parser("mask-preview", help="texture-guided mask of one image")
    p.add_argument("input"); p.add_argument("output")
    return parser


# Built once: a parse leaves the parser as it was, and building it costs
# far more than a parse.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        # Rng keeps only a seed's low 64 bits; a wider seed would alias.
        if not 0 <= cfg["seed"] < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {cfg['seed']}")
        # --threads is checked for compatibility but has no effect: clients
        # always run serially.
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        out_dir = Path(args.out)
        if args.command == "generate":
            return cmd_generate(cfg, out_dir)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, out_dir)
        if args.command == "finetune":
            return cmd_finetune(cfg, Path(args.checkpoint),
                                Path(args.labeled_dir), out_dir)
        if args.command == "eval":
            report = Path(args.report) if args.report else Path(args.pred + ".metrics.json")
            return cmd_eval(Path(args.pred), Path(args.truth), report)
        if args.command == "transform":
            return cmd_transform(args.direction, Path(args.input), Path(args.output))
        if args.command == "corrupt":
            return cmd_corrupt(cfg, Path(args.input), Path(args.output))
        # argparse admits no command but the ones above and mask-preview.
        return cmd_mask_preview(cfg, Path(args.input), Path(args.output))
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteLoss as exc:  # nothing is written: a resumed run keeps its head
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FedmimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
