"""Self-check of the benchmark's oracles.

On a tiny configuration, the independent loss, gradient, AUROC,
Hausdorff and CRC computations in ``oracles.py`` must agree with what
fedmim wrote; on deliberately perturbed outputs (one flipped parameter,
one altered score, one altered distance, one altered gradient entry)
the same checks must report a failure. Exits 0 when every check behaves
as expected. Run from the root of a source checkout:

    python3 perfbench/selfcheck.py
"""

import io
import json
import shutil
import struct
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

TINY = {
    "version": 1,
    "model": {"patch_dim": 64, "embed_dim": 4, "num_patches": 16},
    "synth": {"n": 20, "width": 32, "height": 32, "class_mix": [0.5, 0.5, 0.0]},
    "federation": {"num_clients": 2, "total_rounds": 3, "local_steps": 2},
    "optimizer": {"warmup_rounds": 1},
    "probe": {"epochs": 20, "val_fraction": 0.5},
}
SEED = 5


def fedmim_cli(argv):
    from fedmim import cli

    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"selfcheck: fedmim {' '.join(argv)} exited {code}")


def flip_sign_of_largest(src_prefix: Path, dst_prefix: Path) -> None:
    """Copy a checkpoint with the sign bit of its largest parameter flipped."""
    payload = bytearray(Path(f"{src_prefix}.params").read_bytes())
    values = struct.unpack(f"<{len(payload) // 8}d", payload)
    k = max(range(len(values)), key=lambda i: abs(values[i]))
    payload[8 * k + 7] ^= 0x80
    Path(f"{dst_prefix}.params").write_bytes(bytes(payload))
    shutil.copyfile(f"{src_prefix}.json", f"{dst_prefix}.json")


def demote_best_positive(src: Path, dst: Path) -> None:
    """Copy scores.csv with the top-scored validation positive made the lowest."""
    lines = src.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    val_pos = [r for r in rows if r[2] == "val" and r[1] == "1"]
    best = max(val_pos, key=lambda r: float(r[4]))
    best[3], best[4] = "1.0", "-1.0"
    dst.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n",
                   encoding="utf-8")


def main() -> int:
    run.import_program()
    import numpy as np

    import oracles
    from fedmim import cli, model, pipeline

    results = []  # (name, expected ok, observed (ok, detail))
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(TINY), encoding="utf-8")
        common = ["--config", str(config), "--seed", str(SEED)]
        data, pre, ft, ev = work / "data", work / "run", work / "ft", work / "eval"
        fedmim_cli(common + ["--out", str(data), "generate"])
        fedmim_cli(common + ["--out", str(pre), "pretrain"])
        fedmim_cli(common + ["--out", str(ft), "finetune", str(pre / "checkpoint"), str(data)])

        cfg = cli.load_config(str(config))
        cfg["seed"] = SEED
        mc = cli._model_config(cfg)
        clients = pipeline.build_clients(
            cli._generate(cfg), cfg["federation"]["num_clients"],
            cfg["federation"]["alpha"], mc, cli._corruption(cfg), cli._patch_spec(cfg),
            SEED)
        trace = (pre / "loss_trace.csv").read_text(encoding="utf-8").splitlines()
        final_loss = float(trace[-1].split(",")[1])
        prefix = pre / "checkpoint"
        params = np.frombuffer(Path(f"{prefix}.params").read_bytes(), dtype="<f8").copy()
        dims = (mc.patch_dim, mc.embed_dim)

        results.append(("loss", True, oracles.check_loss(params, *dims, clients, final_loss)))
        results.append(("crc", True, oracles.check_checkpoint(prefix)))
        flipped = work / "flipped"
        flip_sign_of_largest(prefix, flipped)
        bad = np.frombuffer(Path(f"{flipped}.params").read_bytes(), dtype="<f8")
        results.append(("loss, flipped parameter", False,
                        oracles.check_loss(bad, *dims, clients, final_loss)))
        results.append(("crc, flipped parameter", False, oracles.check_checkpoint(flipped)))

        batch = clients[0].batch
        _, grad = model.batch_loss_and_grad(params, mc, batch)
        coords = oracles.gradient_coords(*dims, SEED)
        results.append(("gradient", True,
                        oracles.check_gradient(grad, params, *dims, batch, coords)))
        altered = grad.copy()
        altered[coords[0]] += 1e-3 + abs(altered[coords[0]])
        results.append(("gradient, altered entry", False,
                        oracles.check_gradient(altered, params, *dims, batch, coords)))

        scores, report = ft / "scores.csv", ft / "finetune_report.json"
        results.append(("auroc+accuracy", True, oracles.check_finetune(scores, report)))
        demoted = work / "scores_altered.csv"
        demote_best_positive(scores, demoted)
        results.append(("auroc+accuracy, altered score", False,
                        oracles.check_finetune(demoted, report)))

        labels = json.loads((data / "labels.json").read_text(encoding="utf-8"))
        k = next(r["index"] for r in labels["samples"] if r["mode"] == "linear")
        ev.mkdir()
        truth, cvx, back = data / f"mask_{k:04d}.pgm", ev / "cvx.pgm", ev / "back.pgm"
        fedmim_cli(["transform", "linear-to-convex", str(truth), str(cvx)])
        fedmim_cli(["transform", "convex-to-linear", str(cvx), str(back)])
        fedmim_cli(["eval", str(back), str(truth), "--report", str(ev / "eval.json")])
        rep = json.loads((ev / "eval.json").read_text(encoding="utf-8"))
        results.append(("dsc+hausdorff+mae", True, oracles.check_eval(rep, back, truth)))
        rep["hausdorff"] += 1.0
        results.append(("dsc+hausdorff+mae, altered distance", False,
                        oracles.check_eval(rep, back, truth)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    status = 0
    for name, expected, (ok, detail) in results:
        as_expected = ok == expected
        status |= not as_expected
        verdict = "as expected" if as_expected else "UNEXPECTED"
        print(f"{name:40s} {'pass' if ok else 'fail':4s}  {verdict}  ({detail})")
    print("selfcheck " + ("ok" if status == 0 else "FAILED"))
    return status


if __name__ == "__main__":
    sys.exit(main())
