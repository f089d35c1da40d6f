"""Computations made apart from the program, used to check its outputs.

Nothing here calls into ``fedmim`` for the quantity it checks: the loss
is a per-sample dense re-implementation of the model's masked-patch MSE,
PGM files are parsed here, AUROC is a pairwise count, Hausdorff distance
comes from scipy, and checkpoint checksums are recomputed with zlib.
Each ``check_*`` function returns ``(ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np
from scipy.spatial.distance import directed_hausdorff

def sinusoid_table(num_patches: int, embed_dim: int) -> np.ndarray:
    """Position p, dim d: sin(p / 10000^(2*floor(d/2)/E)) for even d, cos for odd."""
    table = np.empty((num_patches, embed_dim))
    for p in range(num_patches):
        for d in range(embed_dim):
            angle = p / 10000.0 ** (2 * (d // 2) / embed_dim)
            table[p, d] = math.sin(angle) if d % 2 == 0 else math.cos(angle)
    return table


def split_params(params: np.ndarray, patch_dim: int, embed_dim: int):
    """(W_e, b_e, W_d, b_d) from the flat layout [W_e, b_e, W_d, b_d]."""
    n, e = patch_dim, embed_dim
    sizes = [e * n, e, n * 2 * e, n]
    if params.size != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} parameters, got {params.size}")
    w_e, b_e, w_d, b_d = np.split(params, np.cumsum(sizes)[:-1])
    return w_e.reshape(e, n), b_e, w_d.reshape(n, 2 * e), b_d


def sample_loss(params, patch_dim, embed_dim, visible, targets, q_vis, q_mask) -> float:
    """Mean squared pixel error over one sample's masked patches."""
    w_e, b_e, w_d, b_d = split_params(params, patch_dim, embed_dim)
    context = np.tanh(visible @ w_e.T + b_e + q_vis).mean(axis=0)
    total = 0.0
    for q_m, target in zip(q_mask, targets):
        pred = w_d @ np.concatenate([context, q_m]) + b_d
        total += float(np.sum((pred - target) ** 2))
    return total / (targets.shape[0] * patch_dim)


def client_loss(params, patch_dim, embed_dim, batch) -> float:
    """Mean over the client's samples, from the batch's dense tensors."""
    losses = [
        sample_loss(params, patch_dim, embed_dim, batch.visible[i], batch.targets[i],
                    batch.q_visible[i], batch.q_masked[i])
        for i in range(batch.size)
    ]
    return math.fsum(losses) / len(losses)


def federated_loss(params, patch_dim, embed_dim, clients) -> float:
    """Sample-count-weighted mean of the per-client losses."""
    total = sum(c.batch.size for c in clients)
    return math.fsum(c.batch.size * client_loss(params, patch_dim, embed_dim, c.batch)
                     for c in clients) / total


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_loss(params, patch_dim, embed_dim, clients, program_loss, what="final"):
    ours = federated_loss(params, patch_dim, embed_dim, clients)
    d = rel_diff(ours, program_loss)
    return d <= 1e-9, f"{what} loss program {program_loss!r} oracle {ours!r} rel {d:.1e}"


def check_positional_table(batch, num_patches, embed_dim):
    if batch.pe is None:
        return True, "batch has no full-grid table"
    d = float(np.max(np.abs(batch.pe - sinusoid_table(num_patches, embed_dim))))
    return d <= 1e-12, f"positional table max diff {d:.1e}"


def check_gradient(program_grad, params, patch_dim, embed_dim, batch, coords,
                   h=1e-6):
    """Central differences of the oracle loss at the given coordinates."""
    probe = params.copy()
    worst = 0.0
    for i in coords:
        probe[i] = params[i] + h
        hi = client_loss(probe, patch_dim, embed_dim, batch)
        probe[i] = params[i] - h
        lo = client_loss(probe, patch_dim, embed_dim, batch)
        probe[i] = params[i]
        fd = (hi - lo) / (2 * h)
        err = abs(fd - program_grad[i]) / (1e-6 + abs(fd))
        worst = max(worst, err)
    return worst <= 1e-4, f"{len(coords)} coordinates, worst scaled error {worst:.1e}"


def gradient_coords(patch_dim: int, embed_dim: int, seed: int, per_block: int = 3):
    """Sampled coordinates, `per_block` in each of W_e, b_e, W_d, b_d."""
    n, e = patch_dim, embed_dim
    sizes = [e * n, e, n * 2 * e, n]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    gen = np.random.default_rng(seed)
    return [int(s + gen.integers(size)) for s, size in zip(starts, sizes)
            for _ in range(per_block)]


def check_no_rise(losses, warmup: int):
    """Losses recorded after the warmup rounds never increase."""
    rises = [(i + 1, losses[i + 1] - losses[i]) for i in range(warmup, len(losses) - 1)
             if losses[i + 1] > losses[i]]
    if not rises:
        return True, f"{len(losses) - 1 - warmup} post-warmup rounds, none rose"
    row, by = rises[0]
    return False, f"loss rose at trace row {row} by {by!r}"


def check_fedsgd_round(theta, grads, sizes, eta, program_next):
    """One round at local_steps 1 is theta - eta * sum_k (n_k/n) g_k."""
    n = sum(sizes)
    expected = theta - eta * sum((n_k / n) * g for g, n_k in zip(grads, sizes))
    d = float(np.max(np.abs(expected - program_next)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(theta))))
    return d <= tol, f"max |diff| {d:.1e} (tol {tol:.1e}), eta {eta!r}"


def check_checkpoint(prefix, params=None):
    """Manifest CRC32 and length against the payload bytes, recomputed here."""
    manifest = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    payload = Path(f"{prefix}.params").read_bytes()
    problems = []
    if zlib.crc32(payload) != manifest["crc32"]:
        problems.append("crc32 differs")
    if len(payload) != 8 * manifest["param_count"]:
        problems.append(f"{len(payload)} bytes for {manifest['param_count']} params")
    if params is not None and payload != np.asarray(params, dtype="<f8").tobytes():
        problems.append("payload differs from the returned parameters")
    return not problems, "; ".join(problems) or f"crc32 and {len(payload)} bytes match"


def read_pgm(path) -> np.ndarray:
    """Binary P5 PGM without comments, maxval 255."""
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    if fields[0] != b"P5" or int(fields[3]) != 255:
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    w, h = int(fields[1]), int(fields[2])
    if len(raw) < w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw[len(raw) - w * h:], dtype=np.uint8).reshape(h, w)


def check_eval(report: dict, pred_pgm, truth_pgm):
    """DSC, Hausdorff and MAE of two thresholded masks, recomputed here."""
    pred = read_pgm(pred_pgm) >= 128
    truth = read_pgm(truth_pgm) >= 128
    both = int(np.sum(pred & truth))
    sizes = int(pred.sum()) + int(truth.sum())
    dsc = 1.0 if sizes == 0 else 2.0 * both / sizes
    mae = float(np.mean(pred != truth))
    problems = []
    if rel_diff(dsc, report["dsc"]) > 1e-12:
        problems.append(f"dsc {report['dsc']!r} vs {dsc!r}")
    if rel_diff(mae, report["mae"]) > 1e-12:
        problems.append(f"mae {report['mae']!r} vs {mae!r}")
    p_pts = np.argwhere(pred)
    t_pts = np.argwhere(truth)
    if len(p_pts) and len(t_pts):
        hd = max(directed_hausdorff(p_pts, t_pts)[0], directed_hausdorff(t_pts, p_pts)[0])
        if report["hausdorff"] is None or rel_diff(hd, report["hausdorff"]) > 1e-12:
            problems.append(f"hausdorff {report['hausdorff']!r} vs {hd!r}")
    elif report["hausdorff"] is not None:
        problems.append("hausdorff reported for an empty mask")
    return not problems, "; ".join(problems) or "dsc, hausdorff and mae match"


def read_scores(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def pairwise_auroc(pos_scores, neg_scores) -> float:
    """Share of (positive, negative) pairs ranked right, ties counting half."""
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p in pos_scores for q in neg_scores)
    return wins / (len(pos_scores) * len(neg_scores))


def check_finetune(scores_csv, report_json):
    """Validation accuracy and AUROC in the report, from scores.csv alone."""
    rows = [r for r in read_scores(scores_csv) if r["split"] == "val"]
    report = json.loads(Path(report_json).read_text(encoding="utf-8"))
    classes = sorted(k for k in rows[0] if k.startswith("p"))
    correct = 0
    for r in rows:
        probs = [float(r[c]) for c in classes]
        correct += probs.index(max(probs)) == int(r["label"])
    accuracy = correct / len(rows)
    problems = []
    if accuracy != report["val_accuracy"]:
        problems.append(f"accuracy {report['val_accuracy']!r} vs {accuracy!r}")
    if len(classes) == 2:
        pos = [float(r["p1"]) for r in rows if r["label"] == "1"]
        neg = [float(r["p1"]) for r in rows if r["label"] == "0"]
        auc = pairwise_auroc(pos, neg)
        if report["val_auroc"] is None or rel_diff(auc, report["val_auroc"]) > 1e-12:
            problems.append(f"auroc {report['val_auroc']!r} vs {auc!r}")
    detail = f"{len(rows)} validation rows: accuracy and auroc match"
    return not problems, "; ".join(problems) or detail
