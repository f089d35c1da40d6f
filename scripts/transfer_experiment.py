"""Transfer study: does masked-image pre-training beat a random encoder?

Protocol: pre-train an 8-dimensional encoder on 256 benign/malignant
phantoms (4 Dirichlet clients), then train linear probes (5 seeds) on a
separate 300-sample set and score a 200-sample held-out set. Convex-mode
images are unwarped to linear before feature extraction so both scan
modes share a feature space, and features are standardized with
training-split statistics. The random-encoder arm repeats the probe
training on freshly initialized encoders. Acceptance criterion 5 runs
transfer_aurocs at its defaults. With --seeds a..b the protocol runs at
every seed from a to b, and the script prints each seed's gap, then their
minimum, median and maximum.
"""

import argparse

import numpy as np

from fedmim import fed, metrics, model, smat, synth
from fedmim.corrupt import CorruptionConfig
from fedmim.finetune import (
    ProbeConfig,
    extract_features,
    probe_scores,
    probe_split,
    train_probe,
)
from fedmim.pipeline import PatchSpec, build_clients
from fedmim.rng import Rng

LESION = synth.LesionSpec(
    intensity_delta=-75.0, malignant_delta=-95.0, irregularity_range=(0.6, 1.0)
)


def mode_normalized(samples):
    return [smat.convex_to_linear(s.image) if s.mode == smat.CONVEX else s.image
            for s in samples]


def probe_auroc(params, cfg, probe_images, probe_labels, held_images, held_labels,
                seed):
    feats = extract_features(params, cfg, probe_images, 8, 8)
    held = extract_features(params, cfg, held_images, 8, 8)
    # Standardize with the statistics of the training split that
    # train_probe takes.
    probe_cfg = ProbeConfig(num_classes=2, seed=seed)
    _, train_idx = probe_split(feats.shape[0], probe_cfg)
    mu = feats[train_idx].mean(axis=0)
    sd = feats[train_idx].std(axis=0) + 1e-12
    result = train_probe((feats - mu) / sd, probe_labels, probe_cfg)
    scores = probe_scores(result.probe_params, (held - mu) / sd, 2)[:, 1]
    return metrics.auroc(scores, held_labels)


def transfer_aurocs(seed=7, rounds=300):
    """The held-out probe AUROCs of the pre-trained encoder and of random
    encoders, one per probe seed 0..4: (pretrained, random)."""
    base = synth.PhantomSpec()
    corpus = synth.generate_dataset(256, (0.5, 0.5, 0.0), Rng(seed), base, LESION)
    probe_set = synth.generate_dataset(300, (0.5, 0.5, 0.0), Rng(9), base, LESION)
    held_out = synth.generate_dataset(200, (0.5, 0.5, 0.0), Rng(8), base, LESION)

    model_cfg = model.ModelConfig(patch_dim=64, embed_dim=8, num_patches=64, seed=seed)
    clients = build_clients(
        corpus, 4, 0.5, model_cfg, CorruptionConfig(), PatchSpec(8, 8, 0.75), seed,
    )
    fed_cfg = fed.FederationConfig(
        num_clients=4, total_rounds=rounds, local_steps=8,
        opt=model.OptimizerConfig(0.15, 1e-4, 10, rounds), seed=seed,
    )
    pretrained, _ = fed.run_pretraining(
        fed_cfg, model_cfg, clients, model.init_params(model_cfg)
    )

    probe = (mode_normalized(probe_set), np.array([s.label for s in probe_set]),
             mode_normalized(held_out), np.array([s.label for s in held_out]))
    aucs_pre, aucs_rand = [], []
    for probe_seed in range(5):
        aucs_pre.append(probe_auroc(pretrained, model_cfg, *probe, probe_seed))
        rand_cfg = model.ModelConfig(64, 8, 64, seed=1000 + probe_seed)
        aucs_rand.append(probe_auroc(model.init_params(rand_cfg), rand_cfg, *probe,
                                     probe_seed))
    return aucs_pre, aucs_rand


def seed_range(text):
    """The seeds a, a + 1, ..., b of an inclusive range "a..b", a <= b."""
    lo, sep, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi) + 1)
    except ValueError:
        seeds = None
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"expected a..b with a <= b, got {text!r}")
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    seed = ap.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=7)
    seed.add_argument("--seeds", type=seed_range, metavar="A..B")
    ap.add_argument("--rounds", type=int, default=300)
    args = ap.parse_args()

    if args.seeds is not None:
        gaps = []
        for s in args.seeds:
            aucs_pre, aucs_rand = transfer_aurocs(s, args.rounds)
            gaps.append(np.mean(aucs_pre) - np.mean(aucs_rand))
            print(f"seed {s}: pretrained mean {np.mean(aucs_pre):.3f}  gap {gaps[-1]:.3f}  "
                  f"t-test p {metrics.t_test(aucs_pre, aucs_rand):.2e}", flush=True)
        print(f"gap over seeds {args.seeds[0]}..{args.seeds[-1]}: min {min(gaps):.3f}  "
              f"median {np.median(gaps):.3f}  max {max(gaps):.3f}")
        return

    aucs_pre, aucs_rand = transfer_aurocs(args.seed, args.rounds)
    mean_pre, half_pre = metrics.ci95(aucs_pre)
    mean_rand, half_rand = metrics.ci95(aucs_rand)
    print("pretrained AUROC", np.round(aucs_pre, 3),
          f"mean {mean_pre:.3f} +/- {half_pre:.3f}")
    print("random     AUROC", np.round(aucs_rand, 3),
          f"mean {mean_rand:.3f} +/- {half_rand:.3f}")
    print(f"gap {mean_pre - mean_rand:.3f}  "
          f"t-test p {metrics.t_test(aucs_pre, aucs_rand):.2e}")


if __name__ == "__main__":
    main()
