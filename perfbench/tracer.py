"""Per-layer timing from outside the program.

A traced segment replaces the public functions listed in ``LAYERS`` with
timing wrappers, in every ``fedmim`` module that holds a reference to
them (``from .model import batch_loss_and_grad`` binds a second name, so
patching the defining module alone would miss most calls). The originals
are put back when the segment ends, so untraced code runs unwrapped.

Each wrapper adds its duration to its span and to its caller's child
time, which gives self time as total minus children. Counters that need
the arguments or the result (bytes written, batch sizes, point-set
sizes) are filled by small hooks.

The rng layer is not wrapped: it is called once per drawn value, so a
wrapper there would dominate the run. It is measured through its
callers (``generate_phantom``, ``salt_pepper``, ``init_params``).
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(path) -> int:
    return os.path.getsize(os.fspath(path))


def _prepared_bytes(batch) -> int:
    fields = ("visible", "targets", "q_visible", "q_masked", "pe",
              "targets_full", "mask_weight")
    return sum(getattr(batch, f).nbytes for f in fields
               if getattr(batch, f) is not None)


def _checkpoint_bytes(args, kwargs, result):
    prefix = _arg(args, kwargs, 0, "path_prefix")
    return _file_size(f"{prefix}.json") + _file_size(f"{prefix}.params")


def _rounds_run(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    start = args[4] if len(args) > 4 else kwargs.get("start_round", 0)
    return cfg.total_rounds - start


def _hausdorff_pairs(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "pred")) * len(_arg(args, kwargs, 1, "truth"))


# (module, function) -> counters filled after each call, as
# {counter name: hook(args, kwargs, result) -> number}.
LAYERS: dict[tuple[str, str], dict] = {
    ("synth", "generate_dataset"): {},
    ("synth", "generate_phantom"): {},
    ("synth", "partition_clients"): {},
    ("smat", "linear_to_convex"): {},
    ("smat", "convex_to_linear"): {},
    ("corrupt", "mixed_corrupt"): {},
    ("corrupt", "salt_pepper"): {},
    ("image", "convolve2d"): {},
    ("image", "patchify"): {},
    ("image", "write_pgm"): {
        "image.pgm_bytes": lambda a, k, r: _file_size(_arg(a, k, 1, "path"))},
    ("image", "read_pgm"): {
        "image.pgm_bytes": lambda a, k, r: _file_size(_arg(a, k, 0, "path"))},
    ("tgm", "texture_map"): {},
    ("tgm", "select_mask"): {},
    ("pipeline", "build_clients"): {},
    ("model", "prepare_batch"): {
        "model.prepared_batch_bytes": lambda a, k, r: _prepared_bytes(r)},
    ("model", "batch_loss_and_grad"): {
        "model.batch_samples": lambda a, k, r: _arg(a, k, 2, "batch").size},
    ("model", "init_params"): {},
    ("model", "encode_features"): {},
    ("fed", "run_pretraining"): {"fed.rounds": _rounds_run},
    ("fed", "local_update"): {},
    ("fed", "aggregate"): {},
    ("fed", "global_loss"): {},
    ("fed", "save_checkpoint"): {"fed.checkpoint_bytes": _checkpoint_bytes},
    ("fed", "load_checkpoint"): {},
    ("finetune", "extract_features"): {},
    ("finetune", "train_probe"): {},
    ("finetune", "probe_scores"): {},
    ("metrics", "mask_points"): {},
    ("metrics", "hausdorff"): {"metrics.hausdorff_pairs": _hausdorff_pairs},
    ("metrics", "dsc"): {},
    ("metrics", "auroc"): {},
    ("cli", "cmd_generate"): {},
    ("cli", "cmd_pretrain"): {},
    ("cli", "cmd_finetune"): {},
    ("cli", "cmd_eval"): {},
}


def span_name(module: str, func: str) -> str:
    return f"{module}.{func.removeprefix('cmd_')}"


class Span:
    __slots__ = ("total", "self_time", "calls")

    def __init__(self):
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0


class Tracer:
    """Spans and counters over the traced segments of one run.

    ``summary()`` divides by the number of segments, so every figure is
    "per workload pass" however many traced passes a run fitted into its
    time budget.
    """

    def __init__(self):
        self._spans: dict[str, Span] = defaultdict(Span)
        self._counts: dict[str, float] = defaultdict(float)
        self._segments = 0
        self._children: list[float] = []

    def _wrap(self, fn, name: str, hooks: dict):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            self._children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                span = self._spans[name]
                span.total += elapsed
                span.self_time += elapsed - child
                span.calls += 1
                if self._children:
                    self._children[-1] += elapsed
            for counter, hook in hooks.items():
                self._counts[counter] += hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def segment(self):
        """Trace every layer function for the duration of the block."""
        modules = [m for n, m in sys.modules.items()
                   if n == "fedmim" or n.startswith("fedmim.")]
        patched = []
        for (mod_name, func), hooks in LAYERS.items():
            original = getattr(sys.modules[f"fedmim.{mod_name}"], func)
            wrapper = self._wrap(original, span_name(mod_name, func), hooks)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        self._segments += 1
        try:
            yield
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def summary(self) -> tuple[dict[str, Span], dict[str, float]]:
        n = max(self._segments, 1)
        spans: dict[str, Span] = {}
        for name, s in self._spans.items():
            spans[name] = avg = Span()
            avg.total, avg.self_time, avg.calls = s.total / n, s.self_time / n, s.calls / n
        return spans, {name: v / n for name, v in self._counts.items()}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures named in BENCHMARK.json, from one summary."""
    spans, counts = tracer.summary()

    def s(name):
        return spans[name].total if name in spans else 0.0

    def calls(*names):
        return float(sum(spans[n].calls for n in names if n in spans))

    def self_s(name):
        return spans[name].self_time if name in spans else 0.0

    samples = counts.get("model.batch_samples", 0.0)
    rounds = counts.get("fed.rounds", 0.0)
    out = {
        "synth.generate_dataset_s": s("synth.generate_dataset"),
        "synth.generate_phantom_s": s("synth.generate_phantom"),
        "synth.generate_phantom_calls": calls("synth.generate_phantom"),
        "synth.partition_clients_s": s("synth.partition_clients"),
        "smat.linear_to_convex_s": s("smat.linear_to_convex"),
        "smat.convex_to_linear_s": s("smat.convex_to_linear"),
        "smat.warp_calls": calls("smat.linear_to_convex", "smat.convex_to_linear"),
        "corrupt.mixed_corrupt_s": s("corrupt.mixed_corrupt"),
        "corrupt.salt_pepper_s": s("corrupt.salt_pepper"),
        "corrupt.salt_pepper_calls": calls("corrupt.salt_pepper"),
        "image.convolve2d_s": s("image.convolve2d"),
        "image.patchify_s": s("image.patchify"),
        "image.write_pgm_s": s("image.write_pgm"),
        "image.read_pgm_s": s("image.read_pgm"),
        "image.pgm_bytes": counts.get("image.pgm_bytes", 0.0),
        "tgm.texture_map_s": s("tgm.texture_map"),
        "tgm.select_mask_s": s("tgm.select_mask"),
        "pipeline.build_clients_s": s("pipeline.build_clients"),
        "pipeline.build_clients_self_s": self_s("pipeline.build_clients"),
        "model.prepare_batch_s": s("model.prepare_batch"),
        "model.batch_loss_and_grad_s": s("model.batch_loss_and_grad"),
        "model.batch_loss_and_grad_calls": calls("model.batch_loss_and_grad"),
        "model.step_us_per_sample": (
            s("model.batch_loss_and_grad") / samples * 1e6 if samples else 0.0),
        "model.init_params_s": s("model.init_params"),
        "model.encode_features_s": s("model.encode_features"),
        "model.prepared_batch_bytes": counts.get("model.prepared_batch_bytes", 0.0),
        "fed.run_pretraining_s": s("fed.run_pretraining"),
        "fed.local_update_s": s("fed.local_update"),
        "fed.aggregate_s": s("fed.aggregate"),
        "fed.global_loss_s": s("fed.global_loss"),
        "fed.global_loss_calls": calls("fed.global_loss"),
        "fed.round_ms": s("fed.run_pretraining") / rounds * 1e3 if rounds else 0.0,
        "fed.run_pretraining_self_s": self_s("fed.run_pretraining"),
        "fed.save_checkpoint_s": s("fed.save_checkpoint"),
        "fed.load_checkpoint_s": s("fed.load_checkpoint"),
        "fed.checkpoint_bytes": counts.get("fed.checkpoint_bytes", 0.0),
        "finetune.extract_features_s": s("finetune.extract_features"),
        "finetune.train_probe_s": s("finetune.train_probe"),
        "finetune.probe_scores_s": s("finetune.probe_scores"),
        "metrics.mask_points_s": s("metrics.mask_points"),
        "metrics.hausdorff_s": s("metrics.hausdorff"),
        "metrics.hausdorff_pairs": counts.get("metrics.hausdorff_pairs", 0.0),
        "metrics.dsc_s": s("metrics.dsc"),
        "metrics.auroc_s": s("metrics.auroc"),
        "cli.generate_s": s("cli.generate"),
        "cli.pretrain_s": s("cli.pretrain"),
        "cli.finetune_s": s("cli.finetune"),
        "cli.eval_s": s("cli.eval"),
    }
    return out
