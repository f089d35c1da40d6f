"""The three workloads. Each runs in its own process and returns an
``Outcome``: end-to-end metrics, the result of every check, and the
count of operations attempted and failed.

A run repeats whole passes of its workload until ``--seconds`` is spent,
at least twice. A pass builds the inputs from ``--seed`` (synthesis,
client construction and init, or the ``generate`` command), trains, and
writes its outputs. Every pass starts from the same seed, so passes must
agree byte for byte; figures are medians over passes. In a traced run,
every second pass runs with the layer wrappers installed.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import oracles
from tracer import Tracer, layer_metrics

from fedmim import cli, fed, model, pipeline, synth
from fedmim.corrupt import CorruptionConfig
from fedmim.rng import Rng

# Model and masking shared by every workload: 64x64 images in 8x8
# patches (L = 64 patches of N = 64 pixels), mask ratio 0.75.
PATCH = pipeline.PatchSpec(8, 8, 0.75)
PATCH_DIM = 64
NUM_PATCHES = 64
# The training workloads draw data, corruption, masks and the client split
# from --seed but start every seed from one model init (criterion 4's
# seed 7). The initial loss then varies with the data alone, so
# loss_ratio is comparable across seeds.
MODEL_SEED = 7


@dataclass(frozen=True)
class TrainSpec:
    """A federated pre-training run called through the library API."""

    samples: int
    class_mix: tuple[float, float, float]
    clients: int
    alpha: float
    embed_dim: int
    local_steps: int
    rounds: int  # rounds run in each pass
    eta_max: float
    warmup: int
    schedule_rounds: int  # horizon of the warmup + cosine schedule


# The criterion-4 setup, cut to 12 rounds: step-bound.
C4_SHORT = TrainSpec(samples=512, class_mix=(0.35, 0.35, 0.3), clients=8, alpha=0.5,
                     embed_dim=32, local_steps=48, rounds=12, eta_max=5e-4,
                     warmup=10, schedule_rounds=200)
# FedSGD over many small shards: round-bound.
MANY_CLIENTS = TrainSpec(samples=256, class_mix=(0.35, 0.35, 0.3), clients=32,
                         alpha=0.5, embed_dim=32, local_steps=1, rounds=200,
                         eta_max=0.05, warmup=10, schedule_rounds=200)

# The documented chain with a lesion-only class mix (the default mix
# emits label 2, which the default 2-class probe cannot take).
CLI_CONFIG = {"version": 1, "synth": {"class_mix": [0.5, 0.5, 0.0]}}


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    def check(self, name: str, result: tuple[bool, str]) -> None:
        self.checks.append((name, bool(result[0]), result[1]))


@dataclass
class Pass:
    seconds: float
    traced: bool
    data: dict


class Run:
    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = workdir
        self.out = Outcome()

    def repeat(self, body) -> list[Pass]:
        """Call body(i) until the next call would overrun the budget;
        at least twice. Odd passes are traced in a traced run."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None and len(passes) % 2 == 1
            with self.tracer.segment() if traced else nullcontext():
                t0 = time.perf_counter()
                data = body(len(passes))
                passes.append(Pass(time.perf_counter() - t0, traced, data))
            elapsed = time.perf_counter() - start
            if len(passes) >= 2 and elapsed * (1 + 1 / len(passes)) > self.seconds:
                return passes

    def finish(self, passes: list[Pass], end_to_end: dict[str, tuple[float, str]]):
        """Report end-to-end metrics, or in a traced run the layer figures."""
        self.out.info["pass_seconds"] = [r.seconds for r in passes]
        if self.tracer is None:
            self.out.metrics = dict(end_to_end)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.out.metrics["peak_rss_mb"] = (rss_mib, "MiB")
            return
        plain = [r.seconds for r in passes if not r.traced]
        traced = [r.seconds for r in passes if r.traced]
        self.out.metrics = {name: (value, None)
                            for name, value in layer_metrics(self.tracer).items()}
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        self.out.metrics["trace.overhead_pct"] = (100.0 * overhead, "%")


def _same_bytes(passes: list[Pass], key: str) -> tuple[bool, str]:
    first = passes[0].data[key]
    bad = [i for i, r in enumerate(passes) if r.data[key] != first]
    if bad:
        return False, f"{key} differs from pass 0 in passes {bad}"
    return True, f"{key} identical over {len(passes)} passes"


def train_workload(spec: TrainSpec, run: Run) -> Outcome:
    out = run.out
    seed = run.seed
    mc = model.ModelConfig(PATCH_DIM, spec.embed_dim, NUM_PATCHES, seed=MODEL_SEED)
    opt = model.OptimizerConfig(spec.eta_max, 1e-6, spec.warmup, spec.schedule_rounds)
    fc = fed.FederationConfig(spec.clients, spec.rounds, spec.local_steps, opt, seed)

    state = {}

    def one_pass(i: int) -> dict:
        state.clear()  # let the previous pass's clients go before building more
        t0 = time.perf_counter()
        dataset = synth.generate_dataset(
            spec.samples, spec.class_mix, Rng(seed), synth.PhantomSpec())
        clients = pipeline.build_clients(
            dataset, spec.clients, spec.alpha, mc, CorruptionConfig(), PATCH, seed)
        params0 = model.init_params(mc)
        t1 = time.perf_counter()
        del dataset
        final, trace = fed.run_pretraining(fc, mc, clients, params0)
        t2 = time.perf_counter()
        prefix = str(run.workdir / f"checkpoint{i}")
        fed.save_checkpoint(prefix, fed.Checkpoint(mc, fc, fc.total_rounds, seed, final))
        loaded = fed.load_checkpoint(prefix)
        state.update(clients=clients, params0=params0)
        return {"setup_s": t1 - t0, "train_s": t2 - t1, "final": final, "trace": trace,
                "prefix": prefix, "loaded": loaded.params.tobytes(),
                "trace_repr": repr(trace), "params_bytes": final.tobytes(),
                "checkpoint_bytes": Path(f"{prefix}.params").read_bytes()
                + Path(f"{prefix}.json").read_bytes()}

    passes = run.repeat(one_pass)
    clients, params0 = state["clients"], state["params0"]
    sizes = [c.num_samples for c in clients]
    out.attempted = len(passes) * spec.rounds
    out.info.update(spec=asdict(spec), client_sizes=sizes,
                    setup_seconds=[r.data["setup_s"] for r in passes],
                    train_seconds=[r.data["train_s"] for r in passes])
    last = passes[-1].data
    final, trace = last["final"], last["trace"]
    losses = [row[1] for row in trace]

    out.check("trace_identical", _same_bytes(passes, "trace_repr"))
    out.check("params_identical", _same_bytes(passes, "params_bytes"))
    out.check("checkpoint_identical", _same_bytes(passes, "checkpoint_bytes"))
    out.check("checkpoint_roundtrip",
              (last["loaded"] == last["params_bytes"], "load_checkpoint returns saved params"))
    out.check("checkpoint_crc", oracles.check_checkpoint(last["prefix"], final))
    out.check("positional_table", oracles.check_positional_table(
        clients[0].batch, NUM_PATCHES, spec.embed_dim))
    out.check("initial_loss", oracles.check_loss(
        params0, PATCH_DIM, spec.embed_dim, clients, losses[0], "initial"))
    out.check("final_loss", oracles.check_loss(
        final, PATCH_DIM, spec.embed_dim, clients, losses[-1], "final"))
    _, grad = model.batch_loss_and_grad(final, mc, clients[0].batch)
    coords = oracles.gradient_coords(PATCH_DIM, spec.embed_dim, seed)
    out.check("gradient", oracles.check_gradient(
        grad, final, PATCH_DIM, spec.embed_dim, clients[0].batch, coords))
    out.check("post_warmup_no_rise", oracles.check_no_rise(losses, spec.warmup))
    if spec.local_steps == 1:
        t = spec.warmup
        one = fed.FederationConfig(spec.clients, t + 1, 1, opt, seed)
        stepped, row = fed.run_pretraining(one, mc, clients, final, start_round=t)
        grads = [model.batch_loss_and_grad(final, mc, c.batch)[1] for c in clients]
        out.check("fedsgd_round", oracles.check_fedsgd_round(
            final, grads, sizes, row[-1][2], stepped))

    work = spec.rounds * sum(sizes) * spec.local_steps
    med = statistics.median
    run.finish(passes, {
        "setup_s": (med(r.data["setup_s"] for r in passes), "s"),
        "wall_s": (med(r.seconds for r in passes), "s"),
        "sample_steps_per_s": (med(work / r.data["train_s"] for r in passes), "1/s"),
        "loss_ratio": (losses[-1] / losses[0], "ratio"),
    })
    return out


class CommandFailed(Exception):
    pass


def cli_chain(run: Run) -> Outcome:
    out = run.out
    config_path = run.workdir / "config.json"
    config_path.write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
    common = ["--config", str(config_path), "--seed", str(run.seed), "--threads", "1"]

    def one_pass(i: int) -> dict:
        base = run.workdir / f"pass{i}"
        data, pre, ft, ev = base / "data", base / "run", base / "ft", base / "eval"
        base.mkdir()
        times = {"generate": 0.0, "pretrain": 0.0, "finetune": 0.0, "eval": 0.0}

        def call(stage: str, argv: list[str]) -> None:
            out.attempted += 1
            t0 = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times[stage] += time.perf_counter() - t0
            if code != 0:
                out.failed += 1
                raise CommandFailed(f"fedmim {' '.join(argv)} exited {code}")

        call("generate", common + ["--out", str(data), "generate"])
        call("pretrain", common + ["--out", str(pre), "pretrain"])
        call("finetune", common + ["--out", str(ft), "finetune",
                                   str(pre / "checkpoint"), str(data)])
        ev.mkdir()
        labels = json.loads((data / "labels.json").read_text(encoding="utf-8"))
        masks = []
        for rec in labels["samples"]:
            if rec["mode"] != "linear":
                continue
            k = rec["index"]
            truth, cvx = data / f"mask_{k:04d}.pgm", ev / f"cvx_{k:04d}.pgm"
            back, report = ev / f"back_{k:04d}.pgm", ev / f"eval_{k:04d}.json"
            call("eval", ["transform", "linear-to-convex", str(truth), str(cvx)])
            call("eval", ["transform", "convex-to-linear", str(cvx), str(back)])
            call("eval", ["eval", str(back), str(truth), "--report", str(report)])
            masks.append((truth, back, report))
        files = [pre / "loss_trace.csv", pre / "checkpoint.json", pre / "checkpoint.params",
                 ft / "scores.csv", ft / "finetune_report.json"]
        files += [report for _, _, report in masks]
        return {"times": times, "dirs": (data, pre, ft), "masks": masks,
                "bytes": [p.read_bytes() for p in files]}

    try:
        passes = run.repeat(one_pass)
    except CommandFailed as exc:
        out.check("chain_completed", (False, str(exc)))
        return out
    data, pre, ft = passes[-1].data["dirs"]
    trace_rows = (pre / "loss_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in trace_rows]

    out.check("outputs_identical", _same_bytes(passes, "bytes"))
    out.check("checkpoint_crc", oracles.check_checkpoint(pre / "checkpoint"))
    out.check("finetune_report", oracles.check_finetune(
        ft / "scores.csv", ft / "finetune_report.json"))
    masks = passes[-1].data["masks"]
    bad = []
    for truth, back, report in masks:
        ok, detail = oracles.check_eval(
            json.loads(report.read_text(encoding="utf-8")), back, truth)
        if not ok:
            bad.append(f"{report.name}: {detail}")
    out.check("eval_reports", (not bad and bool(masks),
                               "; ".join(bad) or f"{len(masks)} reports match"))

    # Rebuild the clients the pretrain command trained on, to check its
    # trace against the oracle loss at the saved parameters.
    cfg = cli.load_config(str(config_path))
    cfg["seed"] = run.seed
    mc = cli._model_config(cfg)
    clients = pipeline.build_clients(
        cli._generate(cfg), cfg["federation"]["num_clients"], cfg["federation"]["alpha"],
        mc, cli._corruption(cfg), cli._patch_spec(cfg), run.seed)
    params = np.frombuffer((pre / "checkpoint.params").read_bytes(), dtype="<f8")
    out.check("final_loss", oracles.check_loss(
        params, mc.patch_dim, mc.embed_dim, clients, losses[-1], "final"))

    f = cfg["federation"]
    work = f["total_rounds"] * cfg["synth"]["n"] * f["local_steps"]
    med = statistics.median
    out.info.update(config=CLI_CONFIG, masks_evaluated=len(masks),
                    stage_seconds=[r.data["times"] for r in passes])
    run.finish(passes, {
        "setup_s": (med(r.data["times"]["generate"] for r in passes), "s"),
        "wall_s": (med(r.seconds for r in passes), "s"),
        "sample_steps_per_s": (med(work / r.data["times"]["pretrain"] for r in passes), "1/s"),
        "loss_ratio": (losses[-1] / losses[0], "ratio"),
    })
    return out


WORKLOADS = {
    "c4-short": partial(train_workload, C4_SHORT),
    "many-clients": partial(train_workload, MANY_CLIENTS),
    "cli-chain": cli_chain,
}
