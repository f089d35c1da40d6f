"""The benchmark's tracer finds every function it times and can size every
kind of prepared batch, and its self-check passes, so a rename in the
package fails here rather than in a benchmark run."""

import importlib
import json
import shutil
import types
from pathlib import Path

import numpy as np
import pytest

from fedmim import model
from fedmim.model import ModelConfig, prepare_batch, stack_batches
from fedmim.rng import Rng

from conftest import random_sample, stack_samples
from invariance import snippet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Compiled from source rather than imported, so no bytecode is written
    # next to it.
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    # A traced segment looks up every layer's module among those loaded.
    for mod_name, _ in module.LAYERS:
        importlib.import_module(f"fedmim.{mod_name}")
    return module


def test_every_traced_layer_resolves(tracer):
    missing = []
    for mod_name, func in tracer.LAYERS:
        module = importlib.import_module(f"fedmim.{mod_name}")
        if not callable(getattr(module, func, None)):
            missing.append(f"fedmim.{mod_name}.{func}")
    assert not missing, f"perfbench/tracer.py times missing functions: {missing}"


def test_prepared_bytes_sizes_single_and_stacked_batches(tracer):
    cfg = ModelConfig(patch_dim=4, embed_dim=3, num_patches=4, seed=0)
    samples = [random_sample(cfg, Rng(i)) for i in range(3)]
    batch = prepare_batch(cfg, *stack_samples(samples))
    dense = (batch.visible, batch.targets, batch.q_visible, batch.q_masked, batch.pe)
    assert tracer._prepared_bytes(batch) == sum(a.nbytes for a in dense)
    stacked = stack_batches([prepare_batch(cfg, *stack_samples(samples[:2])),
                             prepare_batch(cfg, *stack_samples(samples[2:]))])
    assert tracer._prepared_bytes(stacked) == stacked.visible.nbytes + stacked.q_visible.nbytes
    assert stacked.visible.nbytes == batch.visible.nbytes == 3 * 2 * 4 * np.float64().nbytes


def test_traced_segment_counts_a_prepared_batch(tracer):
    cfg = ModelConfig(patch_dim=4, embed_dim=3, num_patches=4, seed=0)
    samples = [random_sample(cfg, Rng(i)) for i in range(2)]
    run = tracer.Tracer()
    with run.segment():
        batch = model.prepare_batch(cfg, *stack_samples(samples))
    assert model.prepare_batch is prepare_batch  # the original is put back
    spans, counts = run.summary()
    assert spans["model.prepare_batch"].calls == 1
    assert counts["model.prepared_batch_bytes"] == tracer._prepared_bytes(batch)


def test_benchmark_selfcheck_passes():
    # Run as the script runs, perfbench/ first on the path so that its own
    # oracles module is imported, and writing no bytecode there.
    out = snippet(f"import runpy, sys; sys.dont_write_bytecode = True; "
                  f"sys.path.insert(0, {str(PERFBENCH)!r}); "
                  f"runpy.run_path({str(PERFBENCH / 'selfcheck.py')!r}, run_name='__main__')")
    assert out["baseline"].splitlines()[-1] == "selfcheck ok"


@pytest.mark.parametrize("workload", ["many-clients", "cli-chain"])
def test_benchmark_workload_runs_correct(workload, tmp_path):
    # One untimed pass of the workload, traced, so a change to a signature
    # it calls fails here. It runs from a copy of perfbench/ beside a link
    # to src/, so its results file goes to tmp_path.
    bench = tmp_path / "perfbench"
    shutil.copytree(PERFBENCH, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(PERFBENCH.parent / "src")
    out = snippet(f"import runpy, sys; sys.dont_write_bytecode = True; "
                  f"sys.path.insert(0, {str(bench)!r}); "
                  f"sys.argv = ['run.py', '--workload', {workload!r}, '--seconds', '0', "
                  f"'--trace', '1', '--seed', '3']; "
                  f"runpy.run_path({str(bench / 'run.py')!r}, run_name='__main__')")
    result = json.loads(out["baseline"].splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
