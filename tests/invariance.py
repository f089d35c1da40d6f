"""Fresh-process invariance checks. Each is a metamorphic relation (Chen,
Cheung and Yiu 1998): a run under a named perturbation writes the bytes
of the baseline run, which has 1 OpenBLAS thread and numpy's full SIMD
dispatch. blas2 runs 2 OpenBLAS threads; no_x86_v4 and no_x86_v3 turn off
numpy's dispatch targets from X86_V4 or X86_V3 on; resume<k> cuts each
pretrain run after round k and resumes it. The child's PYTHONPATH is the
checkout's src and tests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = Path(__file__).resolve().parent

# Perturbation -> (OpenBLAS threads, first dispatch target turned off).
_SETTINGS = {"baseline": (1, None), "blas2": (2, None),
             "no_x86_v4": (1, "X86_V4"), "no_x86_v3": (1, "X86_V3")}

_CLI_RUNNER = """import json, sys
from fedmim.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"fedmim {' '.join(argv)} failed")"""


class Case(NamedTuple):
    """fedmim.cli.main on each argv in turn, in a new directory that holds
    only what they write. An argv item that names one of configs (file name
    -> JSON object) stands for that config's path."""

    argvs: tuple[tuple[str, ...], ...]
    configs: dict[str, dict] = {}


def _environment(perturbation: str) -> dict[str, str]:
    """The child environment; skips when the CPU has no target to turn off."""
    blas, off = _SETTINGS["baseline" if perturbation.startswith("resume") else perturbation]
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
               OPENBLAS_NUM_THREADS=str(blas))
    if off is not None:
        if off not in __cpu_dispatch__ or not __cpu_features__.get(off):
            pytest.skip(f"numpy dispatches no {off} kernels on this CPU")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(__cpu_dispatch__[__cpu_dispatch__.index(off):])
    return env


def snippet(code: str, perturbations=("baseline",)) -> dict[str, str]:
    """The stdout of code in a fresh process per perturbation, side by side."""
    procs = {p: subprocess.Popen([sys.executable, "-c", code], env=_environment(p),
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for p in perturbations}
    outputs = {}
    for p, proc in procs.items():
        outputs[p], err = proc.communicate(timeout=600)
        assert proc.returncode == 0, f"{p}: exit {proc.returncode}\n{err}"
    return outputs


def _resumed(case: Case, k: int) -> Case:
    """case with each pretrain run, which must name a config, cut after
    round k and resumed from its checkpoint."""
    argvs, configs = [], dict(case.configs)
    for i, argv in enumerate(case.argvs):
        if argv[-1] != "pretrain":
            argvs.append(argv)
            continue
        at = argv.index("--config") + 1
        cfg, out = configs[argv[at]], argv[argv.index("--out") + 1]
        configs[f"head{i}.json"] = dict(
            cfg, federation=dict(cfg.get("federation", {}), total_rounds=k))
        configs[f"tail{i}.json"] = dict(cfg, resume_from=f"{out}/checkpoint")
        argvs += [(*argv[:at], f"{part}{i}.json", *argv[at + 1:]) for part in ("head", "tail")]
    return Case(tuple(argvs), configs)


def digest(root: Path, spec: str | tuple[str, ...]) -> str:
    """sha256 of the file spec under root; for a tuple, sha256 over
    name\\0bytes of each file in turn, a directory giving its files in name
    order."""
    if isinstance(spec, str):
        return hashlib.sha256((root / spec).read_bytes()).hexdigest()
    h = hashlib.sha256()
    for path in (root / name for name in spec):
        for f in sorted(path.iterdir()) if path.is_dir() else [path]:
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _outputs(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


class Harness:
    """Runs each case once per perturbation in a test run, and checks it."""

    def __init__(self, tmp_path_factory):
        self._tmp, self._runs = tmp_path_factory, {}

    def run(self, case: Case, perturbation: str) -> Path:
        """The directory of case's run under perturbation; do not modify it."""
        key = (repr(case), perturbation)
        if key not in self._runs:
            env = _environment(perturbation)
            if perturbation.startswith("resume"):
                case = _resumed(case, int(perturbation.removeprefix("resume")))
            root, configs = self._tmp.mktemp(perturbation), self._tmp.mktemp("configs")
            for name, cfg in case.configs.items():
                (configs / name).write_text(json.dumps(cfg))
            argvs = [[str(configs / a) if a in case.configs else a for a in argv]
                     for argv in case.argvs]
            proc = subprocess.run([sys.executable, "-c", _CLI_RUNNER, json.dumps(argvs)],
                                  cwd=root, env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, f"{perturbation}: exit {proc.returncode}\n{proc.stderr}"
            self._runs[key] = root
        return self._runs[key]

    def check(self, case: Case, perturbation: str, golden: dict | None = None) -> None:
        """Assert that the baseline run matches golden (spec -> sha256, see
        digest) and that the run under perturbation writes the baseline's
        bytes to every output file."""
        base, golden = self.run(case, "baseline"), golden or {}
        assert {spec: digest(base, spec) for spec in golden} == golden
        if perturbation != "baseline":
            other = self.run(case, perturbation)
            assert _outputs(other) == _outputs(base), perturbation
            differ = [p for p in _outputs(base)
                      if (base / p).read_bytes() != (other / p).read_bytes()]
            assert differ == [], f"{perturbation} changed the bytes of {differ}"


@pytest.fixture(scope="session")
def invariance(tmp_path_factory) -> Harness:
    """Fresh-process runs of invariance cases, each made once per test run."""
    return Harness(tmp_path_factory)
