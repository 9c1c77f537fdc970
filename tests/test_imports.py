"""The import path: `import smearlab` leaves scipy.integrate (and the
scipy.optimize it loads) to the two quadrature oracles, which import it on
first use, and no module imports a scipy module that loads scipy's own
OpenBLAS, so that a run maps one BLAS, numpy's, with one thread pool; every
name that a module lists in `__all__` exists."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import smearlab
from smearlab import algebra, qhe, spectra

SRC = str(Path(smearlab.__file__).resolve().parent.parent)


def fresh_python(code):
    """Run `code` in a new interpreter with smearlab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_integrate_to_the_quadrature_oracle():
    out = fresh_python(
        "import sys\n"
        "import numpy as np\n"
        "import smearlab, smearlab.cli\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        "from smearlab.algebra import random_hermitian\n"
        "from smearlab.filtering import almost_inverse_liouvillian, almost_inverse_quadrature\n"
        "from smearlab.spectra import diagonalize\n"
        "rng = np.random.default_rng(4)\n"
        "H = random_hermitian(4, rng, norm=1.0)\n"
        "sd = diagonalize(H)\n"
        "A = random_hermitian(4, rng, norm=1.0)\n"
        "ref = almost_inverse_liouvillian(sd, 0.7, A)\n"
        "quad = almost_inverse_quadrature(H, 0.7, A)\n"
        "print(float(np.abs(ref - quad).max()))\n"
    )
    loaded, deviation = out.strip().split("\n")
    assert loaded == "[]"
    assert float(deviation) <= 1e-6


# each loads scipy's own OpenBLAS, whose thread pool would compete with numpy's
_SCIPY_WITH_BLAS = ("scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.sparse.csgraph")

_CHAIN4_RAMP = {"graph": {"kind": "chain", "n": 4},
                "model": {"kind": "tfim", "j": 1.0,
                          "g": {"kind": "trig_ramp", "start": 2.0, "stop": 3.0}}}
_CHAIN6 = {"graph": {"kind": "chain", "n": 6}, "model": {"kind": "tfim", "j": 1.0, "g": 2.0}}
_BOTTOM = {"rule": "lowest_k", "k": 1}
# one small run of every experiment kind but liouvillian, whose quadrature
# oracle imports scipy.integrate on first use
_SMALL_RUNS = {
    "lr": {**_CHAIN6, "site_a": 0, "site_b": 3, "times": {"start": 0.0, "stop": 1.0, "num": 5}},
    "locality": {**_CHAIN6, "site_a": 0, "distances": [2, 3], "betas": [0.5]},
    "flow": {**_CHAIN4_RAMP, "split": _BOTTOM, "betas": [0.9, 0.7],
             "observable": {"site": 1, "op": "x"}, "s_steps": 100, "exact_control": False},
    "lppl": {**_CHAIN6, "split": _BOTTOM, "perturbation": {"site": 0, "strength": 0.3},
             "distances": [1, 2, 3]},
    "cluster": {**_CHAIN6, "split": _BOTTOM, "site_a": 0, "distances": [1, 2, 3]},
    "qhe": {"L": 3, "J": [0.2]},
}


def test_every_run_maps_one_openblas(tmp_path):
    out = fresh_python(
        "import json, sys\n"
        "import smearlab, smearlab.cli\n"
        "from smearlab.config import validate_config\n"
        "from smearlab.harness import run\n"
        f"for kind, params in json.loads({json.dumps(json.dumps(_SMALL_RUNS))}).items():\n"
        f"    run(validate_config({{'experiment': kind, **params}}), out_dir={str(tmp_path)!r} + '/' + kind)\n"
        f"print([m for m in {_SCIPY_WITH_BLAS!r} if m in sys.modules])\n"
        "print(json.dumps(sorted({line.split()[-1] for line in open('/proc/self/maps')\n"
        "                         if 'openblas' in line.lower()})))\n"
    )
    loaded, blas = out.strip().split("\n")
    assert loaded == "[]"
    assert len(json.loads(blas)) == 1, blas


def test_dense_decompositions_use_numpys_lapack_only():
    package = Path(smearlab.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(n == m or n.startswith(m + ".") for n in names
                           for m in _SCIPY_WITH_BLAS), f"{path.name}:{node.lineno}"
    assert qhe.svd is algebra.svd
    assert spectra.svdvals is algebra.svdvals


def test_every_name_in_each_modules_all_exists():
    package = Path(smearlab.__file__).resolve().parent
    listed = 0
    for path in sorted(package.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"smearlab.{path.stem}")
        names = getattr(module, "__all__", [])
        assert [n for n in names if not hasattr(module, n)] == [], path.name
        listed += bool(names)
    assert listed > 10
