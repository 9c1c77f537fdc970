"""The import path: `import smearlab` leaves scipy.integrate (and the
scipy.optimize it loads) to the two quadrature oracles, which import it on
first use, and no module imports scipy.linalg, so that every dense
decomposition runs on numpy's LAPACK and BLAS thread pool; every name that a
module lists in `__all__` exists."""

import ast
import importlib
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


def test_dense_decompositions_use_numpys_lapack_only():
    # scipy.linalg links its own OpenBLAS, whose thread pool would compete
    # with numpy's; only scipy.sparse.linalg (ARPACK) may load it
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
            assert not any(n == "scipy.linalg" or n.startswith("scipy.linalg.")
                           for n in names), f"{path.name}:{node.lineno}"
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
