"""The import path: `import smearlab` leaves scipy.integrate (and the
scipy.optimize it loads) to the two quadrature oracles, which import it on
first use, also when that first use happens in worker threads."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import smearlab
from smearlab import harness
from smearlab.config import validate_config

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
        "from smearlab.filtering import almost_inverse_liouvillian\n"
        "from smearlab.spectra import diagonalize\n"
        "rng = np.random.default_rng(4)\n"
        "sd = diagonalize(random_hermitian(4, rng, norm=1.0))\n"
        "A = random_hermitian(4, rng, norm=1.0)\n"
        "ref = almost_inverse_liouvillian(sd, 0.7, A)\n"
        "quad = almost_inverse_liouvillian(sd, 0.7, A, method='quadrature')\n"
        "print(float(np.abs(ref - quad).max()))\n"
    )
    loaded, deviation = out.strip().split("\n")
    assert loaded == "[]"
    assert float(deviation) <= 1e-6


def test_first_quadrature_import_in_worker_threads_keeps_output_bytes(tmp_path):
    payload = {"experiment": "liouvillian", "n_qubits": 2, "n_samples": 2,
               "betas": [0.5, 1.0], "seed": 11}
    harness.run(validate_config(payload), out_dir=str(tmp_path / "serial"))
    cfg = tmp_path / "threaded.json"
    cfg.write_text(json.dumps({**payload, "threads": 2}), encoding="utf-8")
    out = fresh_python(
        "import sys\n"
        "from smearlab import harness\n"
        "before = 'scipy.integrate' in sys.modules\n"
        f"harness.run({str(cfg)!r}, out_dir={str(tmp_path / 'threaded')!r})\n"
        "print(before, 'scipy.integrate' in sys.modules)\n"
    )
    assert out.strip() == "False True"
    for name in ("curve.csv", "summary.json"):
        assert filecmp.cmp(os.path.join(tmp_path, "serial", name),
                           os.path.join(tmp_path, "threaded", name), shallow=False)
