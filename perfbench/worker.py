"""One experiment run in a fresh process, as `smearlab run <config>` does.

    python3 worker.py CONFIG OUT RESULT T0 [--trace ID] [--setup-only]

T0 is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, `import smearlab` (numpy
and scipy included) and `load_config`.  Then `smearlab.harness.run`
writes `curve.csv` and `summary.json` into OUT, and the timings go to the
JSON file RESULT.  With `--trace`, spans are recorded around smearlab's
layers (see spans.py) and written to OUT/trace.json after the run.

smearlab is imported from the `src/` directory on PYTHONPATH; errors of
the run propagate, so the exit code is nonzero when it fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import time


def openblas_threads():
    """{library file: (thread count, config string)} of each loaded OpenBLAS."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("openblas_", "scipy_openblas_"):
                try:
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                found[os.path.basename(path)] = (get_threads(), get_config().decode())
    return found


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("result")
    parser.add_argument("t0", type=float)
    parser.add_argument("--trace", default=None, metavar="ID")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import smearlab
    from smearlab import config as smearlab_config
    from smearlab import harness

    tracer = None
    if args.trace is not None:
        from spans import Tracer

        tracer = Tracer(args.trace)
        tracer.install()
    cfg = smearlab_config.load_config(args.config)
    result = {"setup_s": time.monotonic() - args.t0,
              "smearlab": os.path.dirname(smearlab.__file__)}
    if not args.setup_only:
        start = time.perf_counter()
        harness.run(cfg, out_dir=args.out)
        result["run_s"] = time.perf_counter() - start
        result["openblas"] = openblas_threads()
        if tracer is not None:
            result["layers"] = tracer.layers()
            tracer.write(os.path.join(args.out, "trace.json"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
