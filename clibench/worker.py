"""Long-lived benchmark worker: runs `defectchain` argv through `cli.main`
in one warm process.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout.  The CLI's own stdout and stderr are captured per command, so the
reply channel carries nothing else.

  {"op": "info"}                     versions and the BLAS thread count
  {"op": "lazy"}                     first amplitude-layer call minus its
                                     warm median (run first, in a fresh process)
  {"op": "pass", "argv": [[...]], "trace": false, "reference": false}
                                     run every argv once; per-command seconds,
                                     exit code and output, the pass total, with
                                     "trace" the tracer's summary, and with
                                     "reference" the mean of the host-speed
                                     reference timed just before and after
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import platform
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer


def blas_info() -> dict:
    """OpenBLAS version and thread count in effect, read from the library
    numpy loaded (None where this build does not expose them)."""
    import numpy as np

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["openblas"] = deps["blas"].get("version")
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def lazy_setup_s() -> float:
    """The first public amplitude-layer call in this process minus the
    median of the same call repeated: the one-off node build it pays."""
    from defectchain.lax_defect import RegimeParams
    from defectchain.transmission_amplitudes import amplitude

    params = RegimeParams.xxx()
    times = []
    for _ in range(6):
        t0 = perf_counter()
        amplitude(params, "+", 0.5, "integral")
        times.append(perf_counter() - t0)
    return times[0] - statistics.median(times[1:])


_REFERENCE_MATRIX = None


def dense_reference() -> float:
    """Seconds for a fixed kernel that uses no package code: two dense
    complex 128x128 products and eigenvalue solves.  Timed next to each warm
    pass, it shows how fast the host ran the pass."""
    global _REFERENCE_MATRIX
    import numpy as np

    if _REFERENCE_MATRIX is None:
        rng = np.random.default_rng(0)
        _REFERENCE_MATRIX = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    m = _REFERENCE_MATRIX
    t0 = perf_counter()
    for _ in range(2):
        np.linalg.eigvals(m @ m)
    return perf_counter() - t0


def run_pass(cli, argvs, tracer: Tracer | None, reference: bool = False) -> dict:
    results = []
    ref_before = dense_reference() if reference else None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t_pass = perf_counter()
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception:  # a traceback is a failed command, not a dead worker
                code = None
                err.write(traceback.format_exc())
            results.append({"seconds": perf_counter() - t0, "code": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
        total = perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    reply = {"seconds": total, "commands": results}
    if reference:
        reply["reference_s"] = 0.5 * (ref_before + dense_reference())
    if tracer is not None:
        reply["trace"] = tracer.snapshot()
    return reply


def main() -> int:
    channel = sys.stdout
    from defectchain import cli

    tracer = Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "info":
            reply = {"python": platform.python_version(), **blas_info()}
        elif req["op"] == "lazy":
            reply = {"lazy_setup_s": lazy_setup_s()}
        elif req["op"] == "pass":
            reply = run_pass(cli, req["argv"], tracer if req.get("trace") else None,
                             req.get("reference", False))
        else:
            reply = {"error": f"unknown op {req['op']!r}"}
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
