#!/usr/bin/env python3
"""Benchmark of the `defectchain` command line, run from the repository root:

    python3 clibench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Each command of the workload's seeded argv list runs two ways: as a fresh
`python -m defectchain` process (cold) and through `cli.main` in one
long-lived worker (warm).  Every output is checked.  Timed units are short
and interleaved across the run (each round runs every cold command once, in
rotated order, with set-up samples and warm passes spread between them),
and every timing is a median, so a burst of host load moves a minority of
samples.  Each timed unit is scaled by a host-speed reference timed next to
it (see SPAWN_REFERENCE below), so a slow spell of the host that outlasts
a run does not move its figures.  Every process runs with one BLAS thread,
on one CPU.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same commands
with every public function of the package wrapped (see tracer.py) and
prints the per-layer metrics.  Earlier stdout lines carry the provenance,
the known-defect probes and per-metric sample detail; the last line is the
result object.  Exits 2 without a result when the package sources are
missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Nominal cost on a 2-core x86-64 VM at one BLAS thread: seconds for one
# cold pass over the argv list, seconds for one warm pass, and warm passes
# per round.  They turn --seconds into a fixed number of rounds, so the
# sample counts depend on --seconds only, not on how fast a run goes; only
# a host slow enough to overrun OVERRUN x --seconds cuts a run short.
PLAN = {
    "verify-suite": (3.1, 0.25, 3),
    "amplitude-tables": (4.0, 0.64, 4),
    "chain-spectrum": (2.35, 1.0, 2),
}
SETUP_SAMPLES = 2      # per round
SETUP_COST = 0.33
IMPORTTIME_SAMPLES = 7
TRACE_OVERHEAD = 1.3   # traced pass / untraced pass, for planning only
OVERRUN = 1.2

# Host-speed references.  The 2-core VM these figures come from changes
# speed by up to 1.9x over minutes, which no per-run statistic removes, so
# every timed unit is divided by a reference timed next to it and
# multiplied by the reference's nominal time: the end-to-end timings read
# in seconds at nominal host speed.  A fresh process is paired with SPAWN_REFERENCE, started right
# after it; a warm pass with worker.dense_reference, timed in the worker
# just before and after it.  Neither reference runs package code.
SPAWN_REFERENCE = [PYTHON, "-c", "import numpy"]
SPAWN_NOMINAL = 0.235
DENSE_NOMINAL = 0.046


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Spawned:
    """One finished child: wall seconds, exit code, output, max RSS (KiB)."""

    def __init__(self, cmd: list[str], env: dict, tmp: Path):
        with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.seconds = perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.maxrss_kib = usage.ru_maxrss
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()


class Worker:
    """The warm process (worker.py), driven one JSON line at a time."""

    def __init__(self, env: dict, tmp: Path):
        self._err = tempfile.TemporaryFile(dir=tmp)
        self._proc = subprocess.Popen([PYTHON, str(HERE / "worker.py")], cwd=ROOT, env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      stderr=self._err, text=True)

    def ask(self, **request) -> dict:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            self._err.seek(0)
            raise RuntimeError("benchmark worker died:\n" + self._err.read().decode())
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._err.close()


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def _steal_s() -> float | None:
    """Cumulative steal time of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Sample count, median, and the highest percentile that has at least
    ten samples beyond it (None below eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        k = n - 10
        tail = {"percentile": round(100.0 * k / n, 1), "value": ordered[k - 1]}
    return {"n": n, "median": statistics.median(ordered), "tail": tail}


class Checker:
    """Counts attempted and failed commands; keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stats: dict = {}

    def __call__(self, argv, code, text):
        self.attempted += 1
        problems = workloads.check(argv, code, text, self.stats)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{' '.join(argv)}: {'; '.join(problems[:3])}")

    def warm_pass(self, argvs, reply):
        for argv, res in zip(argvs, reply["commands"]):
            self(argv, res["code"], res["stdout"])


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


def schedule(n_cmds: int, r: int, per_round: int) -> list[tuple]:
    """Round r: each cold command once, in an order rotated by r, with the
    set-up samples and warm passes spread evenly between them."""
    units = []
    for j in range(n_cmds):
        units += [("setup",)] * ((j + 1) * SETUP_SAMPLES // n_cmds - j * SETUP_SAMPLES // n_cmds)
        units.append(("cold", (r + j) % n_cmds))
        units += [("warm",)] * ((j + 1) * per_round // n_cmds - j * per_round // n_cmds)
    return units


def run_untraced(name, cmds, seconds, smoke, env, tmp, check: Checker):
    cold_pass, warm_pass, per_round = PLAN[name]
    round_cost = (cold_pass + per_round * (warm_pass + 2 * DENSE_NOMINAL)
                  + SETUP_SAMPLES * SETUP_COST + (len(cmds) + SETUP_SAMPLES) * SPAWN_NOMINAL)
    rounds = 1 if smoke else max(3, round(seconds / round_cost))
    setup, warm, rss = [], [], 0
    cold: list[list[float]] = [[] for _ in cmds]
    raw = {"setup": [], "warm": [], "cold": [[] for _ in cmds]}
    refs = {"spawn": [], "dense": []}

    def spawned(cmd: list[str]) -> tuple[Spawned, float]:
        """Run cmd, then the spawn reference; return the run and its time
        at nominal host speed."""
        run = Spawned(cmd, env, tmp)
        ref = Spawned(SPAWN_REFERENCE, env, tmp)
        if ref.code != 0:
            raise RuntimeError(f"reference failed:\n{ref.stderr}")
        refs["spawn"].append(ref.seconds)
        return run, run.seconds * SPAWN_NOMINAL / ref.seconds

    with Worker(env, tmp) as worker:
        check.warm_pass(cmds, worker.ask(op="pass", argv=cmds, reference=True))  # warm-up
        start = perf_counter()
        for r in range(rounds):
            elapsed = perf_counter() - start
            if r and elapsed * (r + 1) / r > OVERRUN * seconds:
                rounds = r
                break
            for unit in schedule(len(cmds), r, per_round):
                if unit[0] == "setup":
                    run, nominal = spawned([PYTHON, "-c", "import defectchain.cli"])
                    if run.code != 0:
                        raise RuntimeError(f"import failed:\n{run.stderr}")
                    setup.append(nominal)
                    raw["setup"].append(run.seconds)
                elif unit[0] == "cold":
                    i = unit[1]
                    run, nominal = spawned([PYTHON, "-m", "defectchain", *cmds[i]])
                    check(cmds[i], run.code, run.stdout)
                    cold[i].append(nominal)
                    raw["cold"][i].append(run.seconds)
                    rss = max(rss, run.maxrss_kib)
                else:
                    reply = worker.ask(op="pass", argv=cmds, reference=True)
                    check.warm_pass(cmds, reply)
                    warm.append(reply["seconds"] * DENSE_NOMINAL / reply["reference_s"])
                    raw["warm"].append(reply["seconds"])
                    refs["dense"].append(reply["reference_s"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (sum(statistics.median(c) for c in cold), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    rounds_sum = [sum(c[r] for c in cold) for r in range(rounds)]
    detail = {
        "rounds": rounds,
        "setup_s": summary(setup),
        "cold_s": {"per_command_median": [statistics.median(c) for c in cold],
                   "rounds": summary(rounds_sum), "samples": cold},
        "warm_s": summary(warm),
        "wall": {"setup_s": statistics.median(raw["setup"]),
                 "cold_s": sum(statistics.median(c) for c in raw["cold"]),
                 "warm_s": statistics.median(raw["warm"])},
        "reference": {"spawn_s": summary(refs["spawn"]), "spawn_nominal_s": SPAWN_NOMINAL,
                      "dense_s": summary(refs["dense"]), "dense_nominal_s": DENSE_NOMINAL},
    }
    return metrics, detail


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def import_times(env, tmp) -> tuple[float, float]:
    """numpy's cumulative import time and the package's own (self) import
    time, from `-X importtime` of a fresh interpreter."""
    run = Spawned([PYTHON, "-X", "importtime", "-c", "import defectchain.cli"], env, tmp)
    if run.code != 0:
        raise RuntimeError(f"import failed:\n{run.stderr}")
    numpy_us, package_us = None, 0
    for line in run.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, module = line[len("import time:"):].split("|")
        module = module.strip()
        if module == "numpy" and numpy_us is None:
            numpy_us = int(cum_us)
        elif module == "defectchain" or module.startswith("defectchain."):
            package_us += int(self_us)
    if numpy_us is None:
        raise RuntimeError("numpy missing from the import-time report")
    return numpy_us * 1e-6, package_us * 1e-6


def layer_metrics(snap: dict, traced_s: float, untraced_s: float, lazy_s: float,
                  numpy_s: float, package_s: float) -> dict:
    own, inc, calls, counts = (snap["self_s"], snap["inclusive_s"], snap["calls"],
                               snap["counts"])

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    m = {
        "setup.numpy_import_s": (numpy_s, "s"),
        "setup.package_import_s": (package_s, "s"),
        "special_functions.lazy_setup_s": (lazy_s, "s"),
        "special_functions.amplitude_integral.calls": (
            calls.get("special_functions.amplitude_integral", 0), "count"),
        "special_functions.amplitude_integral.per_call_s": (
            per(inc.get("special_functions.amplitude_integral", 0.0),
                calls.get("special_functions.amplitude_integral", 0)), "s"),
        "special_functions.log_gamma.points": (counts.get("log_gamma.points", 0), "count"),
        "special_functions.q_gamma.calls": (calls.get("special_functions.q_gamma", 0), "count"),
        "transmission_amplitudes.per_point_s": (
            per(snap["amplitude_s"], snap["amplitude_calls"]), "s"),
        "transmission_amplitudes.soliton_s_amplitude_s": (
            inc.get("transmission_amplitudes.soliton_s_amplitude", 0.0), "s"),
        "lax_defect.make_s_matrix_s": (inc.get("lax_defect.make_s_matrix", 0.0), "s"),
        "monodromy.rtt_residual_s": (inc.get("monodromy.rtt_residual", 0.0), "s"),
        "monodromy.bae_residual.calls": (calls.get("monodromy.bae_residual", 0), "count"),
        "monodromy.build_monodromy_s": (
            per(inc.get("monodromy.build_monodromy", 0.0),
                calls.get("monodromy.build_monodromy", 0)), "s"),
        "monodromy.transfer_matrix.calls": (calls.get("monodromy.transfer_matrix", 0), "count"),
        "monodromy.charge_vector_s": (inc.get("monodromy.charge_vector", 0.0), "s"),
        "monodromy.sector_fraction": (snap["sector_fraction"], "ratio"),
        "tensor_core.embed_two_site.calls": (calls.get("tensor_core.embed_two_site", 0), "count"),
        "tensor_core.matmul_flops": (counts.get("matmul_flops", 0), "flop"),
        "tensor_core.bytes_allocated": (counts.get("bytes_allocated", 0), "B"),
        "trace.warm_s": (traced_s, "s"),
        "trace.unattributed_s": (traced_s - sum(own.values()), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for route in ("closed", "integral", "sum"):
        m[f"transmission_amplitudes.amplitude_calls.{route}"] = (
            counts.get(f"route.{route}", 0), "count")
    for module, seconds in own.items():
        m[f"{module}.self_s"] = (seconds, "s")
    return m


def run_traced(name, cmds, seconds, smoke, env, tmp, check: Checker):
    _, warm_pass, _ = PLAN[name]
    samples = 1 if smoke else IMPORTTIME_SAMPLES
    imports = [import_times(env, tmp) for _ in range(samples)]
    pairs = 1 if smoke else max(3, round(
        (seconds - samples * SETUP_COST) / (warm_pass * (1 + TRACE_OVERHEAD))))
    pairs += 1 - pairs % 2   # odd, so the median pass is one pass
    untraced, traced = [], []
    with Worker(env, tmp) as worker:
        lazy = worker.ask(op="lazy")["lazy_setup_s"]
        check.warm_pass(cmds, worker.ask(op="pass", argv=cmds))               # warm-up
        check.warm_pass(cmds, worker.ask(op="pass", argv=cmds, trace=True))   # warm-up
        deadline = perf_counter() + OVERRUN * seconds
        for i in range(pairs):
            if i and perf_counter() > deadline:
                break
            reply = worker.ask(op="pass", argv=cmds)
            check.warm_pass(cmds, reply)
            untraced.append(reply["seconds"])
            reply = worker.ask(op="pass", argv=cmds, trace=True)
            check.warm_pass(cmds, reply)
            traced.append((reply["seconds"], reply["trace"]))
    traced.sort(key=lambda item: item[0])
    traced_s, snap = traced[len(traced) // 2]
    metrics = layer_metrics(snap, traced_s, statistics.median(untraced), lazy,
                            statistics.median(n for n, _ in imports),
                            statistics.median(p for _, p in imports))
    detail = {"pairs": len(traced), "untraced_warm_s": summary(untraced),
              "traced_warm_s": summary([s for s, _ in traced]),
              "calls": snap["calls"]}
    return metrics, detail


# --------------------------------------------------------------------------
# probes and main
# --------------------------------------------------------------------------


def run_probes(env, tmp) -> list[dict]:
    out = []
    for argv in workloads.PROBES:
        run = Spawned([PYTHON, "-m", "defectchain", *argv], env, tmp)
        failing = None
        if argv[0] == "verify" and run.stdout:
            failing = workloads.verify_failures(run.stdout)
        out.append({"argv": " ".join(argv), "exit_code": run.code,
                    "traceback": "Traceback (most recent call last)" in run.stderr,
                    "failing_records": failing})
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced grids and chains, one round (used by selfcheck.py)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "defectchain" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that a unit and the
    # reference timed next to it run on the same (virtual) core.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    env = child_env()
    scratch = ROOT / ".clibench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    load0, steal0 = os.getloadavg(), _steal_s()
    try:
        # fill the bytecode cache before anything is timed
        Spawned([PYTHON, "-c", "import defectchain.cli"], env, tmp)
        with Worker(env, tmp) as worker:
            info = worker.ask(op="info")
        cmds = workloads.build(args.workload, args.seed, smoke=args.smoke)
        check = Checker()
        run = run_traced if args.trace else run_untraced
        metrics, detail = run(args.workload, cmds, args.seconds, args.smoke, env, tmp, check)
        probes = run_probes(env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    load1, steal1 = os.getloadavg(), _steal_s()
    provenance = {
        "git_sha": _git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "python": info["python"], "numpy": info["numpy"], "openblas": info["openblas"],
        "blas_threads": info["blas_threads"], "blas_env": ONE_THREAD,
        "nproc": len(cpus), "pinned_cpu": cpus[-1], "src_lines": _src_lines(),
        "loadavg_start": load0, "loadavg_end": load1,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "argv": [" ".join(c) for c in cmds],
    }
    detail["checks"] = check.stats
    detail["problems"] = check.problems
    for line in ({"provenance": provenance}, {"probes": probes}, {"detail": detail}):
        print(json.dumps(line))
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(json.dumps({
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
