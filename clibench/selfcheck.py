#!/usr/bin/env python3
"""Self-check of the benchmark, run from the repository root:

    python3 clibench/selfcheck.py

It runs every workload once at reduced size (--smoke), with tracing off and
then on, and asserts that
  * the metric names, units and finite values match BENCHMARK.json;
  * every command's output was correct;
  * in the traced run, the module self times plus trace.unattributed_s
    equal trace.warm_s, with no negative part, trace.unattributed_s is a
    small share of trace.warm_s, and the layer each workload exists for
    reads above zero (so the wrappers were reached through the rebound
    names);
and that a run in a directory holding only BENCHMARK.json and the
benchmark's own files fails without printing a result.  Exits 1 on the
first set of failures, listing them.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Largest share of trace.warm_s that may fall outside every wrapped function.
UNATTRIBUTED_SHARE = 0.05
# Work counts that must be non-zero in each workload's traced run.
OWN_LAYER = {
    "verify-suite": ["monodromy.bae_residual.calls"],
    "amplitude-tables": ["special_functions.amplitude_integral.calls"],
    "chain-spectrum": ["monodromy.transfer_matrix.calls", "tensor_core.matmul_flops"],
}


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: outputs not correct: {done.stdout.splitlines()[-2][:2000]}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    errors += [f"{where}: {k} = {v}" for k, v in values.items()
               if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if trace and not errors:
        parts = {k: v for k, v in values.items() if k.endswith(".self_s")}
        parts["trace.unattributed_s"] = values["trace.unattributed_s"]
        negative = [k for k, v in parts.items() if v < 0]
        if negative:
            errors.append(f"{where}: negative parts {negative}")
        gap = sum(parts.values()) - values["trace.warm_s"]
        if abs(gap) > 1e-9:
            errors.append(f"{where}: self times + unattributed miss trace.warm_s by {gap}")
        share = values["trace.unattributed_s"] / values["trace.warm_s"]
        if not share <= UNATTRIBUTED_SHARE:
            errors.append(f"{where}: trace.unattributed_s is {share:.3f} of trace.warm_s")
        errors += [f"{where}: {k} reads {values[k]}" for k in OWN_LAYER[workload]
                   if not values[k] > 0]
    return errors


def check_without_sources() -> list[str]:
    scratch = ROOT / ".clibench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, SPEC["workloads"][0]["name"], 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if done.returncode == 0:
        return ["run without the package sources exited 0"]
    if '"correct"' in done.stdout:
        return ["run without the package sources printed a result"]
    return []


def main() -> int:
    errors = check_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_result(w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not errors else 'FAILED'}", flush=True)
    for e in errors:
        print(e)
    print("selfcheck", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
