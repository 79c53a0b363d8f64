#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady each
end-to-end metric is, from the repository root:

    python3 clibench/steadiness.py --first-seed 1 --label A \
        --record clibench/STEADINESS.json

It runs every workload of BENCHMARK.json on ten consecutive seeds.  For
each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  Seeds run in the
outer loop and workloads in the inner one, so a slow spell of the host
lands on every workload.  With --record the set is appended to that JSON
file, together with each run's loadavg, steal time, unscaled wall-clock
timings and host-speed reference times, and the last two
sets in it are compared median against median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds) -> dict:
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    prov = next(json.loads(ln)["provenance"] for ln in lines if ln.startswith('{"provenance"'))
    detail = next(json.loads(ln)["detail"] for ln in lines if ln.startswith('{"detail"'))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "wall": detail["wall"], "reference": detail["reference"],
            "loadavg_start": prov["loadavg_start"], "loadavg_end": prov["loadavg_end"],
            "steal_s": prov["steal_s"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--label", default="")
    p.add_argument("--record", type=Path, default=None)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for w in names:
            run = run_once(spec["command"], w, seed, seconds)
            runs[w].append(run)
            print(f"{w:18s} seed {seed:3d} correct={run['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in sorted(run["metrics"].items())),
                  flush=True)

    summary = {}
    for w in names:
        summary[w] = {}
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric] for r in runs[w]])
            if metric in runs[w][0]["wall"]:
                s["wall"] = spread([r["wall"][metric] for r in runs[w]])
            summary[w][metric] = s
            print(f"{w:18s} {metric:12s} median={s['median']:.4f} "
                  f"iqr/median={s['iqr_share']:.4f} bound={bound} "
                  f"({s['iqr_share'] / bound:.2f} of bound)"
                  + (f" unscaled {s['wall']['iqr_share']:.4f}" if "wall" in s else ""))
    if args.record is None:
        return 0
    record = json.loads(args.record.read_text()) if args.record.exists() else {"sets": []}
    record["sets"].append({"label": args.label, "seconds": seconds,
                           "seeds": [args.first_seed, args.first_seed + RUNS - 1],
                           "summary": summary, "runs": runs})
    if len(record["sets"]) >= 2:
        a, b = record["sets"][-2], record["sets"][-1]
        drift = {}
        for w in names:
            for metric, bound in bounds.items():
                ma = a["summary"][w][metric]["median"]
                mb = b["summary"][w][metric]["median"]
                drift[f"{w}/{metric}"] = {"change": (mb - ma) / ma, "bound": bound}
                print(f"drift {w:18s} {metric:12s} {(mb - ma) / ma:+.4f} (bound {bound})")
        record["drift"] = {"from": a["label"], "to": b["label"], "metrics": drift}
    args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
