"""Benchmark workloads: seeded `defectchain` argv lists and the checks that
every output of those commands must pass.

The seed only moves parameter values, grid ends and defect positions; the
number of commands, grid sizes and chain sizes are fixed per workload, so
two seeds cost about the same and run-to-run spread measures the machine,
not the draw.
"""
from __future__ import annotations

import json
import math
import random

REGIMES = ("xxx", "critical", "noncritical")

# The gates the `verify` suite applies to the same quantities.
AMPLITUDE_GATE = {"integral": 1e-6, "sum": 1e-8}
REFERENCE_GATE = 1e-10
COMMUTATOR_GATE = 1e-10
BAE_GATE = 1e-10


def _f(x: float) -> str:
    return f"{x:.4f}"


def _anisotropy(regime: str, mu: float, eta: float) -> list[str]:
    if regime == "critical":
        return ["--mu", _f(mu)]
    if regime == "noncritical":
        return ["--eta", _f(eta)]
    return []


def _draw(rng: random.Random) -> tuple[float, float]:
    """mu and eta near the README defaults (0.7 and 0.5)."""
    return rng.uniform(0.6, 0.8), rng.uniform(0.4, 0.6)


def _theta(rng: random.Random, regime: str) -> float:
    """Defect rapidity for commands that solve the one-root Bethe equation.

    In the critical regime the Newton root search fails at scattered theta
    (about 1% of the (mu, theta) box; the theta=0.06 probe shows it), so
    critical commands keep the README default theta = 0.
    """
    theta = rng.uniform(-0.25, 0.25)
    return 0.0 if regime == "critical" else theta


def verify_suite(rng: random.Random, smoke: bool) -> list[list[str]]:
    """`verify` in every regime, then `bae` in every regime."""
    mu, eta = _draw(rng)
    cmds = []
    for regime in REGIMES:
        cmds.append(["verify", "--regime", regime, *_anisotropy(regime, mu, eta),
                     "--theta", _f(_theta(rng, regime)),
                     "--seed", str(rng.randrange(1, 100))])
    for regime in REGIMES:
        cmds.append(["bae", "--regime", regime, *_anisotropy(regime, mu, eta),
                     "--theta", _f(_theta(rng, regime))])
    return cmds


def amplitude_tables(rng: random.Random, smoke: bool) -> list[list[str]]:
    """The six tables of scripts/tabulate_amplitudes.py on denser grids."""
    mu, eta = _draw(rng)
    count = 9 if smoke else 121
    lo, hi = -4.0 + rng.uniform(-0.2, 0.2), 4.0 + rng.uniform(-0.2, 0.2)
    grid = f"--grid={_f(lo)}:{_f(hi)}:{count}"
    crit = ["--regime", "critical", "--mu", _f(mu)]
    nonc = ["--regime", "noncritical", "--eta", _f(eta)]
    return [
        ["amplitude", "--regime", "xxx", grid],
        ["amplitude", *crit, grid],
        ["amplitude", *nonc, grid],
        ["amplitude", *crit, "--family", "breather", "--breather-n", "1", grid],
        ["amplitude", *crit, "--family", "breather", "--breather-n", "2", grid],
        ["amplitude", *nonc, "--family", "type2", "--spin", "1", grid],
    ]


def chain_spectrum(rng: random.Random, smoke: bool) -> list[list[str]]:
    """N=4 in every regime with D = 6, 7, 8 dealt out by the seed, plus one
    N=5, D=8 chain (larger than cache) in a seed-picked regime."""
    mu, eta = _draw(rng)
    fock = [6, 7, 8]
    rng.shuffle(fock)
    sizes = [(regime, 4, d) for regime, d in zip(REGIMES, fock)]
    sizes.append((rng.choice(REGIMES), 5, 8))
    if smoke:
        sizes = [(regime, 2, d - 3) for regime, _, d in sizes]
    cmds = []
    for regime, sites, dim in sizes:
        lo, hi = -1.5 + rng.uniform(-0.1, 0.1), 1.5 + rng.uniform(-0.1, 0.1)
        cmds.append(["spectrum", "--regime", regime, *_anisotropy(regime, mu, eta),
                     "--sites", str(sites), "--fock-dim", str(dim),
                     "--defect-site", str(rng.randint(1, sites + 1)),
                     "--theta", _f(rng.uniform(-0.25, 0.25)),
                     f"--grid={_f(lo)}:{_f(hi)}:3"])
    return cmds


WORKLOADS = {
    "verify-suite": verify_suite,
    "amplitude-tables": amplitude_tables,
    "chain-spectrum": chain_spectrum,
}

# Known defects: run untimed, reported, kept out of correct/attempted.
PROBES = [
    ["verify", "--regime", "critical", "--mu", "3.1"],
    ["verify", "--regime", "noncritical", "--eta", "1e-6"],
    ["amplitude", "--regime", "noncritical", "--eta", "1e-6"],
    ["verify", "--regime", "critical", "--mu", "0.05"],
    ["verify", "--regime", "noncritical", "--eta", "5"],
    ["bae", "--regime", "critical", "--mu", "0.7", "--theta", "0.06"],
]


def build(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def _opt(argv: list[str], name: str, default: str | None = None) -> str | None:
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def _csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def verify_failures(text: str) -> int:
    """Number of records in `verify` jsonl output whose pass flag is false."""
    records = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    return sum(1 for r in records if "header" not in r and not r.get("pass", False))


def _check_verify(argv, code, text, stats):
    records = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    records = [r for r in records if "header" not in r]
    if not records:
        return ["no verify records"]
    problems = [f"record {r['name']} failed: {r['residual']:.3e} >= {r['tolerance']:.1e}"
                for r in records if not r["pass"]]
    if code != (0 if not problems else 1):
        problems.append(f"exit code {code} disagrees with the records")
    return problems


def _check_amplitude(argv, code, text, stats):
    rows = _csv(text)
    family = _opt(argv, "--family", "type1")
    regime = _opt(argv, "--regime", "xxx")
    count = int(_opt(argv, "--grid").split(":")[2])
    if family == "breather" and _opt(argv, "--breather-n", "1") != "1":
        route = None  # fusion product: one route only
    elif family == "type2" or regime == "noncritical":
        route = "sum"
    else:
        route = "integral"
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(rows) != count:
        problems.append(f"{len(rows)} rows for a {count}-point grid")
    worst = stats.get("amplitude_rel_discrepancy_max", 0.0)
    for row in rows:
        lam = float(row["lam_hat"])
        if row["note"]:
            if not (row["note"].startswith("pole:") and family == "breather"
                    and route is None and lam == 0.0):
                problems.append(f"note {row['note']!r} at lam_hat={lam}")
            continue
        vals = [float(row[k]) for k in ("re_t_plus", "im_t_plus", "re_t_minus",
                                        "im_t_minus", "route_discrepancy")]
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"non-finite amplitude at lam_hat={lam}")
            continue
        scale = max(math.hypot(vals[0], vals[1]), math.hypot(vals[2], vals[3]))
        rel = vals[4] / scale
        worst = max(worst, rel)
        if route is not None and not rel <= AMPLITUDE_GATE[route]:
            problems.append(f"{route} route off by {rel:.3e} at lam_hat={lam}")
    stats["amplitude_rel_discrepancy_max"] = worst
    return problems


def _check_spectrum(argv, code, text, stats):
    rows = _csv(text)
    sites, dim = int(_opt(argv, "--sites")), int(_opt(argv, "--fock-dim"))
    count = int(_opt(argv, "--grid").split(":")[2])
    problems = [] if code == 0 else [f"exit code {code}"]
    by_lam: dict[str, list[dict]] = {}
    for row in rows:
        by_lam.setdefault(row["lam"], []).append(row)
    if len(by_lam) != count:
        problems.append(f"{len(by_lam)} lambda points for a {count}-point grid")
    first_scale = None
    for lam, group in by_lam.items():
        if len(group) != 2 ** sites * dim:
            problems.append(f"{len(group)} eigenvalues at lam={lam}, "
                            f"basis has {2 ** sites * dim}")
        eig = [math.hypot(float(r["re_eig"]), float(r["im_eig"])) for r in group]
        ref, comm = float(group[0]["reference_check"]), float(group[0]["commutator_check"])
        if not all(math.isfinite(v) for v in eig + [ref, comm]):
            problems.append(f"non-finite spectrum at lam={lam}")
            continue
        scale = max(eig)
        first_scale = scale if first_scale is None else first_scale
        rel = comm / (scale * first_scale)
        stats["commutator_abs_max"] = max(stats.get("commutator_abs_max", 0.0), comm)
        stats["commutator_rel_max"] = max(stats.get("commutator_rel_max", 0.0), rel)
        stats["reference_check_max"] = max(stats.get("reference_check_max", 0.0), ref)
        if not ref <= REFERENCE_GATE:
            problems.append(f"reference check {ref:.3e} at lam={lam}")
        if not rel <= COMMUTATOR_GATE:
            problems.append(f"scaled commutator {rel:.3e} at lam={lam}")
    return problems


def _check_bae(argv, code, text, stats):
    rows = _csv(text)
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(rows) != 2:
        problems.append(f"{len(rows)} bae rows, expected 2")
    for row in rows:
        res = float(row["residual"])
        stats["bae_residual_max"] = max(stats.get("bae_residual_max", 0.0), res)
        if not res <= BAE_GATE:
            problems.append(f"bae residual {res:.3e} for sign {row['sign']}")
    return problems


_CHECKS = {"verify": _check_verify, "amplitude": _check_amplitude,
           "spectrum": _check_spectrum, "bae": _check_bae}


def check(argv: list[str], code, text: str, stats: dict) -> list[str]:
    """Problems with one command's output (empty when correct).  Worst
    margins seen so far are accumulated into ``stats``."""
    if code is None:
        return ["command raised"]
    try:
        return _CHECKS[argv[0]](argv, code, text, stats)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as err:
        return [f"unparseable output: {type(err).__name__}: {err}"]
