"""Batch interface: verification suites, amplitude tables, small-chain spectra.

Subcommands
-----------
verify     run the identity suite for one regime; one structured record per
           identity (name, parameters, residual, tolerance, pass/fail);
           exit status 1 iff any record fails.
amplitude  tabulate transmission amplitudes over a lam_hat grid (csv rows:
           lam_hat, Re T+, Im T+, Re T-, Im T-, route discrepancy).
spectrum   eigenvalues of the transfer matrix grouped by charge sector,
           with reference-eigenvalue and commutator check columns and an
           exact flag (1 iff the sector lies below the truncation ceiling).
bae        solve the chain's one-root Bethe equation (N=1, M=1) exactly and
           report its T-Q residual for the defect's L (+) and L-hat (-).

Outputs are deterministic: `verify`'s random sample points come from
Python's own seeded MT19937 (random.Random(seed)), with the seed recorded in
the output header, and records are sorted before writing.  Every header also
names the package and numpy versions.
Formats: csv (tables) or jsonl (one JSON record per line).
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import numbers
import random
import sys

import numpy as np

from . import ConvergenceError, __version__
from . import monodromy as mono
from . import transmission_matrices as tmat
from .lax_defect import (CRITICAL, NONCRITICAL, RegimeParams,
                         crossing_transform, defect_rep, make_l, make_l_hat,
                         make_r, s_matrix_part, unitarity_residuals)
from .oscillator_reps import algebra_residuals
from .tensor_core import exchange_residual

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# most points a --grid may ask for: a larger count is a usage error before
# any array is allocated
MAX_GRID_POINTS = 1_000_000

# largest --fock-dim of verify, checked the same way: at D = 256 the suite
# takes about 1.5 s and 220 MB, at 512 about 7 s and 0.7 GB, at 1024 about
# 60 s and 2.8 GB.
MAX_VERIFY_FOCK_DIM = 256
# and of spectrum, whose one-site chain at D = 1024 takes about 0.8 s and
# 240 MB, at 2048 about 2.6 s and 0.9 GB, at 4096 (mono.RESOURCE_BOUND)
# about 11 s and 3.4 GB
MAX_SPECTRUM_FOCK_DIM = 2048
# largest --breather-n, and n x grid points, of a breather table, checked the
# same way: its n fusion factors take about 15 us each and 0.2 us a point, so
# either bound alone leaves 30 s or more; at both the closed forms take 0.5 s
MAX_BREATHER_N = 1000
MAX_BREATHER_FACTORS = 2 * MAX_GRID_POINTS


def _parse_grid(text: str):
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid count must be <= {MAX_GRID_POINTS}, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid ends must be finite, got {text!r}")
    if not math.isfinite(stop - start):     # numpy.linspace steps by it
        raise argparse.ArgumentTypeError(f"grid ends must differ by a finite float, got {text!r}")
    return start, stop, count


def _at_most(cap: int, what: str):
    """An argparse type: an integer of at most `cap`, called `what` if not."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > cap:
            raise argparse.ArgumentTypeError(f"{what} must be <= {cap}, got {value}")
        return value
    return parse


def _nonnegative(convert, rule: str):
    """An argparse type: the text read by `convert`, finite and >= 0, or `rule`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


def _make_params(args) -> RegimeParams:
    if args.regime == "xxx":
        return RegimeParams.xxx(theta=args.theta)
    if args.regime == "critical":
        return RegimeParams.critical(args.mu, theta=args.theta)
    return RegimeParams.noncritical(args.eta, theta=args.theta)


def _header(args, **fields) -> dict:
    """The output header: the command, its regime, the regime's anisotropy
    (mu or eta) and theta, the package and numpy versions, and the command's
    own fields."""
    anisotropy = {"critical": {"mu": args.mu}, "noncritical": {"eta": args.eta}}
    return {"command": args.command, "regime": args.regime, "theta": args.theta,
            **anisotropy.get(args.regime, {}), "version": __version__, "numpy": np.__version__,
            **fields}


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _json_value(v):
    """A params value as JSON: numbers stay numbers, a complex becomes
    [re, im], strings and bools stay themselves, anything else its repr."""
    if isinstance(v, (str, bool)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real):
        return float(v)
    if isinstance(v, numbers.Complex):
        return [float(v.real), float(v.imag)]
    return repr(v)


# every JSON text the commands write: sorted keys, else json.dumps's defaults
_JSON = json.JSONEncoder(sort_keys=True).encode

# (gate, subspace) of each verify record by name.  A family reads the row of
# its name before "[" unless the member has a row of its own, algebra[...]
# keeps the subspace algebra_residuals gives, and a cross-route record reads
# the row of its second route.
GATES = {"ybe-r": (1e-10, "full"), "ybe-s": (1e-10, "full"), "algebra": (1e-12, None),
         "rll": (1e-11, "interior"), "lhat-two-route": (1e-13, "full"),
         "lax-unitarity": (1e-11, "interior"), "lax-crossing-unitarity": (1e-11, "interior"),
         "rtt": (1e-10, "charge sectors"), "commuting-family": (1e-10, "charge sectors"),
         "charge-conservation": (1e-12, "local tensors, relative"),
         "reference-eigenvalue": (1e-10, "full"), "integral": (1e-6, "full"),
         "sum": (1e-8, "full"), "amplitude-unitarity": (1e-10, "full"),
         "rttb": (1e-9, "interior, relative"), "rttb[type2]": (1e-9, "full, relative"),
         "tt-unitarity": (1e-9, "interior"), "tt-crossing": (1e-9, "interior"),
         "breather-crossing": (1e-10, "full"), "bae-residual": (1e-10, "full")}


def run_verify(params: RegimeParams, fock_dim: int, seed: int,
               tol_override: float | None = None) -> list[dict]:
    """The full identity suite for one regime: one record per identity,
    with its name, params (a sorted JSON object), residual, tolerance,
    pass flag and the subspace it was measured on."""
    # imported here, as in cmd_amplitude, so that spectrum and bae do not
    # compile the amplitude layer
    from .transmission_amplitudes import (amplitude_pair, breather_amplitude, second_route,
                                          soliton_s_amplitude)
    draw = random.Random(seed).random      # MT19937; `import numpy` has loaded random

    def uniform(low, high, n):
        return np.array([low + (high - low) * draw() for _ in range(n)])

    rep = defect_rep(params, fock_dim)
    reports: list[dict] = []

    def add(name, residual, params=None, row=None, subspace=None):
        tol, row_subspace = GATES.get(row or name) or GATES[name.split("[")[0]]
        tol = tol if tol_override is None else tol_override
        residual = float(residual)
        text = _JSON({k: _json_value(v) for k, v in params.items()}) if params else "{}"
        reports.append({"name": name, "params": text,
                        "residual": residual, "tolerance": tol, "pass": residual < tol,
                        "subspace": subspace or row_subspace})

    # Yang-Baxter for R and the S-matrix: the exchange relation with A = R
    # (or S) on V = C^2, one stacked call over the pairs.  Each side holds
    # S_s(l1 - l2) S_s(l1) S_s(l2) once, so the prefactor cancels: ybe-s is
    # measured on the matrix part, as rttb is.
    pairs = uniform(-1.5, 1.5, 12).reshape(6, 2)
    args = np.stack([pairs[:, 0] - pairs[:, 1], pairs[:, 0], pairs[:, 1]])   # (R12, A1, A2)
    r_args = [make_r(params, xs) for xs in args]
    add("ybe-r", exchange_residual(*r_args)[0].max(), {"pairs": len(pairs), "seed": seed})
    # the closed S_s of s-amplitude-cross-route, taken ahead of the amplitude
    # records: at a mu past the Gamma-product cap, the cap is what verify reports
    lam_grid = np.linspace(-1.6, 1.6, 5)
    s_grid = lam_grid[:3]
    s_closed = soliton_s_amplitude(params, s_grid)
    s_args = s_matrix_part(params, args.ravel()).reshape(args.shape + (4, 4))
    add("ybe-s", exchange_residual(*s_args)[0].max(), {"pairs": len(pairs), "seed": seed})

    # defect algebra relations
    for relation, residual, subspace in algebra_residuals(rep):
        add(f"algebra[{relation}]", residual, subspace=subspace)

    # RLL
    l1, l2 = pairs[:3].T
    rll = exchange_residual(r_args[0][:3], make_l(params, l1, rep), make_l(params, l2, rep),
                            keep=rep.interior())[0].max()
    add("rll", rll)

    # conjugate operator: explicit vs crossing route, unitarity scalars
    lam0 = 0.37
    two_route = np.abs(crossing_transform(make_l(params, -lam0 - 1j, rep))
                       - make_l_hat(params, lam0, rep)).max()
    add("lhat-two-route", two_route)
    grid = np.delete(np.linspace(-2.0, 2.0, 9), 4)     # all but lam = 0
    for lam, unit, crossing in zip(grid, *unitarity_residuals(params, grid, rep)):
        add("lax-unitarity", unit, {"lam": complex(lam)})
        add("lax-crossing-unitarity", crossing, {"lam": complex(lam)})

    # monodromy-level checks at desk scale, on charge-sector blocks: RTT on
    # those of T(lam), the rest on those of t(lam) as `spectrum` reads them
    spec = mono.ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 6))
    lams = uniform(-1.0, 1.0, 2)
    local = mono.local_tensors(spec, lams)      # both lams at once
    both = mono.contract(spec, lams, local)     # likewise
    all_sectors = mono.sector_blocks(spec)
    pair = dict(zip(("lam1", "lam2"), lams))
    add("rtt", mono.rtt_residual(spec, lams, both, all_sectors), pair)
    exact = all_sectors[:spec.max_exact_charge + 1]
    blocks = mono.transfer_matrix(spec, lams, exact, both)      # likewise
    t1, t2 = ([(q, b[k]) for q, b in blocks] for k in range(2))
    add("commuting-family", mono.sector_commutator(spec, t1, t2), pair)
    add("charge-conservation", mono.charge_leak(spec, [m[0] for m in local]))
    blocks = mono.transfer_matrix(spec, 0.77, exact[:1])   # charge 0 only
    add("reference-eigenvalue", mono.reference_residual(spec, blocks, 0.77))

    # amplitudes: cross-route agreement and unitarity
    other = second_route(params)
    # T+ and T- on the grid and its mirror image in one call; T- is T+ reflected,
    # so [-] is the reflected [+] gap and unitarity reads T+(-lam) = conj T+(lam)
    plus, minus = (r.value for r in amplitude_pair(params, np.concatenate([lam_grid, -lam_grid])))
    for sign, mine, theirs in zip("+-", (plus[:5], minus[:5]),
                                  amplitude_pair(params, lam_grid, other)):
        disc = np.abs(mine - theirs.value).max()
        add(f"amplitude-cross-route[{sign}]", disc, {"route": other}, other)
    uni = np.abs(minus[:5] * plus[5:] - 1.0).max()
    add("amplitude-unitarity", uni)
    s_disc = np.abs(s_closed - soliton_s_amplitude(params, s_grid, other)).max()
    add("s-amplitude-cross-route", s_disc, {"route": other}, other)

    # transmission matrices
    trep = tmat.default_rep(params, 6)
    l1, l2 = uniform(-1.2, 1.2, 2)
    for which in ("t", "t_bar"):
        add(f"rttb[{which}]", tmat.quadratic_algebra_residual(params, l1, l2, trep, which),
            {"lam1": l1, "lam2": l2, "dim": trep.dim})
    if params.regime == NONCRITICAL:
        # the spin-1 defect's matrix part at the same pair; its
        # representation is not truncated
        add("rttb[type2]", tmat.type2_algebra_residual(params.eta, 1.0, l1, l2),
            {"lam1": l1, "lam2": l2, "spin": 1.0})
    unit, crossing = tmat.unitarity_crossing_residual(params, 0.44, trep)
    add("tt-unitarity", unit)
    add("tt-crossing", crossing)

    # breathers (critical only)
    if params.regime == CRITICAL and params.is_attractive():
        g = params.gamma
        th_grid = np.linspace(-1.0, 1.0, 5)
        # theta -> -theta + i pi
        crossing = np.abs(breather_amplitude("-", 1, th_grid, g).value
                          - breather_amplitude("+", 1, -th_grid + 1j * g, g).value).max()
        add("breather-crossing", crossing)
        disc = np.abs(breather_amplitude("+", 1, th_grid, g).value
                      - breather_amplitude("+", 1, th_grid, g, route="integral").value).max()
        add("breather-cross-route", disc, row="integral")

    # Bethe roots for the one-root chain, both defect orientations
    for sign, root, res, singular in mono.bae_solutions(params):
        add(f"bae-residual[{sign}]", res, {"root": root, "singular": singular})
    return reports


# --------------------------------------------------------------------------
# output plumbing
# --------------------------------------------------------------------------


_BLOCK_ROWS = 4096    # rows formatted and written at a time


def _write_records(tables, fmt: str, out, header: dict):
    """Write tables of columns one after another under one header to the
    file `out` or to stdout, _BLOCK_ROWS rows at a time.  A table maps each
    column name to a list or 1-d array of cells (an array reads as its
    tolist()), or to one cell that repeats over the table's rows; every
    table has the first table's columns in its order.  A csv table is one
    `%` row template (see `_csv_field`) filled a block at a time.  `tables`
    may be any iterable, each table written as it comes: the first is taken
    before `out` is opened, so an error in making it writes nothing, and an
    error in a later one leaves the tables before it written."""
    tables = iter(tables)
    first = next(tables)
    try:
        target = open(out, "w") if out else contextlib.nullcontext(sys.stdout)
    except OSError as err:
        raise ValueError(f"cannot write --out {out}: {err.strerror}") from None
    with target as stream:
        stream.write(_JSON({"header": header}) + "\n" if fmt == "jsonl"
                     else "# " + _JSON(header) + "\n"
                     + ",".join(map(_csv_cell, first)) + "\n")
        for table in itertools.chain([first], tables):
            fields = {k: _csv_field(v) for k, v in table.items()}
            template = ",".join(fields.values()) + "\n"
            cols = [k for k, v in table.items() if isinstance(v, (list, np.ndarray))]
            for at in range(0, min((len(table[k]) for k in cols), default=0), _BLOCK_ROWS):
                block = {k: table[k][at:at + _BLOCK_ROWS] for k in cols}
                block = {k: v if isinstance(v, list) else v.tolist() for k, v in block.items()}
                if fmt == "jsonl":
                    rows = zip(*(block.get(k, itertools.repeat(v)) for k, v in table.items()))
                    stream.writelines(_JSON(dict(zip(table, row))) + "\n" for row in rows)
                else:
                    rows = zip(*(block[k] if fields[k] != "%s"
                                 else [_csv_cell(_fmt_cell(v)) for v in block[k]]
                                 for k in cols))
                    stream.write(template * len(block[cols[0]])
                                 % tuple(itertools.chain.from_iterable(rows)))


def _csv_field(v) -> str:
    """v's part of a csv row template: a repeated cell baked in (% doubled),
    or %.12e, %d or %s for a column of floats, of ints or of other cells."""
    if isinstance(v, np.ndarray):
        return {"f": "%.12e", "i": "%d", "u": "%d"}.get(v.dtype.kind, "%s")
    if not isinstance(v, list):
        return _csv_cell(_fmt_cell(v)).replace("%", "%%")
    types = set(map(type, v))
    return ("%.12e" if all(issubclass(t, float) for t in types)
            else "%d" if types == {int} else "%s")


def _csv_cell(text: str) -> str:
    """text as a csv cell that csv.reader reads back: quoted, quotes doubled,
    if it holds `,`, `"`, "\\n" or "\\r" (csv.writer with the line terminator
    "\\n" leaves a "\\r" unquoted).  No command writes a one-column table,
    whose empty cell csv.writer would quote."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _columns(rows: list[dict]) -> dict:
    """Row dicts with the same keys as one table of columns."""
    return {k: [row[k] for row in rows] for k in rows[0]}


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.12e}"
    if isinstance(v, complex):
        return f"{v.real:.12e}{v.imag:+.12e}j"
    return str(v)


def _sector_order(evs: np.ndarray, sizes: list[int]) -> list[int]:
    """The indices that sort each sector (of the given sizes) of the complex128
    evs as sorted() keyed by (round(re, 10), round(im, 10)) does.  round(v, 10)
    is the double nearest to n 10^-10, n = v 10^10 rounded half-even; so is
    rint(y) / 1e10 for y = 1e10 v where y's rounding cannot move rint(y), and
    round keys the rest."""
    x = evs.view(float)       # re, im, re, im, ...
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e10
        slow = ~(np.abs(y - np.rint(y)) < 0.5 - np.abs(y) * 2.0 ** -50)
    keys = np.rint(y) / 1e10
    keys[slow] = [round(v, 10) for v in x[slow].tolist()]
    keys = keys.reshape(-1, 2).tolist()
    return [i for start, n in zip(itertools.accumulate(sizes, initial=0), sizes)
            for i in sorted(range(start, start + n), key=keys.__getitem__)]


# --------------------------------------------------------------------------
# subcommand drivers
# --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    params = _make_params(args)
    records = sorted(run_verify(params, args.fock_dim, args.seed, tol_override=args.tol),
                     key=lambda r: r["name"])
    header = _header(args, seed=args.seed, fock_dim=args.fock_dim, sampler="mt19937")
    _write_records([_columns(records)], args.format or "jsonl", args.out, header)
    return EXIT_OK if all(r["pass"] for r in records) else EXIT_FAIL


def cmd_amplitude(args) -> int:
    from .transmission_amplitudes import (amplitude_pair, breather_amplitude, second_route,
                                          type2_amplitude)
    params = _make_params(args)
    start, stop, count = args.grid
    needs = {"breather": "critical", "type2": "noncritical"}.get(args.family, args.regime)
    if args.regime != needs:
        raise ValueError(f"--family {args.family} needs --regime {needs}")
    if args.family == "breather" and not params.is_attractive():
        raise ValueError(f"--family breather needs the attractive regime, "
                         f"mu < pi/2 = {np.pi / 2:.6g}; got mu = {params.mu}")
    n = args.breather_n
    if args.family == "breather" and not (n <= MAX_BREATHER_N
                                          and n * count <= MAX_BREATHER_FACTORS):
        raise ValueError(f"--breather-n {n} on a {count}-point grid: the fusion product takes "
                         f"n factors at every point; keep n <= {MAX_BREATHER_N} and "
                         f"n x points <= {MAX_BREATHER_FACTORS}")
    grid = np.linspace(start, stop, count)
    # closed(x) -> (T+, T-) and second(x) -> the other route's T+ (and T-)
    if args.family == "type1":
        other = second_route(params)

        def closed(x):
            return tuple(res.value for res in amplitude_pair(params, x))

        def second(x):
            return tuple(res.value for res in amplitude_pair(params, x, other))
    elif args.family == "breather":
        def closed(x):
            return (breather_amplitude("+", n, x, params.gamma).value,
                    breather_amplitude("-", n, x, params.gamma).value)

        second = None if n != 1 else (
            lambda x: (breather_amplitude("+", 1, x, params.gamma, "integral").value,))
    else:
        def closed(x):      # T(-lam_hat) = conj T(lam_hat) on the real grid, -0.0 + 0.0 = 0.0
            value = type2_amplitude(x, params.eta, args.spin).value
            return value, np.conj(value) + 0.0

        def second(x):
            return (type2_amplitude(x, params.eta, args.spin, "sum").value,)

    tp, tm = closed(grid)
    disc = np.zeros(count)
    if second is not None:
        for mine, theirs in zip((tp, tm), second(grid)):
            disc = np.maximum(disc, np.abs(mine - theirs))
    # a breather pole reads NaN on the grid; the scalar call names it
    notes = [""] * count
    for i in np.flatnonzero(~(np.isfinite(tp) & np.isfinite(tm))):
        try:
            closed(grid[i])
        except ZeroDivisionError as err:
            notes[i] = f"pole:{err}"
    pole = np.array([bool(note) for note in notes])
    tp, tm = (np.where(pole, complex(np.nan, np.nan), x) for x in (tp, tm))
    table = {"lam_hat": grid, "re_t_plus": tp.real, "im_t_plus": tp.imag,
             "re_t_minus": tm.real, "im_t_minus": tm.imag,
             "route_discrepancy": np.where(pole, np.nan, disc),
             "note": notes if any(notes) else ""}
    header = _header(args, family=args.family, grid=f"{start}:{stop}:{count}")
    _write_records([table], args.format or "csv", args.out, header)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    params = _make_params(args)
    mono.ChainSpec.check_dim(args.sites, args.fock_dim)     # before the representation
    if not 1 <= args.defect_site <= args.sites + 1:         # it only relabels the basis
        raise ValueError(f"defect_site must lie in 1..{args.sites + 1}, got {args.defect_site}")
    spec = mono.ChainSpec(args.sites, params, defect_rep(params, args.fock_dim))
    start, stop, count = args.grid
    sectors = mono.sector_blocks(spec)
    sizes = [len(idx) for _, idx in sectors]
    charge = np.repeat([sector for sector, _ in sectors], sizes)
    exact = np.repeat([int(sector <= spec.max_exact_charge) for sector, _ in sectors], sizes)

    def rows(lams):     # the tables of a batch of lams
        nonlocal first
        blocks = mono.transfer_matrix(spec, lams, sectors)
        # commutator with the first grid point on the sectors below the
        # truncation ceiling: the whole family must commute there
        lead = first is None      # the first point reads 0; a copy frees the batch
        first = first or [(q, block[0].copy()) for q, block in blocks]
        comm = [0.0] * lead + mono.sector_commutator(spec, [(q, b[lead:]) for q, b in blocks],
                                                     first)
        for lam, value in zip(lams, comm):
            if not math.isfinite(value):
                raise ValueError(f"the commutator check at lam = {lam} is beyond the float range")
        evs = np.concatenate(mono.sector_eigenvalues(spec, blocks), axis=1).ravel()
        evs = evs[_sector_order(evs, sizes * len(lams))].reshape(len(lams), -1)
        return [{"lam": float(lam), "sector": charge, "re_eig": ev.real, "im_eig": ev.imag,
                 "reference_check": mono.reference_residual(spec, [(0, block)], lam),
                 "commutator_check": value, "exact": exact}
                for lam, block, value, ev in zip(lams, blocks[0][1], comm, evs)]

    def tables():       # each batch's tables, made as the writer reaches them
        batch = spec.batch
        for lams in np.split(np.linspace(start, stop, count), range(batch, count, batch)):
            try:
                made = rows(lams)
            except ValueError:      # run again lam by lam: the first failing lam's error
                for k in range(len(lams)):
                    rows(lams[k:k + 1])
                raise
            yield from made
            del made        # written: free it before the next batch is made

    first = None
    header = _header(args, sites=args.sites, defect_site=args.defect_site,
                     fock_dim=args.fock_dim)
    _write_records(tables(), args.format or "csv", args.out, header)
    return EXIT_OK


def cmd_bae(args) -> int:
    params = _make_params(args)
    rows = [{"sign": sign, "re_root": root.real, "im_root": root.imag, "residual": res}
            for sign, root, res, _ in mono.bae_solutions(params)]
    worst = max(row["residual"] for row in rows)
    _write_records([_columns(rows)], args.format or "csv", args.out, _header(args))
    tol = args.tol if args.tol is not None else GATES["bae-residual"][0]
    return EXIT_OK if worst < tol else EXIT_FAIL


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectchain",
        description="Verification and computation engine for oscillator-type "
                    "integrable defects in Heisenberg spin chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--regime", choices=["xxx", "critical", "noncritical"],
                       default="xxx")
        p.add_argument("--mu", type=float, default=0.7,
                       help="critical anisotropy (critical regime)")
        p.add_argument("--eta", type=float, default=0.5,
                       help="anisotropy (non-critical regime)")
        p.add_argument("--theta", type=float, default=0.0, help="defect rapidity")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["csv", "jsonl"], default=None)

    # options only the subcommands that read them take
    def fock_dim(p, cap):
        p.add_argument("--fock-dim", type=_at_most(cap, "fock dimension"), default=8,
                       dest="fock_dim")

    def grid(p):
        p.add_argument("--grid", type=_parse_grid, default=(-2.0, 2.0, 41),
                       help="start:stop:count")

    p = sub.add_parser("verify", help="run the identity suite")
    common(p)
    fock_dim(p, MAX_VERIFY_FOCK_DIM)
    p.add_argument("--tol", type=_nonnegative(float, "tolerance must be finite and >= 0"),
                   default=None, help="override every record tolerance")
    p.add_argument("--seed", type=_nonnegative(int, "seed must be an integer >= 0"), default=7)

    p = sub.add_parser("amplitude", help="tabulate transmission amplitudes")
    common(p)
    grid(p)
    p.add_argument("--spin", type=float, default=1.0, help="defect spin (--family type2)")
    p.add_argument("--family", choices=["type1", "breather", "type2"],
                   default="type1")
    p.add_argument("--breather-n", type=int, default=1, dest="breather_n")

    p = sub.add_parser("spectrum", help="transfer-matrix spectra by charge sector")
    common(p)
    fock_dim(p, MAX_SPECTRUM_FOCK_DIM)
    grid(p)
    p.add_argument("--sites", type=_at_most(mono.RESOURCE_BOUND.bit_length() - 1, "sites"),
                   default=2)
    p.add_argument("--defect-site", type=int, default=1, dest="defect_site",
                   help="the defect's site in 1..N+1; it only relabels the basis, so "
                        "every site prints the same rows")

    p = sub.add_parser("bae", help="the chain's one-root Bethe equation, for L and L-hat")
    common(p)
    p.add_argument("--tol", type=_nonnegative(float, "tolerance must be finite and >= 0"),
                   default=None, help="gate on the worst residual (default 1e-10)")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # the handler is looked up per call, not stored in the cached parser,
        # so a wrapper bound to the module attribute later is still called
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, TypeError, ConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
