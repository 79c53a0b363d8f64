import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectchain
from defectchain import cli
from defectchain import monodromy as mono
from defectchain import transmission_amplitudes as ta
from defectchain import transmission_matrices as tmat
from defectchain.cli import _fmt_cell, _sector_order, _seeded_uniform, _write_records, main
from defectchain.lax_defect import (NONCRITICAL, RegimeParams, defect_rep, make_l, make_r,
                                   s_matrix_part)
from defectchain.monodromy import ChainSpec, charge_vector, reference_eigenvalue
from defectchain.tensor_core import exchange_residual
from defectchain.transmission_amplitudes import (amplitude, amplitude_pair, breather_amplitude,
                                                 soliton_s_amplitude)
from dense_oracle import (dense_monodromy, dense_transfer, exchange_oracle, masked_commutator,
                          reference_state, sector_mask)

GAMMA_QUARTER_RATIO = 2.9586751191886389


def run(args):
    return main(args)


def read_jsonl(path):
    lines = path.read_text().strip().splitlines()
    header = json.loads(lines[0])["header"]
    records = [json.loads(line) for line in lines[1:]]
    return header, records


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = json.loads(lines[0][2:])
    cols = lines[1].split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[2:]]
    return header, rows


def test_verify_default_xxx_all_pass(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run(["verify", "--regime", "xxx", "--out", str(out)])
    assert code == 0
    header, records = read_jsonl(out)
    assert header["regime"] == "xxx"
    assert header["seed"] == 7
    assert len(records) >= 25
    assert all(r["pass"] for r in records)


def test_verify_zero_tolerance_fails_everything(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run(["verify", "--regime", "xxx", "--tol", "0", "--out", str(out)])
    assert code == 1
    _, records = read_jsonl(out)
    assert records and not any(r["pass"] for r in records)


def test_verify_critical_includes_breather_record(tmp_path):
    out = tmp_path / "report.jsonl"
    code = run(["verify", "--regime", "critical", "--mu", "0.7",
                "--out", str(out)])
    assert code == 0
    _, records = read_jsonl(out)
    names = {r["name"] for r in records}
    assert "breather-crossing" in names


@pytest.mark.parametrize("args", [
    ["--regime", "noncritical", "--eta", "0.5"],
    ["--regime", "critical", "--mu", "0.7"],
], ids=["nc", "crit"])
def test_verify_deterministic_output(tmp_path, args):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(["verify", *args, "--out", str(a)])
    run(["verify", *args, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    ["--regime", "xxx"],
    ["--regime", "critical", "--mu", "0.7"],
], ids=["xxx", "crit"])
def test_verify_csv_is_well_formed(tmp_path, args):
    # names, params and subspaces contain commas, so cells must be quoted
    out_csv, out_jsonl = tmp_path / "v.csv", tmp_path / "v.jsonl"
    assert run(["verify", *args, "--format", "csv", "--out", str(out_csv)]) == 0
    run(["verify", *args, "--out", str(out_jsonl)])
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.DictReader(lines[1:], strict=True))
    _, records = read_jsonl(out_jsonl)
    assert len(rows) == len(records)
    assert any("," in row["params"] + row["subspace"] for row in rows)
    for row, rec in zip(rows, records):
        assert None not in row and len(row) == 6
        assert row["name"] == rec["name"]
        assert json.loads(row["params"]) == json.loads(rec["params"])
        assert row["subspace"] == rec["subspace"]
        assert row["pass"] == str(rec["pass"])


class SampleLog:
    """Wraps the sampled functions and counts every sample point they are
    given, keyed by function, sign and route (exchange relations by the size
    of A and whether a mask applies; a pair of hole amplitudes as the points
    of both signs), so two evaluation orders can be checked to visit the
    same points."""

    def __init__(self):
        self.points = Counter()

    def wrap(self, fn):
        sig = inspect.signature(fn)

        def logged(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if fn is exchange_residual:
                d = np.shape(a["a1"])[-1]
                n = len(a["a1"]) if np.ndim(a["a1"]) == 3 else 1
                self.points[(fn.__name__, d, a["keep"] is None)] += n
            else:
                lam = a["lam_hat"] if "lam_hat" in a else a["lam"]
                keys = ([("amplitude", sign, a["route"]) for sign in "+-"]
                        if fn is amplitude_pair else [(fn.__name__, a.get("sign"), a["route"])])
                for key in keys:
                    self.points.update((key, complex(x)) for x in np.ravel(lam))
            return fn(*args, **kwargs)

        return logged


SAMPLED = (amplitude, breather_amplitude, soliton_s_amplitude, exchange_residual, amplitude_pair)


def per_point_records(params, fock_dim, seed, log):
    """The records `run_verify` evaluates on sample grids, rebuilt one sample
    point at a time from scalar calls: the suite's sample points, counts and
    gates, with every amplitude and every exchange relation taken alone."""
    amp, breather, s_amp, exchange = (log.wrap(fn) for fn in SAMPLED[:4])
    rng = np.random.default_rng(seed)
    rep = defect_rep(params, fock_dim)
    pairs = rng.uniform(-1.5, 1.5, size=(6, 2))
    out = []

    def add(name, residuals, tol, params=None, subspace="full"):
        residual = float(max(residuals))
        out.append({"name": name, "params": json.dumps(params or {}, sort_keys=True),
                    "residual": residual, "tolerance": tol, "pass": residual < tol,
                    "subspace": subspace})

    def ybe(f):
        return [exchange(f(l1 - l2), f(l1), f(l2))[0] for l1, l2 in pairs]

    sample = {"pairs": len(pairs), "seed": seed}
    add("ybe-r", ybe(lambda x: make_r(params, x).entries), 1e-10, params=sample)
    add("ybe-s", ybe(lambda x: s_amp(params, x) * s_matrix_part(params, x).entries), 1e-10,
        params=sample)
    add("rll", [exchange(make_r(params, l1 - l2).entries, make_l(params, l1, rep).entries,
                         make_l(params, l2, rep).entries, keep=rep.interior())[0]
                for l1, l2 in pairs[:3]], 1e-11, subspace="interior")

    lam_grid = np.linspace(-1.6, 1.6, 5)
    second, tol = ("sum", 1e-8) if params.regime == NONCRITICAL else ("integral", 1e-6)
    closed = {sign: [amp(params, sign, x).value for x in lam_grid] for sign in ("+", "-")}
    for sign in ("+", "-"):
        add(f"amplitude-cross-route[{sign}]",
            [abs(t - amp(params, sign, x, second).value) for t, x in zip(closed[sign], lam_grid)],
            tol, params={"route": second})
    add("amplitude-unitarity",
        [abs(t * amp(params, "+", -x).value - 1.0) for t, x in zip(closed["-"], lam_grid)],
        1e-10)
    add("s-amplitude-cross-route",
        [abs(s_amp(params, x) - s_amp(params, x, second)) for x in lam_grid[:3]], tol,
        params={"route": second})

    if params.is_attractive():
        g = params.gamma
        th_grid = np.linspace(-1.0, 1.0, 5)
        add("breather-crossing",
            [abs(breather("-", 1, x, g).value - breather("+", 1, -x + 1j * g, g).value)
             for x in th_grid], 1e-10)
        add("breather-cross-route",
            [abs(breather("+", 1, x, g).value - breather("+", 1, x, g, route="integral").value)
             for x in th_grid], 1e-6)
    return out


@pytest.mark.parametrize("params", [RegimeParams.xxx(), RegimeParams.critical(0.7),
                                    RegimeParams.critical(0.3), RegimeParams.noncritical(0.5)],
                         ids=["xxx", "crit-0.7", "crit-0.3", "nc"])
def test_verify_grid_records_match_per_point_oracle(monkeypatch, params):
    # the suite evaluates each family on its whole sample grid in one call:
    # it must visit the same sample points as the per-point oracle, keep
    # every record's name, params, gate and pass flag, and differ in rounding only
    # the amplitude layer's spies sit on its own module, which run_verify
    # imports from when it runs; so they also see the amplitude calls of
    # the transmission-matrix prefactors, which the oracle repeats
    mine, theirs = SampleLog(), SampleLog()
    for fn in SAMPLED:
        owner = cli if fn is exchange_residual else ta
        monkeypatch.setattr(owner, fn.__name__, mine.wrap(fn))
    got = {r["name"]: r for r in cli.run_verify(params, 8, 7)}
    monkeypatch.setattr(ta, "amplitude", theirs.wrap(amplitude))
    tmat.unitarity_crossing_residual(params, 0.44, tmat.default_rep(params, 6))
    want = per_point_records(params, 8, 7, theirs)
    assert len(want) == (9 if params.is_attractive() else 7)
    assert mine.points == theirs.points
    for rec in want:
        assert {k: v for k, v in got[rec["name"]].items() if k != "residual"} == \
            {k: v for k, v in rec.items() if k != "residual"}, rec["name"]
        assert got[rec["name"]]["residual"] == pytest.approx(rec["residual"], rel=0, abs=1e-13)



@pytest.mark.parametrize("params", [RegimeParams.xxx(), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.4, theta=0.2)],
                         ids=["xxx", "crit", "nc"])
def test_verify_records_are_six_fields_in_order(params):
    # run_verify builds each written record itself: the six fields in this
    # order, params as canonical JSON, and pass read from residual < tolerance
    records = cli.run_verify(params, 8, 7)
    assert len({(r["name"], r["params"], r["subspace"]) for r in records}) == len(records) > 25
    for rec in records:
        assert list(rec) == ["name", "params", "residual", "tolerance", "pass", "subspace"]
        assert rec["params"] == json.dumps(json.loads(rec["params"]), sort_keys=True)
        assert type(rec["residual"]) is float and type(rec["tolerance"]) is float
        assert rec["pass"] is (rec["residual"] < rec["tolerance"])
        assert isinstance(rec["subspace"], str) and rec["subspace"]
    for rec in cli.run_verify(params, 8, 7, tol_override=1e-300):
        assert rec["tolerance"] == 1e-300 and rec["pass"] is (rec["residual"] < 1e-300)

def test_amplitude_table_xxx(tmp_path):
    out = tmp_path / "amp.csv"
    code = run(["amplitude", "--regime", "xxx", "--grid=-2:2:41",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 41
    assert all(float(r["route_discrepancy"]) < 1e-6 for r in rows)


def test_amplitude_single_point_value(tmp_path):
    out = tmp_path / "amp.csv"
    run(["amplitude", "--regime", "xxx", "--grid", "0:0:1", "--out", str(out)])
    _, rows = read_csv(out)
    assert float(rows[0]["re_t_plus"]) == pytest.approx(GAMMA_QUARTER_RATIO, rel=1e-10)
    assert float(rows[0]["im_t_plus"]) == pytest.approx(0.0, abs=1e-10)


def test_amplitude_breather_fusion_table(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    base = ["amplitude", "--regime", "critical", "--mu", "0.7",
            "--family", "breather", "--grid=-1:1:5"]
    run(base + ["--breather-n", "1", "--out", str(out1)])
    run(base + ["--breather-n", "2", "--out", str(out2)])
    _, rows1 = read_csv(out1)
    _, rows2 = read_csv(out2)
    # n = 2 equals the product of two shifted n = 1 evaluations; the minus
    # amplitude poles at lam_hat = 0 and that row must be marked, not fatal
    from defectchain.transmission_amplitudes import breather_amplitude
    gamma = np.pi / 0.7 - 1.0
    checked = 0
    for row in rows2:
        lh = float(row["lam_hat"])
        if row["note"].startswith("pole"):
            assert lh == pytest.approx(0.0)
            continue
        want = (breather_amplitude("+", 1, lh + 0.5j, gamma).value
                * breather_amplitude("+", 1, lh - 0.5j, gamma).value)
        got = complex(float(row["re_t_plus"]), float(row["im_t_plus"]))
        assert got == pytest.approx(want, rel=1e-12)
        checked += 1
    assert checked >= 4


def test_spectrum_reference_check_and_n0(tmp_path):
    out = tmp_path / "spec.csv"
    code = run(["spectrum", "--regime", "xxx", "--sites", "2",
                "--defect-site", "1", "--fock-dim", "4", "--theta", "0.2",
                "--grid", "0.7:0.7:1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert all(float(r["reference_check"]) < 1e-10 for r in rows)


def test_spectrum_commutator_column(tmp_path):
    out = tmp_path / "spec.csv"
    run(["spectrum", "--regime", "xxx", "--sites", "2", "--defect-site", "1",
         "--fock-dim", "4", "--theta", "0.2", "--grid=-0.8:0.9:3",
         "--out", str(out)])
    _, rows = read_csv(out)
    assert all(float(r["commutator_check"]) < 1e-10 for r in rows)
    assert any(float(r["lam"]) != -0.8 for r in rows)
    # defect-only chain: t(lam) = (lam - th + i N + i) + i, eigenvalues read
    # off the diagonal
    out0 = tmp_path / "spec0.csv"
    run(["spectrum", "--regime", "xxx", "--sites", "0", "--defect-site", "1",
         "--fock-dim", "4", "--theta", "0.2", "--grid", "0.7:0.7:1",
         "--out", str(out0)])
    _, rows0 = read_csv(out0)
    lam, th = 0.7, 0.2
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    want = sorted(((lam - th + 1j * (-n) + 2j) for n in range(4)), key=key)
    got = sorted((complex(float(r["re_eig"]), float(r["im_eig"])) for r in rows0),
                 key=key)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)


def test_spectrum_exact_column_flags_sectors_below_the_ceiling(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--regime", "xxx", "--sites", "2", "--defect-site", "2",
                "--fock-dim", "4", "--grid", "0.3:0.3:1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    spec = ChainSpec(n_sites=2, defect_site=2, params=RegimeParams.xxx(),
                     rep=defect_rep(RegimeParams.xxx(), 4))
    assert sum(r["exact"] == "1" for r in rows) == sector_mask(spec).sum()
    assert {r["sector"] for r in rows} == {str(k) for k in range(6)}
    assert all(r["exact"] == ("1" if int(r["sector"]) <= 2 else "0") for r in rows)


def test_spectrum_oversize_rejected(capsys):
    code = run(["spectrum", "--regime", "xxx", "--sites", "12",
                "--fock-dim", "8", "--grid", "0:0:1"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["--sites", "1000000000"], "argument --sites: sites must be <= 12, got 1000000000\n"),
    (["--sites", "13", "--fock-dim", "3"], "argument --sites: sites must be <= 12, got 13\n"),
    (["--sites", "3", "--fock-dim", "4096"],
     "error: chain dimension 32768 exceeds resource bound 4096\n"),
], ids=["sites-1e9", "sites-13", "dim-32768"])
def test_spectrum_oversize_is_rejected_before_any_representation(monkeypatch, capsys, argv,
                                                                  message):
    # --sites is bounded while parsing and 2^N D before the representation:
    # no 4096-level representation, and no 2^(10^9) to format
    def unreachable(*args):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(cli, "defect_rep", unreachable)
    assert run(["spectrum", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert captured.err.endswith(message)


def test_bae_command(tmp_path):
    out = tmp_path / "bae.csv"
    code = run(["bae", "--regime", "xxx", "--theta", "0.3", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert {r["sign"] for r in rows} == {"+", "-"}
    assert all(float(r["residual"]) < 1e-10 for r in rows)


def test_usage_errors():
    assert run(["verify", "--regime", "bogus"]) == 2
    assert run(["amplitude", "--grid", "nonsense"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0


@pytest.mark.parametrize("command, extra", [
    ("verify", ["--spin", "1"]), ("verify", ["--grid=0:1:2"]),
    ("amplitude", ["--fock-dim", "4"]), ("amplitude", ["--tol", "1e-3"]),
    ("amplitude", ["--seed", "3"]),
    ("spectrum", ["--spin", "1"]), ("spectrum", ["--tol", "1e-3"]),
    ("spectrum", ["--seed", "3"]),
    ("bae", ["--fock-dim", "4"]), ("bae", ["--spin", "1"]), ("bae", ["--grid=0:1:2"]),
    ("bae", ["--seed", "3"]),
])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, command, extra):
    assert run([command, *extra]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--fock-dim", "6", "--tol", "1e-3", "--seed", "3"],
    ["amplitude", "--grid=0:1:2", "--spin", "1.5"],
    ["spectrum", "--fock-dim", "4", "--grid=0:1:2"],
    ["bae", "--tol", "1e-3"],
])
def test_each_subcommand_takes_the_options_it_reads(argv):
    args = cli.build_parser().parse_args(argv + ["--regime", "critical", "--mu", "0.5",
                                                 "--theta", "0.1", "--format", "csv"])
    assert args.command == argv[0] and args.mu == 0.5


@pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "-inf:1:3", "0:inf:3"])
@pytest.mark.parametrize("command", ["amplitude", "spectrum"])
def test_non_finite_grid_ends_are_usage_errors(capsys, command, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, f"--grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert "grid ends must be finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["amplitude", "spectrum"])
def test_grid_count_past_the_cap_is_a_usage_error(capsys, command):
    # rejected while parsing: the grid itself would need 8 TB
    assert run([command, "--grid=0:1:1000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert "grid count must be <= 1000000, got 1000000000000" in captured.err


@pytest.mark.parametrize("count, accepted", [(1_000_000, True), (1_000_001, False)])
def test_grid_count_cap_is_inclusive(count, accepted):
    assert cli.MAX_GRID_POINTS == 1_000_000
    if accepted:
        assert cli._parse_grid(f"-2:2:{count}") == (-2.0, 2.0, count)
    else:
        with pytest.raises(argparse.ArgumentTypeError, match=f"<= 1000000, got {count}"):
            cli._parse_grid(f"-2:2:{count}")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--fock-dim", "100000"], "must be <= 256, got 100000"),
    (["verify", "--fock-dim", "2048"], "must be <= 256, got 2048"),
    (["verify", "--fock-dim=257"], "must be <= 256, got 257"),
    (["spectrum", "--sites", "0", "--fock-dim", "5000"], "must be <= 4096, got 5000"),
    (["spectrum", "--sites", "0", "--fock-dim", "100000"], "must be <= 4096, got 100000"),
])
def test_fock_dim_past_the_cap_is_a_usage_error(monkeypatch, capsys, argv, message):
    # rejected while parsing, before any representation is built: verify
    # at D = 2048 would need several GB
    def unreachable(*args):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(cli, "defect_rep", unreachable)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert f"argument --fock-dim: fock dimension {message}\n" in captured.err


@pytest.mark.parametrize("command, cap", [("verify", cli.MAX_VERIFY_FOCK_DIM),
                                          ("spectrum", mono.RESOURCE_BOUND)])
def test_fock_dim_cap_is_inclusive(command, cap):
    assert cli.build_parser().parse_args([command, f"--fock-dim={cap}"]).fock_dim == cap
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, f"--fock-dim={cap + 1}"])


@pytest.mark.parametrize("command", ["verify", "bae"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "1e-3x"])
def test_tolerance_must_be_finite_and_non_negative(capsys, command, value):
    assert run([command, f"--tol={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --tol: tolerance must be finite and >= 0, got '{value}'" in captured.err


@pytest.mark.parametrize("value", ["-1", "1.5", "7x", "nan"])
def test_seed_must_be_a_non_negative_integer(capsys, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", f"--seed={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert f"argument --seed: seed must be an integer >= 0, got '{value}'" in captured.err


# verify's draws: (low, high, size) in its call order
VERIFY_DRAWS = [(-1.5, 1.5, (6, 2)), (-1.0, 1.0, 2), (-1.2, 1.2, 2)]


def test_verify_draws_its_points_in_order(monkeypatch):
    calls = []

    def logged(seed):
        uniform = _seeded_uniform(seed)

        def draw(low, high, size):
            calls.append((seed, low, high, size))
            return uniform(low, high, size)
        return draw

    monkeypatch.setattr(cli, "_seeded_uniform", logged)
    cli.run_verify(RegimeParams.xxx(), 8, 46)
    assert calls == [(46, *draw) for draw in VERIFY_DRAWS]


def test_seeded_uniform_is_numpy_default_rng_bit_for_bit():
    # one-, two-, three- and four-word seeds; numpy.random is the oracle
    for seed in [*range(3000), 2**32, 2**64 + 3, 10**30]:
        uniform, rng = _seeded_uniform(seed), np.random.default_rng(seed)
        for low, high, size in VERIFY_DRAWS:
            mine, want = uniform(low, high, size), rng.uniform(low, high, size=size)
            assert mine.dtype == want.dtype and mine.shape == want.shape
            assert mine.tobytes() == want.tobytes(), (seed, size)


# the package modules every command loads, and the amplitude layer, which
# only verify and amplitude load
CORE_MODULES = ["cli", "lax_defect", "monodromy", "oscillator_reps", "tensor_core",
                "transmission_matrices"]
AMPLITUDE_LAYER = ["special_functions", "transmission_amplitudes"]


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(defectchain.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.parametrize("argv", [
    ["verify", "--regime", "critical"], ["bae"], ["amplitude", "--grid=0:1:2"],
    ["spectrum", "--sites", "1", "--fock-dim", "3", "--grid=0.5:0.5:1"], [],
], ids=["verify", "bae", "amplitude", "spectrum", "import"])
def test_subcommands_load_no_numpy_random_hashlib_or_dataclasses(argv):
    # a fresh interpreter per subcommand: this one has numpy.random loaded;
    # csv is not loaded either, since the tables are written by template;
    # and of the package, spectrum, bae and the bare import load only
    # CORE_MODULES
    script = ("import contextlib, io, sys\n"
              "from defectchain.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(code, [m for m in ('numpy.random', 'hashlib', 'dataclasses', 'csv')\n"
              "             if m in sys.modules])\n"
              "print(sorted(m.split('.', 1)[1] for m in sys.modules\n"
              "             if m.startswith('defectchain.')))\n")
    env = child_env()
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    want = sorted(CORE_MODULES + (AMPLITUDE_LAYER if argv[:1] in (["verify"], ["amplitude"])
                                  else []))
    assert done.stdout == f"0 []\n{want}\n", done.stderr[-2000:]


@pytest.mark.parametrize("argv", [["bae"], ["amplitude", "--grid=0:1:2"]],
                         ids=["bae", "amplitude"])
def test_entry_point_compiles_the_amplitude_layer_first_where_it_is_read(argv):
    # python -m defectchain imports the amplitude layer before the rest of
    # the package for verify and amplitude (the smaller peak RSS), and not
    # at all for spectrum and bae
    env = child_env()
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "defectchain", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:") and "defectchain." in line]
    if argv[0] == "bae":
        assert not {f"defectchain.{m}" for m in AMPLITUDE_LAYER} & set(loaded), loaded
    else:
        assert loaded.index("defectchain.transmission_amplitudes") < loaded.index(
            "defectchain.monodromy") < loaded.index("defectchain.cli"), loaded


def test_convergence_error_is_the_package_class():
    # cli reports it without importing special_functions, which raises it
    from defectchain import special_functions
    assert special_functions.ConvergenceError is defectchain.ConvergenceError
    assert cli.ConvergenceError is defectchain.ConvergenceError


@pytest.mark.parametrize("argv", [
    ["verify"], ["amplitude", "--grid=0:1:2"],
    ["spectrum", "--sites", "1", "--fock-dim", "3", "--grid=0.5:0.5:1"], ["bae"],
], ids=["verify", "amplitude", "spectrum", "bae"])
def test_every_header_names_the_versions(tmp_path, argv):
    out = tmp_path / "out.jsonl"
    assert run([*argv, "--format", "jsonl", "--out", str(out)]) == 0
    header, _ = read_jsonl(out)
    assert header["command"] == argv[0]
    assert header["version"] == defectchain.__version__
    assert header["numpy"] == np.__version__
    assert header.get("sampler") == ("pcg64" if argv[0] == "verify" else None)


@pytest.mark.parametrize("spin", ["inf", "-inf", "nan"])
def test_non_finite_spin_is_a_one_line_usage_error(capsys, spin):
    # the spin is checked before 2 spin is rounded: no OverflowError
    # traceback for inf, and the message names the spin for nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["amplitude", "--regime", "noncritical", "--family", "type2",
                    f"--spin={spin}", "--grid=0:1:2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: 2*spin must be a positive integer, got {float(spin)}\n"


def test_large_spin_type2_table_is_finite(tmp_path):
    # spin 5000 once printed NaN in every amplitude column with exit 0
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["amplitude", "--regime", "noncritical", "--eta", "0.5", "--family", "type2",
                    "--spin", "5000", "--grid=-4:4:5", "--out", str(out)])
    _, rows = read_csv(out)
    assert code == 0 and len(rows) == 5
    assert all(np.isfinite(float(v)) for row in rows for k, v in row.items() if k != "note")


@pytest.mark.parametrize("command", ["verify", "amplitude", "spectrum", "bae"])
@pytest.mark.parametrize("argv, message", [
    (["--regime", "xxx", "--theta", "nan"], "theta must be finite, got nan"),
    (["--regime", "critical", "--theta", "inf"], "theta must be finite, got inf"),
    (["--regime", "noncritical", "--theta=-inf"], "theta must be finite, got -inf"),
    (["--regime", "noncritical", "--eta", "inf"], "eta must be positive and finite, got inf"),
    (["--regime", "noncritical", "--eta", "nan"], "eta must be positive and finite, got nan"),
])
def test_non_finite_regime_parameters_are_one_line_usage_errors(capsys, command, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_verify_reads_t_only_through_transfer_matrix(monkeypatch):
    # no dense monodromy: rtt reads the charge blocks of T(lam1) and
    # T(lam2) once; commuting-family reads the blocks of t(lam1) and
    # t(lam2), and reference-eigenvalue the charge-0 block of t(0.77), each
    # on the exact sectors only
    assert not hasattr(mono, "build_monodromy")
    calls, sectors = Counter(), []
    for name in ("rtt_residual", "transfer_matrix"):
        def counted(*args, fn=getattr(mono, name), name=name):
            calls[name] += 1
            if name == "transfer_matrix":
                sectors.append([k for k, _ in args[2]])
            return fn(*args)
        monkeypatch.setattr(mono, name, counted)
    cli.run_verify(RegimeParams.xxx(), 8, 7)
    assert calls == {"rtt_residual": 1, "transfer_matrix": 3}
    assert sectors == [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0]]


@pytest.mark.parametrize("params", [RegimeParams.xxx(theta=0.1), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.5, theta=-0.2)],
                         ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_verify_commuting_family_is_the_dense_masked_commutator(params, seed):
    # the record at its printed pair, against the sector-masked commutator
    # of the dense auxiliary traces of the two monodromies
    rec = next(r for r in cli.run_verify(params, 8, seed) if r["name"] == "commuting-family")
    pair = json.loads(rec["params"])
    spec = ChainSpec(n_sites=3, defect_site=2, params=params, rep=defect_rep(params, 6))
    t1, t2 = (dense_transfer(spec, pair[k]) for k in ("lam1", "lam2"))
    want = masked_commutator(t1, t2, sector_mask(spec))
    assert abs(rec["residual"] - want) <= 1e-12 * np.linalg.norm(t1) * np.linalg.norm(t2)
    assert rec["pass"] and rec["subspace"] == "charge sectors" and rec["tolerance"] == 1e-10


@pytest.mark.parametrize("params", [RegimeParams.xxx(theta=0.1), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.5, theta=-0.2)],
                         ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_verify_rtt_is_the_dense_exchange_relation(params, seed):
    # the record at its printed pair, against the relation on the dense
    # monodromy pair with the sector projector, relative to its scale
    rec = next(r for r in cli.run_verify(params, 8, seed) if r["name"] == "rtt")
    pair = json.loads(rec["params"])
    spec = ChainSpec(n_sites=3, defect_site=2, params=params, rep=defect_rep(params, 6))
    l1, l2 = pair["lam1"], pair["lam2"]
    m1, m2 = (dense_monodromy(spec, x) for x in (l1, l2))
    want, scale = exchange_oracle(make_r(params, l1 - l2).entries, m1, m2, sector_mask(spec))
    assert abs(rec["residual"] - want) <= 1e-12 * scale
    assert rec["pass"] and rec["subspace"] == "charge sectors" and rec["tolerance"] == 1e-10


def leaky_make_r(params, lam):
    """The bulk R with one entry that raises the charge."""
    op = make_r(params, lam)
    m = op.entries.copy()
    m[0, 1] = 1e-300
    return type(op)(op.space, m)


def test_verify_charge_leak_is_a_one_line_error(monkeypatch, capsys):
    # charge-conservation's measure reads the leak, and the guard stops
    # verify at its first chain record
    params = RegimeParams.xxx()
    spec = ChainSpec(n_sites=3, defect_site=2, params=params, rep=defect_rep(params, 6))
    assert mono.charge_leak(spec, mono.local_tensors(spec, 0.3)) == 0.0
    monkeypatch.setattr(mono, "make_r", leaky_make_r)
    assert mono.charge_leak(spec, mono.local_tensors(spec, 0.3)) > 0
    code = run(["verify"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the transfer matrix leaks charge at lam = ")
    assert captured.err.count("\n") == 1


def test_verify_noncritical_checks_the_type2_algebra(tmp_path):
    out = tmp_path / "v.jsonl"
    assert run(["verify", "--regime", "noncritical", "--eta", "0.5", "--out", str(out)]) == 0
    _, records = read_jsonl(out)
    by_name = {r["name"]: r for r in records}
    rec, pair = by_name["rttb[type2]"], json.loads(by_name["rttb[t]"]["params"])
    assert rec["pass"] and rec["tolerance"] == 1e-9
    assert json.loads(rec["params"]) == {"lam1": pair["lam1"], "lam2": pair["lam2"],
                                         "spin": 1.0}
    out_xxx = tmp_path / "x.jsonl"
    run(["verify", "--regime", "xxx", "--out", str(out_xxx)])
    assert "rttb[type2]" not in {r["name"] for r in read_jsonl(out_xxx)[1]}


@pytest.mark.parametrize("args", [
    ["--regime", "xxx"],
    ["--regime", "critical", "--mu", "0.7"],
    ["--regime", "noncritical", "--eta", "0.4", "--theta", "0.2"],
], ids=["xxx", "crit", "nc"])
def test_verify_params_are_json_numbers(tmp_path, args):
    out = tmp_path / "v.jsonl"
    run(["verify", *args, "--out", str(out)])
    _, records = read_jsonl(out)
    seen = 0
    for rec in records:
        for key, value in json.loads(rec["params"]).items():
            seen += 1
            if key == "route":
                assert value in ("integral", "sum")
            elif isinstance(value, list):
                assert len(value) == 2 and all(isinstance(v, (int, float)) for v in value)
            else:
                assert isinstance(value, (int, float)) and not isinstance(value, bool), (key, value)
    assert seen > 10


@pytest.mark.parametrize("command", ["amplitude", "verify"])
def test_convergence_failure_is_a_one_line_error(capsys, command):
    # q = e^{-4 eta} that close to 1 needs ~7e6 q-Gamma factors, past the cap;
    # the cap is checked before any factor is built
    code = run([command, "--regime", "noncritical", "--eta", "1e-6"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "terms" in err


@pytest.mark.parametrize("argv", [
    ["--regime", "xxx", "--family", "breather"],
    ["--regime", "noncritical", "--family", "breather"],
    ["--regime", "noncritical", "--family", "type2", "--spin", "0.3"],
    ["--regime", "xxx", "--family", "type2"],
    # breathers exist for mu < pi/2 only; at mu = 2.9 the quadrature route's
    # exponent overflows, and from mu = pi/2 on there is no breather to tabulate
    ["--regime", "critical", "--mu", "2.9", "--family", "breather", "--breather-n", "1"],
    ["--regime", "critical", "--mu", "1.5708", "--family", "breather", "--breather-n", "2"],
], ids=["xxx-breather", "nc-breather", "type2-bad-spin", "xxx-type2", "repulsive-breather",
        "boundary-breather"])
def test_amplitude_family_outside_its_domain_is_a_usage_error(capsys, argv):
    # no table of NaN rows: one plain error line and exit 2
    code = run(["amplitude", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "NoneType" not in captured.err


# theta on a 0.1 grid over [-0.5, 0.5] plus the 0.06 probe; the Newton search
# this replaced warned or failed at theta = 0.06 and -0.4 for mu = 0.7
BAE_THETAS = [k / 10 for k in range(-5, 6)] + [0.06]


@pytest.mark.parametrize("regime, flag", [("critical", "--mu"), ("noncritical", "--eta")],
                         ids=["crit", "nc"])
@pytest.mark.parametrize("anisotropy", [0.3, 0.7, 2.5])
def test_bae_exact_root_over_theta_without_warnings(tmp_path, regime, flag, anisotropy):
    out = tmp_path / "bae.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in BAE_THETAS:
            argv = ["bae", "--regime", regime, flag, str(anisotropy), "--theta", str(theta)]
            assert run(argv + ["--out", str(out)]) == 0, argv
            _, rows = read_csv(out)
            assert len(rows) == 2
            assert all(float(r["residual"]) <= 1e-10 for r in rows), (argv, rows)


def test_verify_critical_off_zero_theta_without_warnings(tmp_path):
    out = tmp_path / "v.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["verify", "--regime", "critical", "--mu", "0.7", "--theta", "0.2",
                    "--out", str(out)])
    assert code == 0
    _, records = read_jsonl(out)
    bae = [r for r in records if r["name"].startswith("bae-residual")]
    assert len(bae) == 2 and all(r["pass"] and r["residual"] <= 1e-10 for r in bae)


def test_spectrum_overflowing_exponent_is_a_one_line_error(capsys):
    # mu lam = 900 overflows e^(mu lam); one error line, no RuntimeWarning,
    # also with warnings raised as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["spectrum", "--regime", "critical", "--mu", "3", "--sites", "2",
                    "--grid=300:300:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflows" in captured.err


def test_spectrum_overflowing_chain_product_is_a_one_line_error(capsys):
    # mu lam = 300 is in range at each site, but three sites multiply to e^900
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["spectrum", "--regime", "critical", "--mu", "3", "--sites", "2",
                    "--grid=100:100:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the monodromy of 3 sites overflows at lam = 100.0: "
                            "each site's entries are finite, their product is not\n")


def test_spectrum_reference_check_near_overflow(tmp_path):
    # two sites at mu lam = 300: t(lam) and its eigenvalues reach ~1e260, whose
    # squares overflow; the scaled reference residual stays finite and small
    out = tmp_path / "spec.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["spectrum", "--regime", "critical", "--mu", "3", "--sites", "1",
                    "--grid=100:100:1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert rows and max(abs(float(r["re_eig"])) for r in rows) > 1e250
    assert all(float(r["reference_check"]) < 1e-10 for r in rows)


def test_spectrum_charge_leak_is_a_one_line_error_naming_lam(monkeypatch, capsys):
    # a bulk R with one entry that raises the charge: the blocks would miss
    # it, so the local check stops the command at the first grid point
    monkeypatch.setattr(mono, "make_r", leaky_make_r)
    code = run(["spectrum", "--sites", "2", "--fock-dim", "4", "--grid=0.25:1:2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: the transfer matrix leaks charge at lam = 0.25: ")
    assert captured.err.count("\n") == 1


def test_spectrum_commutator_past_the_float_range_is_a_one_line_error(capsys):
    # t(99) and t(100) reach ~1e258 and ~1e260: the scaled block products
    # are finite, the commutator's roundoff alone is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["spectrum", "--regime", "critical", "--mu", "3", "--sites", "1",
                    "--grid=99:100:2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: the commutator check at lam = 100.0 ")
    assert captured.err.count("\n") == 1


def dense_spectrum_rows(spec, grid):
    """The spectrum rows by the dense route: sectors from the charge vector,
    the reference check as a mat-vec with the reference state, and the
    sector-masked commutator of the whole transfer matrices."""
    q = charge_vector(spec)
    keep = sector_mask(spec)
    vec = reference_state(spec)
    rows, first = [], None
    for lam in grid:
        t = dense_transfer(spec, lam)
        ev = reference_eigenvalue(spec, lam)
        scale = 2.0 ** -np.frexp(max(abs(ev), 1e-30))[1]
        ref = float(np.linalg.norm((t @ vec - ev * vec) * scale) / (abs(ev) * scale))
        first = t if first is None else first
        comm = masked_commutator(t, first, keep)
        for sector in sorted(set(int(x) for x in q)):
            idx = np.flatnonzero(q == sector)
            for z in sorted(np.linalg.eigvals(t[np.ix_(idx, idx)]).tolist(),
                            key=lambda z: (round(z.real, 10), round(z.imag, 10))):
                rows.append({"lam": float(lam), "sector": sector, "re_eig": z.real,
                             "im_eig": z.imag, "reference_check": ref,
                             "commutator_check": comm, "exact": int(keep[idx[0]])})
    return rows


@pytest.mark.parametrize("regime, anisotropy, params", [
    ("xxx", [], RegimeParams.xxx(theta=0.1)),
    ("critical", ["--mu", "0.7"], RegimeParams.critical(0.7, theta=0.1)),
    ("noncritical", ["--eta", "0.5"], RegimeParams.noncritical(0.5, theta=0.1)),
], ids=["xxx", "crit", "nc"])
def test_spectrum_rows_equal_the_dense_route(tmp_path, regime, anisotropy, params):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--regime", regime, *anisotropy, "--theta", "0.1",
                "--sites", "3", "--defect-site", "2", "--fock-dim", "5",
                "--grid=-1.2:0.9:3", "--out", str(out)]) == 0
    spec = ChainSpec(n_sites=3, defect_site=2, params=params, rep=defect_rep(params, 5))
    header, rows = read_csv(out)
    want_text = per_cell_csv(dense_spectrum_rows(spec, np.linspace(-1.2, 0.9, 3)), header)
    want = list(csv.DictReader(want_text.splitlines()[1:]))
    assert len(rows) == len(want) == 3 * spec.chain_dim

    def scale(lam):
        return max(abs(complex(float(r["re_eig"]), float(r["im_eig"])))
                   for r in want if r["lam"] == lam)

    first = want[0]["lam"]
    for got, row in zip(rows, want):
        comm = (got.pop("commutator_check"), row.pop("commutator_check"))
        assert got == row
        assert abs(float(comm[0]) - float(comm[1])) <= 1e-12 * scale(row["lam"]) * scale(first)


def test_spectrum_jsonl_and_out_carry_the_csv_values(tmp_path):
    argv = ["spectrum", "--regime", "noncritical", "--eta", "0.5", "--sites", "2",
            "--fock-dim", "4", "--grid=-0.5:0.5:2"]
    assert run([*argv, "--out", str(tmp_path / "s.csv")]) == 0
    assert run([*argv, "--format", "jsonl", "--out", str(tmp_path / "s.jsonl")]) == 0
    csv_header, rows = read_csv(tmp_path / "s.csv")
    header, records = read_jsonl(tmp_path / "s.jsonl")
    assert header == csv_header
    assert len(records) == len(rows) == 2 * 16
    for rec, row in zip(records, rows):
        assert set(rec) == set(row)
        assert isinstance(rec["sector"], int) and isinstance(rec["exact"], int)
        assert {k: _fmt_cell(v) for k, v in rec.items()} == row


# ------------------------------------------------------------ table writer

def per_cell_csv(records, header):
    """csv.writer fed one _fmt_cell per cell, a lone "\\r" quoted as well:
    csv.writer quotes the characters of its line terminator, so each row is
    written with "\\r\\n" and ended with "\\n" instead."""
    stream = io.StringIO()
    stream.write("# " + json.dumps(header, sort_keys=True) + "\n")
    cols = list(records[0].keys())
    for row in [cols] + [[_fmt_cell(rec[c]) for c in cols] for rec in records]:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        stream.write(line.getvalue()[:-2] + "\n")
    return stream.getvalue()


def mixed_records():
    nan = float("nan")
    params = [json.dumps({"lam1": 0.25, "route": "sum"}, sort_keys=True),
              json.dumps({"pairs": 6, "seed": 7}), 'say "hi", twice', ""]
    return [
        {"py_float": x, "np_float": np.float64(y), "mixed_float": m, "int": i, "flag": b,
         "np_int": np.int64(i), "int_or_float": iof, "complex": z, "params": p, "note": note}
        for x, y, m, i, b, iof, z, p, note in zip(
            [0.1, -0.0, nan, 1e300],
            [np.pi, -2.5e-17, np.nan, -np.inf],
            [1.5, np.float64(-3.25), nan, np.float64(7.0)],
            [0, -3, 12, 2 ** 40],
            [True, False, True, False],
            [1, 2.5, 3, nan],
            [1 + 2j, np.complex128(-0.5j), complex(nan, nan), 0j],
            params,
            ["", "pole:lam_hat = 0.5, at a breather pole", "", 'pole:"x"'])
    ]


def columns(records):
    return {k: [rec[k] for rec in records] for k in records[0]}


def test_write_records_csv_matches_per_cell_writer(tmp_path):
    records = mixed_records()
    header = {"command": "test", "grid": "-2.0:2.0:4"}
    out = tmp_path / "t.csv"
    _write_records([columns(records)], "csv", str(out), header)
    assert out.read_text() == per_cell_csv(records, header)


def test_write_records_jsonl_unchanged(tmp_path):
    records = [{k: v for k, v in rec.items() if k not in ("np_int", "complex")}
               for rec in mixed_records()]
    header = {"command": "test"}
    out = tmp_path / "t.jsonl"
    _write_records([columns(records)], "jsonl", str(out), header)
    expected = [json.dumps({"header": header}, sort_keys=True)]
    expected += [json.dumps(rec, sort_keys=True) for rec in records]
    assert out.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_write_records_repeated_cells_and_several_tables(tmp_path, fmt):
    # a lone cell repeats over its table's rows, and tables follow one
    # another: the rows, written cell by cell
    records = [{k: v for k, v in rec.items() if k not in ("np_int", "complex")}
               for rec in mixed_records()]
    tables = [columns(records[:1]), columns(records[1:])]
    tables[0] = {k: v[0] if k in ("py_float", "int", "note") else v
                 for k, v in tables[0].items()}
    header = {"command": "test"}
    out = tmp_path / "t.out"
    _write_records(tables, fmt, str(out), header)
    if fmt == "csv":
        assert out.read_text() == per_cell_csv(records, header)
    else:
        expected = [json.dumps({"header": header}, sort_keys=True)]
        expected += [json.dumps(rec, sort_keys=True) for rec in records]
        assert out.read_text() == "\n".join(expected) + "\n"


# csv-special text: quoting, quote doubling, `%` in a row template, and a
# lone carriage return, which csv.reader reads as a line end unless quoted
TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", "%", "s", "d", " ", "é"]),
               max_size=5)
CELLS = {
    "float": st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]),
    "np_float": st.floats().map(np.float64),
    "int": st.integers(-2 ** 70, 2 ** 70),
    "np_int": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "bool": st.booleans(),
    "complex": st.complex_numbers(),
    "text": TEXT,
}
ARRAY_DTYPES = {"float": float, "np_float": float, "np_int": np.int64, "bool": bool,
                "complex": complex}


@st.composite
def tables_and_records(draw):
    """Tables of list, array and repeated columns (several tables, one set
    of names) and their rows as records, arrays read through tolist()."""
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([*CELLS, "mixed"])) for _ in names]
    tables, records = [], []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(1, 7))
        table = {}
        for name, kind in zip(names, kinds):
            cell = st.one_of(*CELLS.values()) if kind == "mixed" else CELLS[kind]
            shape = draw(st.sampled_from(["list", "array", "repeated"]))
            if shape == "repeated":
                table[name] = draw(cell)
            else:
                table[name] = draw(st.lists(cell, min_size=rows, max_size=rows))
                if shape == "array" and kind in ARRAY_DTYPES:
                    table[name] = np.array(table[name], dtype=ARRAY_DTYPES[kind])
        if all(not isinstance(v, (list, np.ndarray)) for v in table.values()):
            table[names[0]] = [table[names[0]]] * rows
        tables.append(table)
        cols = [v.tolist() if isinstance(v, np.ndarray) else v if isinstance(v, list)
                else [v] * rows for v in table.values()]
        records += [dict(zip(names, row)) for row in zip(*cols)]
    return tables, records


@given(tables_and_records(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_write_records_csv_is_the_per_cell_writer(tables_records, block_rows):
    # any table, cut into blocks of any size, reads as csv.writer writes
    # the _fmt_cell of every cell, and csv.reader reads every row back, a
    # cell holding "\r" included; JSON lines as json.dumps writes each row
    tables, records = tables_records
    header = {"command": "test", "grid": "0:1:2"}
    saved = cli._BLOCK_ROWS
    cli._BLOCK_ROWS = block_rows
    try:
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            _write_records(tables, "csv", None, header)
        assert got.getvalue() == per_cell_csv(records, header)
        body = got.getvalue().split("\n", 1)[1]
        cols = list(records[0])
        assert list(csv.reader(io.StringIO(body, newline=""))) == \
            [cols] + [[_fmt_cell(rec[c]) for c in cols] for rec in records]
        try:
            want = [json.dumps({"header": header}, sort_keys=True)]
            want += [json.dumps(rec, sort_keys=True) for rec in records]
        except TypeError:       # complex and np.int64 cells are not JSON
            return
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            _write_records(tables, "jsonl", None, header)
        assert got.getvalue() == "\n".join(want) + "\n"
    finally:
        cli._BLOCK_ROWS = saved


@pytest.mark.parametrize("argv", [
    ["verify", "--regime", "xxx"], ["amplitude", "--grid=0:1:2"],
    ["spectrum", "--sites", "1", "--fock-dim", "3", "--grid=0.5:0.5:1"], ["bae"],
], ids=["verify", "amplitude", "spectrum", "bae"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_out_that_cannot_be_opened_is_a_one_line_usage_error(tmp_path, capsys, argv, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {out}: ")
    assert captured.err.count("\n") == 1


def test_a_failing_stdout_is_not_an_out_error(monkeypatch):
    # only opening --out maps to the error line; a write that fails, as on
    # a closed pipe, propagates
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["bae"])


def test_large_amplitude_table_is_written_in_bounded_memory():
    # 100000 rows: the whole table as Python lists and its text peaked at
    # 146 MB (x86-64, numpy 2.4); block by block it peaks near 60 MB
    script = ("import resource, sys\n"
              "from defectchain.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
    src = str(Path(defectchain.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script, "amplitude", "--regime", "xxx",
                           "--grid=-2:2:100000"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=600)
    code, max_rss_kb = done.stderr.split()[-2:]
    assert code == "0", done.stderr[-2000:]
    assert int(max_rss_kb) < 100 * 1024


# ------------------------------------------------------------ spectrum order

def builtin_order(evs, sizes):
    """Each sector sorted as the spectrum rows always were."""
    out, start = [], 0
    for n in sizes:
        out += sorted(evs[start:start + n].tolist(),
                      key=lambda z: (round(z.real, 10), round(z.imag, 10)))
        start += n
    return np.array(out, dtype=complex)


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def test_sector_order_where_numpy_round_is_not_the_builtin():
    # parts v near a half-way point (k + 1/2) 1e-10, and past 2**49 1e-10,
    # where np.round(v, 10) (rint(1e10 v) / 1e10) is not round(v, 10): next
    # to round(v, 10) itself, with the imaginary parts set so that the two
    # keys order the pair differently, _sector_order keeps the builtin order
    k = np.arange(10 ** 8, 10 ** 8 + 400)
    parts = np.concatenate([(k + 0.5) * 1e-10, -(k + 0.5) * 1e-10,
                            [-124874.88903344155, 186075.24641720066, 28701.66275975515]])
    parts = parts[np.round(parts, 10) != [round(v, 10) for v in parts.tolist()]]
    assert len(parts) >= 50
    for v in parts.tolist():
        im = 1.0 if np.round([v], 10)[0] < round(v, 10) else -1.0
        evs = np.array([complex(v, im), complex(round(v, 10), 0.0)])
        numpy_keys = np.round(evs.view(float), 10).reshape(-1, 2).tolist()
        want = builtin_order(evs, [2])
        assert not same_bits(evs[sorted(range(2), key=numpy_keys.__getitem__)], want)
        assert same_bits(evs[_sector_order(evs, [2])], want)


def near_tie_parts():
    half_way = st.integers(-10 ** 12, 10 ** 12).map(lambda k: (k + 0.5) * 1e-10)
    return st.one_of(
        st.tuples(half_way, st.integers(-3, 3)).map(lambda p: p[0] + p[1] * np.spacing(p[0])),
        st.integers(-10 ** 12, 10 ** 12).map(lambda k: k * 1e-10),
        st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
        st.sampled_from([0.0, -0.0, 5e-324, float("inf"), -float("inf"), float("nan")]))


@given(st.lists(near_tie_parts(), min_size=1, max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_sector_order_is_sorted_by_builtin_round(pool, data):
    # few distinct parts, a few ulps apart, give many ties and near-ties
    parts = st.sampled_from(pool).flatmap(
        lambda v: st.integers(-1, 1).map(lambda j: v + j * np.spacing(v) if np.isfinite(v) else v))
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    evs = np.array([complex(data.draw(parts), data.draw(parts)) for _ in range(sum(sizes))])
    assert same_bits(evs[_sector_order(evs, sizes)], builtin_order(evs, sizes))


# ------------------------------------------------------------ parser reuse

def test_reused_parser_leaks_nothing(capsys, monkeypatch):
    argvs = [["amplitude", "--regime", "bogus"], ["--help"],
             ["amplitude", "--family", "breather", "--regime", "critical"],
             ["amplitude"]]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_PARSER", None)
        code = main(argv)
        fresh.append((code, capsys.readouterr().out))
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = []
    for argv in argvs:
        code = main(argv)
        reused.append((code, capsys.readouterr().out))
    assert [code for code, _ in reused] == [2, 0, 0, 0]
    assert reused == fresh
    header = json.loads(reused[-1][1].splitlines()[0][2:])
    assert header["family"] == "type1"
