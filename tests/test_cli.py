import argparse
import contextlib
import csv
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import defectchain
from defectchain import cli
from defectchain import monodromy as mono
from defectchain import special_functions as sf
from defectchain import transmission_amplitudes as ta
from defectchain import transmission_matrices as tmat
from defectchain.cli import _fmt_cell, _sector_order, _write_records, main
from defectchain.lax_defect import (NONCRITICAL, RegimeParams, defect_rep, make_l,
                                   make_r, s_matrix_part)
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

# verify's draws: (low, high, count) in its draw order, the first six pairs
# row-major, then the rtt pair, then the rttb pair
VERIFY_DRAWS = [(-1.5, 1.5, 12), (-1.0, 1.0, 2), (-1.2, 1.2, 2)]


def verify_draws(seed):
    """verify's sample points at a seed, one list per draw, as low + (high -
    low) r from the stdlib generator's stream r."""
    stream = random.Random(seed).random
    return [[low + (high - low) * stream() for _ in range(n)] for low, high, n in VERIFY_DRAWS]


def per_point_records(params, fock_dim, seed, log):
    """The records `run_verify` evaluates on sample grids, rebuilt one sample
    point at a time from scalar calls: the suite's sample points, counts and
    gates, with every amplitude and every exchange relation taken alone."""
    amp, breather, s_amp, exchange = (log.wrap(fn) for fn in SAMPLED[:4])
    rep = defect_rep(params, fock_dim)
    pairs = np.reshape(verify_draws(seed)[0], (6, 2))
    out = []

    def add(name, residuals, tol, params=None, subspace="full"):
        residual = float(max(residuals))
        out.append({"name": name, "params": json.dumps(params or {}, sort_keys=True),
                    "residual": residual, "tolerance": tol, "pass": residual < tol,
                    "subspace": subspace})

    def ybe(f):
        return [exchange(f(l1 - l2), f(l1), f(l2))[0] for l1, l2 in pairs]

    sample = {"pairs": len(pairs), "seed": seed}
    add("ybe-r", ybe(lambda x: make_r(params, x)), 1e-10, params=sample)
    # S_s(l1 - l2) S_s(l1) S_s(l2) stands on both sides: the matrix part alone
    add("ybe-s", ybe(lambda x: s_matrix_part(params, x)), 1e-10, params=sample)
    add("rll", [exchange(make_r(params, l1 - l2), make_l(params, l1, rep),
                         make_l(params, l2, rep), keep=rep.interior())[0]
                for l1, l2 in pairs[:3]], 1e-11, subspace="interior")

    lam_grid = np.linspace(-1.6, 1.6, 5)
    second, tol = ("sum", 1e-8) if params.regime == NONCRITICAL else ("integral", 1e-6)
    closed = {sign: [amp(params, sign, x).value for x in lam_grid] for sign in ("+", "-")}
    for sign in ("+", "-"):
        add(f"amplitude-cross-route[{sign}]",
            [abs(t - amp(params, sign, x, second).value) for t, x in zip(closed[sign], lam_grid)],
            tol, params={"route": second})
    # the suite takes the closed pair on the mirror grid too, in the call
    # that serves the cross-route records, and reads T+ off it
    mirror = {sign: [amp(params, sign, -x).value for x in lam_grid] for sign in "+-"}
    add("amplitude-unitarity", [abs(t * tp - 1.0) for t, tp in zip(closed["-"], mirror["+"])],
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
    monkeypatch.setattr(ta, "amplitude_pair", theirs.wrap(amplitude_pair))
    tmat.unitarity_crossing_residual(params, 0.44, tmat.default_rep(params, 6))
    # the oracle's one-sign calls count as one sign, not as the pair each reads
    monkeypatch.setattr(ta, "amplitude_pair", amplitude_pair)
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
    spec = ChainSpec(n_sites=2, params=RegimeParams.xxx(), rep=defect_rep(RegimeParams.xxx(), 4))
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
    (["--sites", "4", "--fock-dim", "2048"],
     "error: chain dimension 32768 exceeds resource bound 4096\n"),
], ids=["sites-1e9", "sites-13", "dim-32768"])
def test_spectrum_oversize_is_rejected_before_any_representation(monkeypatch, capsys, argv,
                                                                  message):
    # --sites is bounded while parsing and 2^N D before the representation:
    # no 2048-level representation, and no 2^(10^9) to format
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


BREATHER = ["amplitude", "--regime", "critical", "--mu", "0.7", "--family", "breather"]


@pytest.mark.parametrize("n, count", [(1_000_000, 3), (1001, 1), (1000, 2001), (3, 1_000_000)])
def test_breather_table_past_its_bounds_is_a_usage_error(monkeypatch, capsys, n, count):
    # n <= 1000 and n x points <= 2000000, checked before the grid or any
    # factor is built: n = 1000000 on 3 points ran past 15 s
    def unreachable(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(cli.np, "linspace", unreachable)
    monkeypatch.setattr(ta, "breather_amplitude", unreachable)
    assert run(BREATHER + ["--breather-n", str(n), f"--grid=0:1:{count}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: --breather-n {n} on a {count}-point grid: the fusion product takes n factors "
        "at every point; keep n <= 1000 and n x points <= 2000000\n")


@pytest.mark.parametrize("n, count", [(1000, 2000), (1000, 1)])
def test_breather_table_at_its_bounds_runs(tmp_path, n, count):
    out = tmp_path / "breather.csv"
    argv = BREATHER + ["--breather-n", str(n), f"--grid=-4:4:{count}", "--out", str(out)]
    assert run(argv) == 0
    assert len(read_csv(out)[1]) == count


@pytest.mark.parametrize("argv, message", [
    (["verify", "--fock-dim", "100000"], "must be <= 256, got 100000"),
    (["verify", "--fock-dim", "2048"], "must be <= 256, got 2048"),
    (["verify", "--fock-dim=257"], "must be <= 256, got 257"),
    (["spectrum", "--sites", "0", "--fock-dim", "5000"], "must be <= 2048, got 5000"),
    (["spectrum", "--sites", "0", "--fock-dim", "100000"], "must be <= 2048, got 100000"),
    # within the chain-dimension bound, but about 11 s and 3.4 GB at N = 0
    (["spectrum", "--sites", "0", "--fock-dim", "4096"], "must be <= 2048, got 4096"),
    (["spectrum", "--sites", "3", "--fock-dim", "4096"], "must be <= 2048, got 4096"),
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
                                          ("spectrum", cli.MAX_SPECTRUM_FOCK_DIM)])
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


def test_verify_draws_its_points_in_order(monkeypatch):
    # one generator at the seed, sixteen draws, the first twelve the
    # Yang-Baxter pairs row by row: make_r takes them as its A1 and A2
    # columns (the next test reads the rtt and rttb pairs)
    pairs = verify_draws(46)[0]
    seeds, draws = [], []

    class Logged(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

        def random(self):
            draws.append(super().random())
            return draws[-1]

    made = []
    monkeypatch.setattr(random, "Random", Logged)
    monkeypatch.setattr(cli, "make_r", lambda params, lam: made.append(lam) or make_r(params, lam))
    cli.run_verify(RegimeParams.xxx(), 8, 46)
    assert seeds == [46] and len(draws) == sum(n for _, _, n in VERIFY_DRAWS)
    assert made[1].tolist() == pairs[0::2] and made[2].tolist() == pairs[1::2]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_verify_samples_are_the_stdlib_stream_bit_for_bit(seed):
    # the lams verify reports are low + (high - low) random.Random(seed).random()
    # in draw order, to the last bit (JSON writes a float's shortest repr)
    _, rtt, rttb = verify_draws(seed)
    records = {r["name"]: json.loads(r["params"])
               for r in cli.run_verify(RegimeParams.noncritical(0.5), 8, seed)}
    for name, want in (("rtt", rtt), ("rttb[t]", rttb)):
        assert [records[name][k] for k in ("lam1", "lam2")] == want, (seed, name)


def test_verify_takes_the_closed_s_amplitude_on_the_cross_route_points_only(monkeypatch):
    # S_s cancels from Yang-Baxter, so its closed form is evaluated once, on
    # the three s-amplitude-cross-route points
    calls = []

    def logged(params, lam, route="closed"):
        calls.append((route, np.ravel(lam).tolist()))
        return soliton_s_amplitude(params, lam, route)

    monkeypatch.setattr(ta, "soliton_s_amplitude", logged)
    points = np.linspace(-1.6, 1.6, 5)[:3].tolist()
    for params in (RegimeParams.xxx(), RegimeParams.critical(0.7), RegimeParams.noncritical(0.5)):
        calls.clear()
        cli.run_verify(params, 8, 7)
        assert [call for call in calls if call[0] == "closed"] == [("closed", points)]


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


@pytest.mark.parametrize("argv, code", [
    (["verify", "--regime", "critical"], 0), (["verify", "--tol", "0"], 1),
    (["amplitude", "--regime", "noncritical", "--grid=-1:1:5", "--out"], 0),
    (["spectrum", "--sites", "1", "--fock-dim", "3", "--grid=0.2:0.5:2"], 0),
    (["bae", "--regime", "critical", "--theta", "0.1"], 0), (["spectrum", "--grid=0:1"], 2),
], ids=["verify", "verify-tol-0", "amplitude-out", "spectrum", "bae", "usage"])
def test_entry_point_writes_what_cli_main_writes(tmp_path, capsys, argv, code):
    # python -m defectchain freezes the heap once main has returned, so the
    # interpreter's last collections skip it: every byte is written by then
    def with_out(name):
        return [*argv, str(tmp_path / name)] if argv[-1] == "--out" else argv

    assert main(with_out("main.csv")) == code
    want = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "defectchain", *with_out("child.csv")],
                          capture_output=True, env=child_env(), timeout=300)
    assert done.returncode == code, done.stderr[-2000:]
    assert (done.stdout.decode(), done.stderr.decode()) == (want.out, want.err)
    if argv[-1] == "--out":
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("argv, code", [(["bae"], 0), (["bae", "--tol", "0"], 1),
                                        (["bae", "--grid=0:1:2"], 2)],
                         ids=["pass", "fail", "usage"])
def test_entry_point_freezes_the_heap_after_main(argv, code):
    script = ("import contextlib, gc, io, runpy, sys\n"
              "sys.argv = ['defectchain', *sys.argv[1:]]\n"
              "before = gc.get_freeze_count()\n"
              "with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "        contextlib.redirect_stderr(io.StringIO()):\n"
              "    try:\n"
              "        runpy.run_module('defectchain', run_name='__main__')\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              "print(before, code, gc.get_freeze_count() > 0)\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert done.stdout == f"0 {code} True\n", done.stderr[-2000:]


@pytest.mark.parametrize("argv, code", [(["bae"], 0), (["bae", "--tol", "0"], 1),
                                        (["bae", "--grid=0:1:2"], 2)],
                         ids=["pass", "fail", "usage"])
def test_installed_script_freezes_the_heap_after_main(argv, code):
    # the [project.scripts] entry point, called as the console script calls
    # it, freezes the heap once main has returned, as python -m does
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, func = re.search(r'^defectchain = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = ("import contextlib, gc, importlib, io, sys\n"
              "sys.argv = ['defectchain', *sys.argv[1:]]\n"
              f"entry = importlib.import_module({module!r}).{func}\n"
              "before = gc.get_freeze_count()\n"
              "with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "        contextlib.redirect_stderr(io.StringIO()):\n"
              "    code = entry()\n"
              "print(before, code, gc.get_freeze_count() > 0)\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert done.stdout == f"0 {code} True\n", done.stderr[-2000:]


def test_the_package_leaves_the_collector_alone():
    # importing the package and calling cli.main, as library callers and
    # the benchmark's warm worker do, freezes nothing and disables nothing
    script = ("import contextlib, gc, io\n"
              "import defectchain.cli\n"
              "print(gc.get_freeze_count(), gc.isenabled())\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = defectchain.cli.main(['verify'])\n"
              "print(code, gc.get_freeze_count(), gc.isenabled())\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert done.stdout == "0 True\n0 0 True\n", done.stderr[-2000:]


def test_convergence_error_is_the_package_class():
    # cli reports it without importing special_functions, which raises it
    from defectchain import special_functions
    assert special_functions.ConvergenceError is defectchain.ConvergenceError
    assert cli.ConvergenceError is defectchain.ConvergenceError


@pytest.mark.parametrize("regime, anisotropy", [
    (["--regime", "xxx"], {}), (["--regime", "critical", "--mu", "0.9"], {"mu": 0.9}),
    (["--regime", "noncritical", "--eta", "0.6"], {"eta": 0.6}),
], ids=["xxx", "critical", "noncritical"])
@pytest.mark.parametrize("argv", [
    ["verify"], ["amplitude", "--grid=0:1:2"],
    ["spectrum", "--sites", "1", "--fock-dim", "3", "--grid=0.5:0.5:1"], ["bae"],
], ids=["verify", "amplitude", "spectrum", "bae"])
def test_every_header_names_the_versions(tmp_path, argv, regime, anisotropy):
    # and the regime's anisotropy, so that a table can be made again from it
    out = tmp_path / "out.jsonl"
    assert run([*argv, *regime, "--format", "jsonl", "--out", str(out)]) == 0
    header, _ = read_jsonl(out)
    assert header["command"] == argv[0]
    assert header["version"] == defectchain.__version__
    assert header["numpy"] == np.__version__
    assert header.get("sampler") == ("mt19937" if argv[0] == "verify" else None)
    assert {k: header[k] for k in ("mu", "eta") if k in header} == anisotropy


@pytest.mark.parametrize("mu", [np.pi / 3, 2 * np.pi / 3, np.pi / 4, np.pi / 8, 1e-10],
                         ids=["pi_3", "2pi_3", "pi_4", "pi_8", "1e-10"])
@pytest.mark.parametrize("argv", [
    ["verify"], ["spectrum", "--sites", "2", "--grid=-1:1:3"], ["amplitude", "--grid=-1:1:3"],
], ids=["verify", "spectrum", "amplitude"])
def test_a_root_of_unity_q_is_an_ordinary_input(capsys, argv, mu):
    # a q = e^{i mu} of low order is an ordinary input: nothing warns (a
    # traceback under -W error), and a run ends in an exit code, with one
    # error line if that is 2 (at mu = 1e-10 verify and amplitude pass the caps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--regime", "critical", f"--mu={mu!r}"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


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


def test_mode_sum_error_bound_at_a_huge_grid_end_does_not_overflow(capsys):
    # the rounding charge squared the phase freq * max|lam|, which
    # overflowed once the phase passed about 1.3e154: a RuntimeWarning,
    # and a traceback under -W error; half the phase is clipped first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["amplitude", "--regime", "noncritical", "--eta", "0.5",
                    "--grid=-1e300:1e300:3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert len(captured.out.splitlines()) == 5      # header, column names, 3 rows


def test_gamma_ratio_at_a_huge_grid_end_does_not_overflow(capsys):
    # the xxx Gamma ratios squared Im z, which overflowed past |lam_hat| ~
    # 2.7e154: a RuntimeWarning, a traceback under -W error; the half-line
    # rule then refuses the grid in one short line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["amplitude", "--regime", "xxx", "--grid=-1e300:1e300:3"])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: the half-line rule needs 1.26e+302 nodes at max|lam_hat| = 1e+300 and "
        "decay rate 0.5, cap is 400000\n")


@pytest.mark.parametrize("argv", [
    ["--regime", "xxx", "--grid=-1e300:1e300:3"],
    ["--regime", "critical", "--mu", "0.7", "--grid=1e200:1e200:1"],
    ["--regime", "critical", "--mu", "0.7", "--grid=1.7e308:1.7e308:1"],
    ["--regime", "noncritical", "--eta", "1e-6"],
    ["--regime", "noncritical", "--eta", "1e-300", "--grid=1:1:1"]],
    ids=["xxx-1e300", "crit-1e200", "crit-1.7e308", "nc-1e-6", "nc-1e-300"])
def test_size_errors_are_one_short_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["amplitude", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200, err


def test_counts_past_1e6_print_in_three_digits():
    assert sf._count(10 ** 6) == "1000000" and sf._count(4.1e5) == "410000"
    assert sf._count(np.int64(1234567)) == "1.23e+06" and sf._count(10 ** 300) == "1e+300"
    assert sf._count(float("inf")) == "inf"


@pytest.mark.parametrize("command", ["verify", "amplitude", "spectrum", "bae"])
@pytest.mark.parametrize("argv, message", [
    (["--regime", "xxx", "--theta", "nan"], "theta must be finite, got nan"),
    (["--regime", "critical", "--theta", "inf"], "theta must be finite, got inf"),
    (["--regime", "noncritical", "--theta=-inf"], "theta must be finite, got -inf"),
    (["--regime", "noncritical", "--eta", "inf"], "eta must be positive and finite, got inf"),
    (["--regime", "noncritical", "--eta", "nan"], "eta must be positive and finite, got nan"),
    # q = e^(-eta) rounds to 1: an all-zero spectrum and Bethe roots near
    # 1e300 came out, after a warning from the q-oscillator
    (["--regime", "noncritical", "--eta", "1e-300"],
     "eta must put q = e^(-eta) more than 1e-12 below 1, got 1e-300"),
])
def test_non_finite_regime_parameters_are_one_line_usage_errors(capsys, command, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    # the q-oscillator's entry e^(eta (D - 1/2)) past the float range: an
    # OverflowError traceback from the complex power, or at eta = 300 and
    # D = 3 warnings and an error that blamed the chain product
    (["spectrum", "--regime", "noncritical", "--eta", "150", "--sites", "2", "--fock-dim", "8",
      "--grid=0:1:2"], "eta = 150.0 and D = 8 put"),
    (["verify", "--regime", "noncritical", "--eta", "150"], "eta = 150.0 and D = 8 put"),
    (["spectrum", "--regime", "noncritical", "--eta", "300", "--sites", "2", "--fock-dim", "3",
      "--grid=0:1:2"], "eta = 300.0 and D = 3 put"),
    (["verify", "--regime", "noncritical", "--eta", "300", "--fock-dim", "3"],
     "eta = 300.0 and D = 3 put"),
    # q^4 = e^(-4 eta) underflows: 'q must lie in (0, 1), got 0.0' named a q
    # nobody gave
    (["amplitude", "--regime", "noncritical", "--eta", "300"], "eta = 300.0 puts q^4"),
    (["amplitude", "--regime", "noncritical", "--eta", "178", "--family", "type2"],
     "eta = 178.0 puts q^4"),
    # the rtt products pass the float range, the Bethe root does too: only the
    # root's error line, no warning from the products
    (["verify", "--regime", "critical", "--mu", "1.5707963267948966", "--theta=-400",
      "--fock-dim", "6"], "theta = -400.0 puts |Re mu theta| = 628.3 past 350"),
], ids=["spectrum-150", "verify-150", "spectrum-300", "verify-300", "amplitude-300",
        "type2-178", "verify-rtt"])
def test_past_the_float_range_is_one_error_line_naming_its_parameter(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_the_largest_eta_below_the_float_range_limits_runs():
    # eta (D - 1/2) just below ln(max float) builds the representation, and
    # the largest eta whose q^4 is normal tabulates finite amplitudes
    eta = 709.78 / 7.5
    rep = defect_rep(RegimeParams.noncritical(eta), 8)
    assert np.isfinite(rep.v_inv).all() and np.abs(rep.v_inv).max() > 1e307
    with pytest.raises(ValueError, match="eta = 94.64 and D = 8 put"):
        defect_rep(RegimeParams.noncritical(94.64), 8)
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out:
        warnings.simplefilter("error")
        assert run(["amplitude", "--regime", "noncritical", "--eta", "177", "--grid=-1:1:3"]) == 0
    rows = list(csv.DictReader(out.getvalue().splitlines()[1:]))
    assert len(rows) == 3 and all(np.isfinite(float(v)) for row in rows
                                  for k, v in row.items() if k != "note")


# the ratio, product and quadrature calls of one warm run_verify pass, with
# the kernel-transform engine's (amplitude_integral: a half-line rule, or
# the mode sum in the non-critical regime); before
# each family took its points in one grid call the suite made 8
# gamma_ratio_bound calls in xxx and 8 q_gamma_ratio calls in the
# non-critical regime (a scalar call per prefactor and one more per record),
# and 2 infinite_gamma_product and 7 half_line_sums calls in the critical
# one (a lone point was summed otherwise than a grid row, so the closed
# pair's mirror grid, the T and Tbar prefactors and the S_s records took
# calls of their own)
VERIFY_WORK = {
    "xxx": {"gamma_ratio_bound": 3, "amplitude_integral": 2, "half_line_sums": 2},
    "critical": {"gamma_ratio_bound": 1, "infinite_gamma_product": 1, "amplitude_integral": 3,
                 "half_line_sums": 5},
    "noncritical": {"q_gamma_ratio": 3, "amplitude_integral": 2},
}


@pytest.mark.parametrize("regime", list(VERIFY_WORK))
def test_verify_takes_each_amplitude_family_in_few_grid_calls(monkeypatch, regime):
    # call counts do not depend on the machine: a scalar call per record or
    # per prefactor coming back shows here; the first pass fills the caches
    # (the critical anchor is one half-line rule per gamma)
    params = {"xxx": RegimeParams.xxx(), "critical": RegimeParams.critical(0.7),
              "noncritical": RegimeParams.noncritical(0.5)}[regime]
    calls = Counter()
    for name in ("gamma_ratio_bound", "q_gamma_ratio", "infinite_gamma_product",
                 "half_line_sums", "amplitude_integral"):
        for module in (sf, ta):
            if hasattr(module, name):
                def counted(*args, fn=getattr(module, name), name=name, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    cli.run_verify(params, 8, 7)
    calls.clear()
    cli.run_verify(params, 8, 7)
    assert calls == VERIFY_WORK[regime]


def test_verify_reads_t_only_through_transfer_matrix(monkeypatch):
    # no dense monodromy: rtt reads the charge blocks of T(lam1) and
    # T(lam2) once; commuting-family reads the blocks of t(lam1) and
    # t(lam2) in one call, and reference-eigenvalue the charge-0 block of
    # t(0.77), each on the exact sectors only; the chain is contracted once
    # per lam, lam1 and lam2 in one call, and its sectors are listed once
    assert not hasattr(mono, "build_monodromy")
    calls, sectors, grids = Counter(), [], []
    for name in ("rtt_residual", "transfer_matrix", "contract", "sector_blocks"):
        def counted(*args, fn=getattr(mono, name), name=name):
            calls[name] += 1
            if name == "transfer_matrix":
                sectors.append([k for k, _ in args[2]])
            if name == "contract":
                grids.append(np.shape(args[1]))
            return fn(*args)
        monkeypatch.setattr(mono, name, counted)
    cli.run_verify(RegimeParams.xxx(), 8, 7)
    assert calls == {"rtt_residual": 1, "transfer_matrix": 2, "contract": 2, "sector_blocks": 1}
    assert sectors == [[0, 1, 2, 3, 4], [0]]
    assert grids == [(2,), ()]


@pytest.mark.parametrize("params", [RegimeParams.xxx(theta=0.1), RegimeParams.critical(0.7),
                                    RegimeParams.noncritical(0.5, theta=-0.2)],
                         ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_verify_commuting_family_is_the_dense_masked_commutator(params, seed):
    # the record at its printed pair, against the sector-masked commutator
    # of the dense auxiliary traces of the two monodromies
    rec = next(r for r in cli.run_verify(params, 8, seed) if r["name"] == "commuting-family")
    pair = json.loads(rec["params"])
    spec = ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 6))
    t1, t2 = (dense_transfer(spec, pair[k], 2) for k in ("lam1", "lam2"))
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
    spec = ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 6))
    l1, l2 = pair["lam1"], pair["lam2"]
    m1, m2 = (dense_monodromy(spec, x, 2) for x in (l1, l2))
    want, scale = exchange_oracle(make_r(params, l1 - l2), m1, m2, sector_mask(spec))
    assert abs(rec["residual"] - want) <= 1e-12 * scale
    assert rec["pass"] and rec["subspace"] == "charge sectors" and rec["tolerance"] == 1e-10


def leaky_make_r(params, lam, where=lambda lam: True):
    """The bulk R, or its stack at a grid, with one entry that raises the
    charge at the lams `where` picks."""
    m = make_r(params, lam).copy()
    for k, x in enumerate(np.atleast_1d(lam)):
        if where(x):
            m.reshape(-1, 4, 4)[k, 0, 1] = 1e-300
    return m


def test_verify_charge_leak_is_a_one_line_error(monkeypatch, capsys):
    # charge-conservation's measure reads the leak, and the guard stops
    # verify at its first chain record
    params = RegimeParams.xxx()
    spec = ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 6))
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
            elif key == "singular":
                assert isinstance(value, bool) and rec["name"].startswith("bae-residual")
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


def test_verify_and_bae_run_no_eigensolver(monkeypatch):
    # the one-site Bethe root is a closed-form quadratic root: neither
    # command calls numpy's roots or an eigen-routine, in any regime
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for owner, name in ((np, "roots"), (np.linalg, "eig"), (np.linalg, "eigvals")):
        monkeypatch.setattr(owner, name, refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        for regime, anisotropy in (("xxx", []), ("critical", ["--mu", "0.7"]),
                                   ("noncritical", ["--eta", "0.5"])):
            for command in ("verify", "bae"):
                assert run([command, "--regime", regime, *anisotropy, "--theta", "0.1"]) == 0


def run_quietly(argv):
    """(exit code, stdout, stderr) of main(argv), any warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def log_uniform(low: float, high: float):
    """Floats spread evenly in log between low and high, both included."""
    return st.floats(math.log(low), math.log(high)).map(
        lambda x: min(max(math.exp(x), low), high))


# every critical mu down to the smallest subnormal: RegimeParams refuses those
# below 1e-12, which the uniform draws on (0, pi) never reach
SMALL_MU = log_uniform(5e-324, 3.1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["xxx", "critical", "noncritical"]),
       st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
       st.floats(0.0, 50.0, exclude_min=True), st.sampled_from([1.0, -1.0]),
       st.floats(-3.0, 300.0))
def test_bae_over_its_domain_exits_cleanly(regime, mu, eta, sign, k):
    # every regime, mu, eta and theta = +-10^k: no exception and no warning;
    # exit 0 or 1 with finite numbers and an empty stderr, or exit 2 with
    # one error line and nothing on stdout
    assert_bae_exits_cleanly(["bae", "--regime", regime, f"--mu={mu!r}", f"--eta={eta!r}",
                              f"--theta={sign * 10.0 ** k!r}"], (0, 1))


def assert_bae_exits_cleanly(argv, codes):
    """bae ends in one of `codes` with two rows of finite numbers and an empty
    stderr, or in exit 2 with one error line and nothing on stdout; no
    warning, no traceback."""
    code, out, err = run_quietly(argv)
    assert code in (*codes, 2), (argv, code)
    assert (code == 2) == (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
    if code == 2:
        assert out == "", argv
    else:
        assert err == "", argv
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert len(rows) == 2 and all(np.isfinite(float(v)) for row in rows
                                      for k, v in row.items() if k != "sign"), (argv, out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["xxx", "critical", "noncritical"]), SMALL_MU,
       log_uniform(1e-15, 1000.0), st.floats(-400.0, 400.0))
# a critical mu of 5e-324 blamed theta; a non-critical eta from 354.9 on
# blamed theta, and from 372.2 on ended in a ZeroDivisionError traceback
@example("critical", 5e-324, 0.5, 0.0)
@example("critical", 1e-20, 0.5, 0.0)
@example("critical", 1e-12, 0.5, 0.3)
@example("noncritical", 0.7, 354.8, 0.0)
@example("noncritical", 0.7, 354.9, 0.0)
@example("noncritical", 0.7, 372.3, -0.2)
@example("noncritical", 0.7, 1000.0, 0.3)
def test_bae_from_the_smallest_mu_to_the_largest_eta_exits_cleanly(regime, mu, eta, theta):
    # mu log-uniform down to 5e-324, eta up to 1000, theta in [-400, 400]:
    # exit 0 or 2 as assert_bae_exits_cleanly says, and no failing root
    assert_bae_exits_cleanly(["bae", "--regime", regime, f"--mu={mu!r}", f"--eta={eta!r}",
                              f"--theta={theta!r}"], (0,))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["xxx", "critical", "noncritical"]),
       st.one_of(st.sampled_from([np.pi / 2, np.pi / 3, np.pi / 4]), st.floats(0.05, 3.1),
                 SMALL_MU),
       st.floats(1e-3, 35.0), st.floats(-400.0, 400.0), st.integers(3, 16),
       st.integers(0, 1000))
# each of these ended in a RuntimeWarning traceback while the exchange,
# identity and algebra residuals took unscaled norms: the rll norm (eta 25),
# rttb's (eta 35, D 3), the algebra[a_dagY-(X^-1-qX)] norm (eta 31.34, D 16)
# and the L Lhat product of lax-unitarity (eta 34, D 11)
@example("noncritical", 0.7, 25.0, 0.0, 8, 7)
@example("noncritical", 0.7, 35.0, 0.0, 3, 7)
@example("noncritical", 0.7, 31.34, 0.0, 16, 7)
@example("noncritical", 0.7, 34.0, 0.0, 11, 7)
def test_verify_over_its_domain_exits_cleanly(regime, mu, eta, theta, fock_dim, seed):
    # every regime, mu (pi/2, pi/3 and pi/4 among them, and down to 5e-324),
    # eta <= 35, theta, D and seed: exit 0 or 1 with an empty stderr and no NaN in any record,
    # or exit 2 with one error line and nothing on stdout; no warning, no
    # traceback
    argv = ["verify", "--regime", regime, f"--mu={mu!r}", f"--eta={eta!r}",
            f"--theta={theta!r}", "--fock-dim", str(fock_dim), "--seed", str(seed)]
    code, out, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv
        records = [json.loads(line) for line in out.splitlines()[1:]]
        assert records and not any(math.isnan(r["residual"]) for r in records), argv
        assert (code == 1) == (not all(r["pass"] for r in records)), argv


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="tmat.t_prefactor's q_gamma_ratio meets log1p(-1) from eta ~ 38")
def test_verify_past_eta_38_ends_in_a_log1p_warning():
    # where the verify domain stops: at lam_hat = 0.44 +- i the non-critical
    # prefactors reach special_functions.q_gamma_ratio with |q^x| >> 1, and
    # np.log1p meets -1 (eta = 38.25 is the first failure on a 0.25 grid)
    run_quietly(["verify", "--regime", "noncritical", "--eta", "42"])


def test_verify_reads_a_factor_entry_flushed_by_its_scaling_as_inf():
    # at D = 16 the scaling of L^t1 by 2^-679 and Lhat^t1 by 2^-724 flushes 14
    # and 15 nonzero entries and the scalar s_c (|s_c| = 0.076) to zero, and
    # every lax-crossing-unitarity record read exactly 0.0 and passed
    code, out, err = run_quietly(["verify", "--regime", "noncritical", "--eta", "31.34",
                                  "--fock-dim", "16"])
    records = [json.loads(line) for line in out.splitlines()[1:]]
    crossing = [r for r in records if r["name"] == "lax-crossing-unitarity"]
    assert (code, err) == (1, "") and len(crossing) == 8
    assert all(r["residual"] == math.inf and not r["pass"] for r in crossing)


@pytest.mark.parametrize("params, singular", [
    (RegimeParams.critical(0.7), True), (RegimeParams.critical(2.5), True),
    (RegimeParams.noncritical(0.5), True), (RegimeParams.noncritical(3.0), True),
    (RegimeParams.xxx(), False), (RegimeParams.xxx(0.3), False),
    (RegimeParams.critical(0.7, theta=0.3), False), (RegimeParams.critical(2.5, theta=-0.2), False),
    (RegimeParams.noncritical(0.5, theta=0.3), False),
    (RegimeParams.noncritical(0.5, theta=-0.2), False),
])
def test_bae_records_mark_the_singular_roots(params, singular):
    # at theta = 0 the anisotropic root is a common zero of a and d (u = -i
    # for L, u = 0 for Lhat), where T-Q holds for any Q; the record names it
    records = [r for r in cli.run_verify(params, 3, 7) if r["name"].startswith("bae-residual")]
    assert len(records) == 2
    for rec in records:
        assert json.loads(rec["params"])["singular"] is singular and rec["pass"], rec


def _gate_row(record):
    """The GATES row a verify record reads: a cross-route record's second
    route (breather-cross-route's is the integral), else its own name's or
    its family's."""
    name = record["name"]
    if "cross-route" in name:
        return json.loads(record["params"]).get("route", "integral")
    return name if name in cli.GATES else name.split("[")[0]


def test_readme_table_names_every_gate_row():
    # one README row per GATES row: its gate, its subspace, and the regimes
    # whose verify writes a record that reads it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            first = re.match(r"`([^`]+)`", cells[0]).group(1)
            rows[first if first in cli.GATES else first.split("[")[0]] = cells[1:]
    assert rows.keys() == cli.GATES.keys()
    for key, (gate, subspace) in cli.GATES.items():
        assert rows[key][0] == f"{gate:.0e}".replace("e-0", "e-"), key
        assert subspace is None or rows[key][1] == subspace, key
    regimes = {}
    for regime, params in (("xxx", RegimeParams.xxx()), ("critical", RegimeParams.critical(0.7)),
                           ("noncritical", RegimeParams.noncritical(0.5))):
        for rec in cli.run_verify(params, 3, 7):
            key = _gate_row(rec)
            regimes.setdefault(key, set()).add(regime)
            assert rec["tolerance"] == cli.GATES[key][0], rec
            assert rec["subspace"] in rows[key][1].split(", or "), rec
    for key, cells in rows.items():
        want = {"xxx", "critical", "noncritical"} if cells[2] == "all" else \
            set(re.findall(r"\b(?:xxx|critical|noncritical)\b", cells[2]))
        assert regimes[key] == want, key


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


@pytest.mark.parametrize("argv, leak_at, message", [
    # the exponent guard at the second lam names that lam's growth, not the
    # batch's largest
    (["--regime", "critical", "--mu", "3", "--sites", "2", "--grid=250:300:2"], None,
     "|Re mu lam| = 750 overflows e^(+-mu lam); keep it below 700"),
    (["--sites", "2", "--fock-dim", "4", "--grid=0.25:1:2"], 1.0,
     "the transfer matrix leaks charge at lam = 1.0: the bulk R-matrix has a nonzero entry "
     "between charge sectors"),
    # the block product overflows at the second lam, the exponent at the third
    (["--regime", "critical", "--mu", "3", "--sites", "1", "--grid=98:300:3"], None,
     "the monodromy of 2 sites overflows at lam = 199.0: each site's entries are finite, "
     "their product is not"),
    # the commutator at the second lam is past the float range, the third leaks
    (["--regime", "critical", "--mu", "3", "--sites", "1", "--grid=98:100:3"], 100.0,
     "the commutator check at lam = 99.0 is beyond the float range"),
    # two lams a batch: the second batch overflows
    (["--regime", "critical", "--mu", "3", "--sites", "5", "--fock-dim", "8",
      "--defect-site", "4", "--grid=0:40:3"], None,
     "the monodromy of 6 sites overflows at lam = 40.0: each site's entries are finite, "
     "their product is not"),
], ids=["exponent", "leak", "product-then-exponent", "commutator-then-leak", "second-batch"])
def test_spectrum_grid_reports_the_first_error_of_the_lam_by_lam_loop(monkeypatch, capsys, argv,
                                                                      leak_at, message):
    # a batch of lams fails with the error the lams raise one at a time,
    # the first lam's first error
    if leak_at is not None:
        monkeypatch.setattr(mono, "make_r",
                            lambda params, lam: leaky_make_r(params, lam, leak_at.__eq__))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["spectrum", *argv])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def test_spectrum_error_in_a_later_batch_names_its_lam(tmp_path, capsys):
    # two lams a batch at N = 6, D = 8: the first batch (lam = 0 and 20)
    # passes and is written, to stdout or --out, before the second overflows
    argv = ["spectrum", "--regime", "critical", "--mu", "3", "--sites", "6", "--fock-dim", "8",
            "--defect-site", "4", "--grid=0:40:3"]
    params = RegimeParams.critical(3.0)
    assert ChainSpec(6, params, defect_rep(params, 8)).batch == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
        out, err = capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "s.csv")]) == 2
    assert (code, err) == (
        2, "error: the monodromy of 7 sites overflows at lam = 40.0: each site's entries "
        "are finite, their product is not\n")
    assert capsys.readouterr().out == "" and (tmp_path / "s.csv").read_text() == out
    _, rows = read_csv(tmp_path / "s.csv")
    assert Counter(row["lam"] for row in rows) == {"0.000000000000e+00": 512,
                                                  "2.000000000000e+01": 512}


@pytest.mark.parametrize("regime, anisotropy", [
    ("xxx", []), ("critical", ["--mu", "0.7"]), ("noncritical", ["--eta", "0.5"])],
    ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("sites, defect_site, fock_dim", [
    (0, 1, 5), (1, 1, 5), (1, 2, 5), (3, 1, 5), (3, 4, 5), (5, 4, 8), (6, 4, 8)])
def test_spectrum_grid_rows_equal_the_one_point_rows(tmp_path, regime, anisotropy, sites,
                                                     defect_site, fock_dim):
    # every lam of a grid, in one batch or (N = 6, D = 8) two lams a batch,
    # prints the rows of the one-point grid at that lam, all but the
    # commutator; a batch's lams after its first read the eigenvalues of
    # its exact sectors off the first lam's eigenbasis, so those agree up
    # to roundoff (`assert_rows_close`), every other cell byte for byte
    argv = ["spectrum", "--regime", regime, *anisotropy, "--theta", "0.1", "--sites",
            str(sites), "--defect-site", str(defect_site), "--fock-dim", str(fock_dim)]
    grid = np.linspace(-1.1, 0.7, 4)
    batch = mono.ChainSpec(sites, RegimeParams.xxx(), defect_rep(RegimeParams.xxx(),
                                                                 fock_dim)).batch
    assert run([*argv, "--grid=-1.1:0.7:4", "--out", str(tmp_path / "grid.csv")]) == 0
    _, rows = read_csv(tmp_path / "grid.csv")
    for k, lam in enumerate(grid.tolist()):
        out = tmp_path / f"{lam}.csv"
        assert run([*argv, f"--grid={lam!r}:{lam!r}:1", "--out", str(out)]) == 0
        _, want = read_csv(out)
        got = [row for row in rows if row["lam"] == f"{lam:.12e}"]
        assert len(got) == len(want) == 2 ** sites * fock_dim
        for row in got + want:
            row.pop("commutator_check")
        if k % batch == 0:      # the first lam of its batch
            assert got == want
        else:
            assert list(map(without_exact_eigenvalues, got)) == \
                list(map(without_exact_eigenvalues, want))
            assert_rows_close(got, want)
    assert (batch < len(grid)) == (sites == 6)


def test_spectrum_contracts_a_grid_once_with_one_eigvals_call_per_sector(monkeypatch):
    # one eigen-solve a sector: eigvals on the stack, or eig at the first
    # lam on an exact sector of MIN_EIGENBASIS_SIZE states or more (here
    # charge 3, of 8 states)
    calls = Counter()
    for owner, name in ((mono, "transfer_matrix"), (np.linalg, "eigvals"), (np.linalg, "eig")):
        def counted(*args, fn=getattr(owner, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["spectrum", "--sites", "3", "--fock-dim", "5", "--grid=-2:2:41"]) == 0
    params = RegimeParams.xxx()
    spec = ChainSpec(3, params, defect_rep(params, 5))
    sectors = mono.sector_blocks(spec)
    eig = sum(len(idx) >= mono.MIN_EIGENBASIS_SIZE for q, idx in sectors
              if q <= spec.max_exact_charge)
    assert spec.batch >= 41 and eig == 1
    assert calls == {"transfer_matrix": 1, "eig": eig, "eigvals": len(sectors) - eig}


def dense_spectrum_rows(spec, grid, site):
    """The spectrum rows by the dense route: sectors from the charge vector,
    the reference check as a mat-vec with the reference state, and the
    sector-masked commutator of the whole transfer matrices of the dense
    chain with the defect at `site` (at site 1, the chain the package
    reads)."""
    q = charge_vector(spec)
    keep = sector_mask(spec)
    vec = reference_state(spec)
    rows, first = [], None
    for lam in grid:
        t = dense_transfer(spec, lam, site)
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
    spec = ChainSpec(n_sites=3, params=params, rep=defect_rep(params, 5))
    header, rows = read_csv(out)
    want_text = per_cell_csv(dense_spectrum_rows(spec, np.linspace(-1.2, 0.9, 3), 1), header)
    want = list(csv.DictReader(want_text.splitlines()[1:]))
    assert len(rows) == len(want) == 3 * spec.chain_dim

    def scale(lam):
        return max(abs(complex(float(r["re_eig"]), float(r["im_eig"])))
                   for r in want if r["lam"] == lam)

    # the first lam's rows and the sectors above the ceiling byte for byte;
    # the other lams read the exact sectors' eigenvalues off the first lam's
    # eigenbasis, so those agree up to roundoff, every other cell byte for byte
    first = want[0]["lam"]
    for got, row in zip(rows, want):
        comm = (got.pop("commutator_check"), row.pop("commutator_check"))
        if row["lam"] == first:
            assert got == row
        else:
            assert without_exact_eigenvalues(got) == without_exact_eigenvalues(row)
        assert abs(float(comm[0]) - float(comm[1])) <= 1e-12 * scale(row["lam"]) * scale(first)
    assert_rows_close(rows, want)
    # and the trace in the order N+1 ... 1 at the actual site, up to roundoff
    assert_rows_close(rows, dense_spectrum_rows(spec, np.linspace(-1.2, 0.9, 3), 2))


def without_exact_eigenvalues(row):
    """The csv row without its eigenvalue cells where its sector is exact."""
    eig = ("re_eig", "im_eig") if row["exact"] == "1" else ()
    return {k: v for k, v in row.items() if k not in eig}


def assert_rows_close(rows, want):
    """Each printed row as the row of its lam and sector in `want` (dense
    rows, or printed ones) up to roundoff: every eigenvalue within 1e-12 of
    the lam's largest |eigenvalue| of one of the sector's wanted ones, and
    back (the 12-digit print alone is up to 5e-13 off; eigvals read from the
    defect differ by at most 2.9e-13 from the dense trace in the order
    N+1 ... 1, and eigenvalues read off the first lam's eigenbasis by at
    most 2.7e-14 from the rows of per-lam eigvals here), and the reference
    check within 1e-15 (measured: 3.1e-16)."""
    def key(row):
        return f"{float(row['lam']):.12e}", int(row["sector"])

    def eig(row):
        return complex(float(row["re_eig"]), float(row["im_eig"]))

    assert sorted(map(key, rows)) == sorted(map(key, want))
    groups = {}
    for side, table in enumerate((rows, want)):
        for row in table:
            groups.setdefault(key(row), ([], []))[side].append(row)
    for (lam, _), (got, dense) in groups.items():
        scale = max(abs(eig(r)) for r in want if key(r)[0] == lam)
        dist = np.abs(np.subtract.outer([eig(r) for r in got], [eig(r) for r in dense]))
        assert max(dist.min(0).max(), dist.min(1).max()) <= 1e-12 * scale
        assert all(abs(float(r["reference_check"]) - float(dense[0]["reference_check"]))
                   <= 1e-15 for r in got)
        assert [r["exact"] for r in got] == [str(r["exact"]) for r in dense]


SPECTRUM_REGIMES = [("xxx", [], RegimeParams.xxx),
                    ("critical", ["--mu", "0.7"], lambda theta: RegimeParams.critical(0.7, theta)),
                    ("noncritical", ["--eta", "0.5"],
                     lambda theta: RegimeParams.noncritical(0.5, theta))]


@pytest.mark.parametrize("regime, anisotropy, make", SPECTRUM_REGIMES, ids=["xxx", "crit", "nc"])
@pytest.mark.parametrize("sites", range(5))
@given(st.integers(3, 6), st.sampled_from([0.0, 0.1, -0.35]),
       st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
@settings(max_examples=6, deadline=None)
def test_spectrum_at_every_defect_site_is_the_site_1_spectrum(regime, anisotropy, make, sites,
                                                              fock_dim, theta, ends):
    # t(lam) at the defect site k is P t_1(lam) P^T, so every site prints
    # the site-1 rows byte for byte, and those are the rows of the dense
    # trace in the order N+1 ... 1 at the actual site up to roundoff
    grid = f"--grid={ends[0]!r}:{ends[1]!r}:3"
    params = make(theta)
    texts = []
    for site in range(1, sites + 2):
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert run(["spectrum", "--regime", regime, *anisotropy, "--theta", repr(theta),
                        "--sites", str(sites), "--defect-site", str(site),
                        "--fock-dim", str(fock_dim), grid]) == 0
        texts.append(stream.getvalue().split("\n", 1)[1])
        spec = ChainSpec(n_sites=sites, params=params, rep=defect_rep(params, fock_dim))
        rows = list(csv.DictReader(texts[-1].splitlines()))
        want = dense_spectrum_rows(spec, np.linspace(*ends, 3), site)
        assert_rows_close(rows, want)
    assert all(text == texts[0] for text in texts)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["xxx", "critical", "noncritical"]),
       st.one_of(st.sampled_from([np.pi / 2, np.pi / 3, np.pi / 4]),
                 st.floats(0.0, np.pi, exclude_min=True, exclude_max=True), SMALL_MU),
       st.floats(1e-3, 20.0), st.floats(-400.0, 400.0), st.integers(0, 4), st.integers(2, 8),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(1, 5))
# grid ends at |lam| = 100 put t(lam)'s entries near 1e200: products of the
# unscaled blocks overflowed in an eigenbasis without its power-of-two scaling
@example("critical", 1.5707963267948966, 0.5, 0.0, 3, 7, -2.369384019261358, 100.0, 2)
@example("critical", 1.559194077934671, 0.5, 0.0, 3, 3, -3.9608853696596533, 100.0, 4)
@example("critical", 0.7853981633974483, 0.5, -200.0, 4, 7, -100.0, -100.0, 3)
def test_spectrum_over_its_domain_exits_cleanly(regime, mu, eta, theta, sites, fock_dim,
                                                 start, stop, count):
    # every regime, mu (pi/2, pi/3 and pi/4 among them, and down to 5e-324),
    # eta, theta, N <= 4, D <= 8 and grid of 1 to 5 points: exit 0 with finite rows and an empty
    # stderr, or exit 2 with one error line and nothing on stdout; no
    # warning, no traceback
    argv = ["spectrum", "--regime", regime, f"--mu={mu!r}", f"--eta={eta!r}",
            f"--theta={theta!r}", "--sites", str(sites), "--fock-dim", str(fock_dim),
            f"--grid={start!r}:{stop!r}:{count}"]
    code, out, err = run_quietly(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert rows and all(np.isfinite(float(v)) for row in rows for v in row.values()), argv


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([("xxx", "type1"), ("critical", "type1"), ("noncritical", "type1"),
                                  ("critical", "breather"), ("noncritical", "type2")]),
                 st.tuples(st.sampled_from(["xxx", "critical", "noncritical"]),
                           st.sampled_from(["type1", "breather", "type2"]))),
       st.integers(1, 3),
       st.one_of(st.sampled_from([np.pi / 2, np.pi / 3, np.pi / 4]),
                 st.floats(0.0, np.pi, exclude_min=True, exclude_max=True), SMALL_MU),
       st.floats(1e-3, 200.0), st.floats(-400.0, 400.0),
       st.one_of(st.integers(1, 20).map(lambda n: n / 2), st.floats(-5.0, 5.0)),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(1, 50))
# at these mu, gamma = pi/mu - 1 is inf or near the float limit, and gamma t
# overflowed in the critical T+ kernels (a RuntimeWarning traceback); now
# RegimeParams refuses them
@example(("critical", "type1"), 1, 5e-324, 1.0, 0.0, 0.5, 0.0, 0.0, 1)
@example(("critical", "type1"), 1, 2.2250738585072014e-308, 1.0, 0.0, 0.5, 0.0, 0.0, 1)
def test_amplitude_over_its_domain_exits_cleanly(pair, n, mu, eta, theta, spin, start, stop,
                                                  count):
    # every regime and family (breathers n = 1-3), mu (pi/2, pi/3 and pi/4
    # among them, and down to 5e-324), eta >= 1e-3, theta, spin and grid of 1 to 50 points: exit 0
    # or 1 with an empty stderr and no NaN cell but on a `pole:` row, or exit 2
    # with one error line and nothing on stdout; no warning, no traceback
    regime, family = pair
    argv = ["amplitude", "--regime", regime, "--family", family, "--breather-n", str(n),
            f"--mu={mu!r}", f"--eta={eta!r}", f"--theta={theta!r}", f"--spin={spin!r}",
            f"--grid={start!r}:{stop!r}:{count}"]
    code, out, err = run_quietly(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", argv
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert len(rows) == count, argv
        for row in rows:
            note = row.pop("note")
            assert note.startswith("pole:") or not any(math.isnan(float(v))
                                                       for v in row.values()), (argv, row)


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


NESTED = {"z": [1, {"b": float("nan"), "a": -float("inf")}], "\u00e9": "\u00fc\u2603",
          "a": {"y": float("inf"), "x": [0.1, None, True]}}


def test_json_texts_are_json_dumps_with_sorted_keys(tmp_path):
    # one module-level encoder writes every JSON text: the bytes of
    # json.dumps(..., sort_keys=True), NaN, infinities, non-ASCII and nested
    # values included, and an empty params is the literal {}
    assert cli._JSON(NESTED) == json.dumps(NESTED, sort_keys=True)
    assert cli._JSON({}) == json.dumps({}, sort_keys=True) == "{}"
    records = [{"name": "\u00e9", "params": cli._JSON(NESTED), "residual": float("nan"),
                "tolerance": float("inf"), "pass": False, "nested": NESTED},
               {"name": "rll", "params": "{}", "residual": -float("inf"), "tolerance": 1e-11,
                "pass": True, "nested": {}}]
    header = {"command": "test", "\u00fc": NESTED}
    out = tmp_path / "t.jsonl"
    _write_records([columns(records)], "jsonl", str(out), header)
    expected = [json.dumps({"header": header}, sort_keys=True)]
    expected += [json.dumps(rec, sort_keys=True) for rec in records]
    assert out.read_text() == "\n".join(expected) + "\n"
    assert "\\u00e9" in expected[1] and "NaN" in expected[1] and "-Infinity" in expected[2]
    out = tmp_path / "t.csv"
    _write_records([columns(records)], "csv", str(out), header)
    assert out.read_text().splitlines()[0] == "# " + json.dumps(header, sort_keys=True)


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
    of two names or more, as every command writes) and their rows as
    records, arrays read through tolist()."""
    names = draw(st.lists(TEXT, min_size=2, max_size=4, unique=True))
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


@pytest.mark.parametrize("args", [["verify"], ["amplitude", "--grid=-2:2:20000"]])
def test_a_reader_that_closes_the_pipe_gets_no_traceback(args):
    # `python -m defectchain ... | head -1`: the reader takes one line and
    # closes the pipe; the 20000-row table is still being written then (it
    # outgrows any pipe buffer), verify may have finished
    src = str(Path(defectchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-m", "defectchain", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait(timeout=600)
    proc.stderr.close()
    assert first.startswith((b"{", b"#")) and err == b"", err.decode()[-2000:]
    assert code == 1 if args[0] == "amplitude" else code in (0, 1)


def test_large_amplitude_table_is_written_in_bounded_memory():
    # 100000 rows: the whole table as Python lists and its text peaked at
    # 146 MB (x86-64, numpy 2.4); block by block it peaks near 60 MB.  The
    # child reads its own peak resident set, VmHWM in /proc/self/status: on
    # Linux ru_maxrss carries the forking process's peak over exec, so it
    # read the test runner's peak rather than the command's
    script = ("import sys\n"
              "from defectchain.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as status:\n"
              "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
              "print(code, peak, file=sys.stderr)\n")
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
