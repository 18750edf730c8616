"""CLI surface: config parsing, report emission, exit codes."""

import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from primeorbits import cli, ergodic, expsum, primes, vaughan, waring, zeta
from primeorbits.regvar import InverseHandle, RegVarFunction, pure_power


# ----------------------------------------------------------------- parsing

def test_parse_happy_path():
    cfg = cli.parse_config(["expsum", "--c", "1.2", "--N", "10000",
                            "--xi", "0"])
    assert cfg["subcommand"] == "expsum"
    assert cfg["c"] == 1.2
    assert cfg["N"] == [10000]
    assert cfg["xi"] == ["0"]
    # defaults fill in
    assert cfg["threads"] == 1
    assert cfg["kind"] == "pure"


def test_c_out_of_range():
    with pytest.raises(ValueError, match=r"outside \(1, 2\)"):
        cli.parse_config(["expsum", "--c", "2.5"])


def test_flag_wrong_subcommand():
    # another record's key is refused like any unknown one, and no flag
    # abbreviates: --x (explicit's) is not expsum's --xi
    for argv in (["waring", "--N", "5"], ["expsum", "--c", "1.2", "--x", "5"],
                 ["vaughan-check", "--n", "5"], ["expsum", "--thread", "5"]):
        with pytest.raises(ValueError,
                           match=f"^unrecognized arguments: {argv[-2]} 5$"):
            cli.parse_config(argv)


# keys no runner of that subcommand reads: each is a usage error.
# epsilon and theta1 are no subcommand's keys: the saving's epsilon is
# expsum.EPSILON and theta1 is theta1_default(c); nor are format and
# config: a report is text, with its JSON mirror at <out>.json
_UNREAD = [("expsum", "seed"), ("waring", "seed"), ("explicit", "seed"),
           ("regvar-check", "seed"), ("ergodic", "epsilon"),
           ("explicit", "epsilon"), ("vaughan-check", "epsilon"),
           ("regvar-check", "epsilon"), ("expsum", "epsilon"),
           ("waring", "epsilon"), ("expsum", "theta1"), ("waring", "theta1"),
           ("expsum", "format"), ("ergodic", "config")]
_SMALL = {"expsum": ["--c", "1.2", "--N", "1000", "--xi", "zero"]}


@pytest.mark.parametrize("sub, key", _UNREAD)
def test_unread_key_exits_one(tmp_path, monkeypatch, capsys, sub, key):
    # refused by the subcommand's own parser, before any sieve
    value = {"epsilon": "0.1", "theta1": "0.5", "format": "json",
             "config": "run.cfg"}.get(key, "3")
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "r.txt"
    assert cli.main([sub, *_SMALL.get(sub, []), f"--{key}", value,
                     "--out", str(out)]) == 1
    assert (f"error: unrecognized arguments: --{key} {value}\n"
            in capsys.readouterr().err)
    assert calls == []
    assert not out.exists() and not (tmp_path / "r.txt.json").exists()


@pytest.mark.parametrize("argv", [
    ["expsum", "--kind", "pure", "--c", "1.2", "--a", "0.7"],
    ["expsum", "--kind", "logpow", "--c", "1.2", "--depth", "3"],
    ["expsum", "--kind", "itlog", "--c", "1.2", "--b", "0.5"],
    ["ergodic", "--a", "0.7"],
    ["ergodic", "--depth", "2"],
])
def test_shape_key_of_another_kind_exits_one(capsys, argv):
    assert cli.main(argv) == 1
    assert "takes no" in capsys.readouterr().err


def test_shape_keys_reach_the_function():
    cfg = cli.parse_config(["ergodic", "--kind", "explog", "--c", "1.15",
                            "--a", "0.2", "--b", "0.4"])
    h = cli._function_from(cfg)
    assert (h.kind, h.c, h.a, h.b) == ("explog", 1.15, 0.2, 0.4)


def test_bad_value_names_its_key_and_line():
    with pytest.raises(ValueError, match=r"^N=10,abc: invalid literal"):
        cli.parse_config(["expsum", "--c", "1.2", "--N", "10,abc"])


def _config_line(cfg: dict) -> dict:
    line = cli.render_text(cfg, [], [], []).splitlines()[1]
    assert line.startswith("# config: ")
    return dict(kv.split("=", 1) for kv in
                line[len("# config: "):].replace(", ", ",").split())


def test_header_shows_effective_defaults():
    got = _config_line(cli.parse_config(["expsum", "--c", "1.2"]))
    assert got == {"N": "[10000,100000]", "c": "1.2", "check": "False",
                   "kind": "pure", "threads": "1",
                   "xi": "['zero','halfcut','cut']"}
    got = _config_line(cli.parse_config(["ergodic"]))
    assert got == {"c": "1.1", "check": "False", "jmax": "20", "jmin": "10",
                   "kgrid": "[10,100,1000]", "kind": "pure", "seed": "0",
                   "start": "0.35", "threads": "1"}


# one small run of each subcommand
_SMALL_RUNS = [
    ["expsum", "--c", "1.2", "--N", "1000", "--xi", "zero"],
    ["waring"],
    ["ergodic", "--jmin", "10", "--jmax", "12"],
    ["explicit", "--x", "1000", "--T", "100"],
    ["vaughan-check", "--nmax", "300", "--v", "2", "--cases", "1"],
    ["regvar-check"],
]


@pytest.mark.parametrize("argv", _SMALL_RUNS)
def test_report_config_is_every_defaulted_key(tmp_path, argv):
    # the header and the mirror list the keys the run was given plus
    # every key of its subcommand that has a default; the runs name every
    # record, so a new subcommand cannot skip this test
    assert sorted(run[0] for run in _SMALL_RUNS) == sorted(cli._SUBCOMMANDS)
    out = tmp_path / "r.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0
    given = {flag[2:] for flag in argv[1::2]} | {"out"}
    keys = {**cli._COMMON, **cli._SUBCOMMANDS[argv[0]].keys}
    want = given | {k for k, (_, default) in keys.items()
                    if default is not None}
    line = out.read_text().splitlines()[1]
    assert {kv.split("=", 1)[0] for kv in line.split()[2:]
            if "=" in kv} == want
    mirror = json.loads((tmp_path / "r.txt.json").read_text())
    assert set(mirror["config"]) == want


def test_readme_key_table_names_each_records_keys():
    # README's "keys and defaults" table has one row per record, naming
    # exactly the keys of that record
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        ).splitlines()
    top = lines.index("| subcommand | keys and defaults |") + 2
    rows = {}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[top:]):
        sub, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[sub.strip("`")] = set(re.findall(r"`(\w+)(?:=[^`]*)?`", keys))
    assert rows == {sub: set(record.keys)
                    for sub, record in cli._SUBCOMMANDS.items()}


def test_grid_must_ascend():
    with pytest.raises(ValueError, match="ascending"):
        cli.parse_config(["expsum", "--c", "1.2", "--N", "100,100"])


def test_epsilon_and_threads_validation():
    with pytest.raises(ValueError, match="threads"):
        cli.parse_config(["expsum", "--c", "1.2", "--threads", "0"])


# ------------------------------------------------------------------ running

def test_main_error_exit_code():
    assert cli.main(["expsum", "--c", "2.5"]) == 1


def test_explicit_empty_zero_file(tmp_path):
    empty = tmp_path / "zeros.txt"
    empty.write_text("")
    assert cli.main(["explicit", "--zero-table", str(empty)]) == 1


@pytest.mark.parametrize("args, reason", [
    (["--x", "30000000", "--T", "1e7"], "beyond table coverage"),
    (["--x", "1e12", "--T", "100"], "bytes of prime tables"),
    (["--x", "1000,10000", "--T", "100,2000"], "need 2 <= T <= min x"),
])
def test_explicit_refuses_before_any_sieve(tmp_path, monkeypatch, capsys,
                                           args, reason):
    def sieve(*a, **k):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(primes, "sieve_range", sieve)
    out = tmp_path / "e.txt"
    assert cli.main(["explicit", *args, "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_explicit_refuses_an_oversized_zero_table_before_reading(
        tmp_path, monkeypatch, capsys):
    # a file planned past the cap by its size is refused before it is read
    # and before any sieve
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("14.134725142\n")
    calls = _sieve_calls(monkeypatch)
    monkeypatch.setattr(zeta, "load_zeros", lambda path: calls.append(path))
    monkeypatch.setattr(zeta.os.path, "getsize", lambda path: 1 << 32)
    assert cli.main(["explicit", "--x", "1e4", "--T", "100",
                     "--zero-table", str(zeros)]) == 1
    err = capsys.readouterr().err
    assert "bytes of prime and zero tables" in err and str(zeros) in err
    assert calls == []


def test_explicit_x_cap_admits_its_boundary():
    # 17 bytes per prime on pi_bound(x) plus the packaged zero table's read
    top = 2162375709
    assert cli.parse_config(["explicit", "--x", str(top), "--T", "100"])
    with pytest.raises(ValueError, match="bytes of prime tables"):
        cli.parse_config(["explicit", "--x", str(top + 1), "--T", "100"])


def test_vaughan_check_passes(tmp_path):
    out = tmp_path / "v.txt"
    code = cli.main(["vaughan-check", "--nmax", "2000", "--v", "2,5",
                     "--cases", "5", "--check", "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "check: pass" in body
    assert "max_resid" in body


def test_waring_check_oracle_mode(tmp_path):
    # up to lambda 200 the triple-loop oracle checks every count; from
    # lambda 1000 the ratio r / main term must lie in [0.5, 2]
    for argv, lmax in (
            (["--c1", "1.2", "--c2", "1.2", "--c3", "1.2", "--lam", "100,200"], 200),
            (["--lam", "1000,10000"], 10000)):
        out = tmp_path / f"w{lmax}.txt"
        code = cli.main(["waring", *argv, "--check", "--out", str(out)])
        assert code == 0
        assert "check: pass" in out.read_text()
        # the transform work sits in the header and the mirror, not in the rows
        work = [ln for ln in out.read_text().splitlines()
                if ln.startswith("# work:")]
        length = expsum.transform_length(2 * lmax + 1)
        assert len(work) == 1 and f"transform_length={length} limbs=1" in work[0]
        mirror = json.loads((tmp_path / f"w{lmax}.txt.json").read_text())
        assert work[0][2:] in mirror["notes"]


@pytest.mark.parametrize("argv, code, says", [
    (["--c", "1.2", "--N", "10000,100000", "--xi", "zero,halfcut,cut"], 0, ""),
    # not criterion 04's grid: err/N at the cut rises from 1e4 to 2e4
    (["--c", "1.3", "--N", "10000,20000", "--xi", "cut"], 2,
     "check failure: err/N not decreasing at xi=cut: 1.638e-02 -> 2.046e-02\n"),
    # at xi=cut |S - F| grows past 10x its first normalized ratio: only
    # the err/N steps fail, since no theorem bounds that ratio's growth
    (["--kind", "itlog", "--c", "1.6498", "--depth", "2", "--N", "6398,11598",
      "--xi", "0.888,zero,cut"], 2,
     "check failure: err/N not decreasing at xi=zero: 8.006e-03 -> 1.236e-02\n"
     "check failure: err/N not decreasing at xi=cut: 1.178e-03 -> 1.525e-02\n"),
])
def test_expsum_check(tmp_path, capsys, argv, code, says):
    out = tmp_path / "e.txt"
    assert cli.main(["expsum", *argv, "--check", "--out", str(out)]) == code
    assert capsys.readouterr().err == says
    assert ("# check: pass" in out.read_text().splitlines()) == (code == 0)


@pytest.mark.parametrize("lam", ["0,100", "100,100000000"])
def test_waring_refuses_lambda_before_work(tmp_path, lam):
    # lambda below h(x0) and a grid whose transforms would not fit in
    # memory are both refused while parsing, before any sieve or histogram
    out = tmp_path / "w.txt"
    assert cli.main(["waring", "--lam", lam, "--out", str(out)]) == 1
    assert not out.exists()
    assert not (tmp_path / "w.txt.json").exists()


@pytest.mark.parametrize("start, same", [("1e300", "0"), ("-0.75", "0.25")])
def test_ergodic_start_is_reduced_modulo_one(tmp_path, start, same):
    # 1e300 is an integer and -0.75 = 0.25 - 1, so each orbit starts where
    # its partner does and prints its rows bit for bit
    rows = {}
    for s in (start, same):
        out = tmp_path / f"e{s}.txt"
        assert cli.main(["ergodic", "--jmin", "10", "--jmax", "13",
                         "--kgrid", "10,100", f"--start={s}",
                         "--out", str(out)]) == 0
        rows[s] = [ln for ln in out.read_text().splitlines()
                   if not ln.startswith("#")]
    assert rows[start] == rows[same] and rows[start]


def _sieve_calls(monkeypatch) -> list:
    """Record sieve_range calls, starting from an empty prime cache."""
    calls = []
    real = primes.sieve_range

    def recording(lo, hi, threads=1):
        calls.append((lo, hi, threads))
        return real(lo, hi, threads)

    monkeypatch.setattr(primes, "_cache",
                        {"hi": 0, "primes": np.empty(0, dtype=np.int64)})
    monkeypatch.setattr(primes, "sieve_range", recording)
    return calls


def test_waring_presieves_for_every_function(tmp_path, monkeypatch):
    # c2, c3 < c1 need more primes than the first function; one threaded
    # sieve from 0 must cover all three histograms
    calls = _sieve_calls(monkeypatch)
    code = cli.main(["waring", "--c1", "1.5", "--c2", "1.01", "--c3", "1.01",
                     "--lam", "1000,100000", "--threads", "2",
                     "--out", str(tmp_path / "w.txt")])
    assert code == 0
    assert len(calls) == 1 and calls[0][0] == 0 and calls[0][2] == 2


# the README commands that sieve; regvar-check reads no primes
README_SIEVING = [
    ["expsum", "--c", "1.2", "--N", "10000,100000", "--xi", "zero,halfcut,cut"],
    ["waring", "--c1", "1.01", "--c2", "1.01", "--c3", "1.01",
     "--lam", "1000,10000"],
    ["explicit", "--x", "1000,10000", "--T", "100,1000", "--check"],
    ["vaughan-check", "--nmax", "10000", "--v", "2,5,10", "--check"],
    ["ergodic", "--jmin", "10", "--jmax", "20", "--kgrid", "10,100,1000",
     "--check"],
]


@pytest.mark.parametrize("argv", README_SIEVING, ids=lambda a: a[0])
def test_readme_command_sieves_once(tmp_path, monkeypatch, argv):
    # Lambda ranges, spf tables and prime floors all read the cache, so
    # a cold run sieves once, from 0, with its --threads
    calls = _sieve_calls(monkeypatch)
    assert cli.main(argv + ["--threads", "2",
                            "--out", str(tmp_path / "r.txt")]) == 0
    assert len(calls) == 1 and calls[0][0] == 0 and calls[0][2] == 2


def test_expsum_work_note(tmp_path):
    # what the run did sits in the header and the mirror, not in the rows
    out = tmp_path / "run.txt"
    assert cli.main(["expsum", "--c", "1.2", "--N", "1000,4000", "--xi", "zero,cut",
                     "--out", str(out)]) == 0
    work = [ln for ln in out.read_text().splitlines() if ln.startswith("# work:")]
    assert len(work) == 1
    mirror = json.loads(out.with_suffix(".txt.json").read_text())
    assert work[0][2:] in mirror["notes"]
    note = {k: int(v) for k, v in (kv.split("=") for kv in work[0].split()[2:])}
    # every approximant sums its 255 terms below M = 256 directly and the
    # rest by Euler-Maclaurin, of the orders its own calls report
    terms = 2 * (math.floor(1000 ** 1.2) + math.floor(4000 ** 1.2))
    pi1, pi4 = primes.prime_count(1000), primes.prime_count(4000)
    own = expsum.SumWork()
    for n in (1000.0, 4000.0):
        for xi in (0.0, n ** -expsum.theta1_default(1.2)):
            expsum.approximant_sum(pure_power(1.2), n, xi, own)
    assert note == {
        "floor_points": pi4, "recomputes": 0, "approximant_terms": terms,
        "approximant_direct": 4 * 255, "em_order": own.em_order,
        "digit_terms": 2 * (pi1 + pi4) + 4 * 255,
        "table_entries": note["table_entries"],
        "inverse_blocks": 0, "node_newton": 0}
    assert own.em_order >= 4
    assert note["table_entries"] > 0


def test_expsum_work_note_counts_inverse_blocks(tmp_path):
    # a non-pure function builds the phi' blocks up to h(N) once, whatever
    # the number of xi: 2**5 <= h(x0) = 46.4 and h(2000) = 25215.6 < 2**15,
    # so 10 blocks for both approximants
    out = tmp_path / "logpow.txt"
    argv = ["expsum", "--kind", "logpow", "--c", "1.2", "--N", "2000",
            "--xi", "zero,cut", "--out", str(out)]
    assert cli.main(argv) == 0
    work = [ln for ln in out.read_text().splitlines() if ln.startswith("# work:")]
    note = dict(kv.split("=") for kv in work[0].split()[2:])
    assert int(note["inverse_blocks"]) == 10
    assert int(note["node_newton"]) >= 10 * 17 * 2
    mirror = json.loads(out.with_suffix(".txt.json").read_text())
    assert work[0][2:] in mirror["notes"]


_BIG = str(10 ** 400)  # a 401-digit integer: float() of it overflows

# argv, a fragment of its refusal on stderr, and a neighbour that is
# admitted (None: none named)
_REFUSED = [
    pytest.param(["expsum", "--c", "1.95", "--N", "1000,10000000"],
                 "N=10000000 needs about", None, id="expsum-terms"),
    pytest.param(["expsum", "--kind", "itlog", "--c", "1.2", "--depth", "50"],
                 "depth=50", None, id="expsum-itlog-depth"),
    # itlog c = 1.05 has x0 = 16384; at and below it h is the constant
    # h(x0), so an N = 1e4 row would compare sums of that constant
    pytest.param(["expsum", "--kind", "itlog", "--c", "1.05",
                  "--N", "16384,100000"], "x0=16384",
                 ["expsum", "--kind", "itlog", "--c", "1.05",
                  "--N", "16385,100000"], id="expsum-N-x0"),
    pytest.param(["expsum", "--c", "1.2", "--N", f"1000,{_BIG}"],
                 f"N=1000,{_BIG}: outside [0, 2^62]", None,
                 id="expsum-N-big"),
    pytest.param(["waring", "--lam", f"100,{_BIG}"],
                 f"lam=100,{_BIG}: outside [0, 2^62]", None,
                 id="waring-lam-big"),
    # one grid point leaves no average to compare; refused in CLI terms
    # before the sieve, not in convergence_report's after it
    pytest.param(["ergodic", "--jmin", "12", "--jmax", "12"],
                 "got --jmin 12 --jmax 12",
                 ["ergodic", "--jmin", "11", "--jmax", "12"],
                 id="ergodic-jmin-jmax"),
    pytest.param(["ergodic", "--jmin", "2000", "--jmax", "3000"],
                 "got --jmin 2000 --jmax 3000", None, id="ergodic-jmax-big"),
    # logpow c = 1.05 has x0 = 32768 = 2^15: the smallest N is 2^jmin
    pytest.param(["ergodic", "--kind", "logpow", "--c", "1.05",
                  "--jmax", "18", "--jmin", "15"], "x0=32768",
                 ["ergodic", "--kind", "logpow", "--c", "1.05",
                  "--jmax", "18", "--jmin", "16"], id="ergodic-jmin-x0"),
    # lambda_weight_sum(2^40) would sieve to 2^40 and hold 57 TiB
    pytest.param(["ergodic", "--jmax", "14",
                  "--kgrid", "10,100,1099511627776"],
                 "kgrid=1099511627776", None, id="ergodic-kgrid"),
    pytest.param(["ergodic", "--kgrid", f"10,{_BIG}"],
                 f"kgrid=10,{_BIG}: outside [0, 2^62]", None,
                 id="ergodic-kgrid-big"),
    # each table alone fits, the orbit and the weights together do not
    pytest.param(["ergodic", "--jmax", "28", "--kgrid", "10,30000000"],
                 "jmax=28 kgrid=30000000 needs about", None,
                 id="ergodic-both"),
    # 1e9 would ask for about 75 GiB of identity tables
    pytest.param(["vaughan-check", "--nmax", "1000000000"],
                 "nmax=1000000000 needs about", None, id="vaughan-nmax"),
    pytest.param(["vaughan-check", "--nmax", _BIG],
                 f"nmax={_BIG}: outside [0, 2^62]", None,
                 id="vaughan-nmax-big"),
]


@pytest.mark.parametrize("argv, says, admitted", _REFUSED)
def test_refused_before_work(tmp_path, monkeypatch, capsys, argv, says,
                             admitted):
    # exit 1 with the refusal on stderr, before any sieve or spf table and
    # under 1 MiB traced, and no report written
    calls = _sieve_calls(monkeypatch)
    monkeypatch.setattr(primes, "spf_table", lambda n: calls.append(n))
    out = tmp_path / "r.txt"
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and says in err
    assert calls == [] and peak < 1 << 20
    assert not out.exists() and not (tmp_path / "r.txt.json").exists()
    if admitted:
        assert cli.parse_config(admitted)


# two sizes of each subcommand whose plan is not 0; ergodic's second is
# sized by its weights, its first by its orbit
_PLANNED = {
    "expsum-1e6": ["expsum", "--c", "1.2", "--N", "1000000", "--xi", "zero"],
    "expsum-4e6": ["expsum", "--c", "1.2", "--N", "4000000",
                   "--xi", "zero,halfcut,cut"],
    "waring-1e4": ["waring", "--lam", "1000,10000"],
    "waring-1e5": ["waring", "--lam", "1000,100000"],
    "ergodic-2^22": ["ergodic", "--jmax", "22", "--kgrid", "10,100"],
    "ergodic-5e5": ["ergodic", "--jmax", "20", "--kgrid", "10,500000"],
    "explicit-1e6": ["explicit", "--x", "1e6", "--T", "100"],
    "explicit-1e7": ["explicit", "--x", "1e7", "--T", "100"],
    "vaughan-1e5": ["vaughan-check", "--nmax", "100000"],
    "vaughan-4e5": ["vaughan-check", "--nmax", "400000"],
}


def _plan_and_traced_peak(tmp_path, monkeypatch, argv) -> tuple[float, int]:
    """A request's plan and the traced peak of its cold run, with the
    primes and the packaged zero table unread."""
    _sieve_calls(monkeypatch)
    monkeypatch.setattr(zeta, "_packaged_table",
                        functools.cache(zeta._packaged_table.__wrapped__))
    plan = cli._validate(cli.parse_config(argv))
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(tmp_path / "r.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return plan, peak


@pytest.mark.parametrize("argv", _PLANNED.values(), ids=_PLANNED.keys())
def test_plan_covers_traced_peak(tmp_path, monkeypatch, argv):
    # a cold run holds at its peak at most its plan and at least a third
    # of it.  tracemalloc sees numpy's arrays but not pocketfft's own
    # buffers, so waring's estimate, which plans for RSS, lies well above
    # its peak.  Every record that plans bytes has its two sizes here
    assert ({run[0] for run in _PLANNED.values()}
            == {run[0] for run in _SMALL_RUNS
                if cli._validate(cli.parse_config(run))})
    plan, peak = _plan_and_traced_peak(tmp_path, monkeypatch, argv)
    assert peak <= plan <= 3 * peak


def test_plan_covers_a_zero_table_file(tmp_path, monkeypatch):
    # a --zero-table file is planned from its size, at most (size + 1)/3
    # ordinates; a valid table of short lines: the lowest zero, then the
    # integers 15 ... 99999
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("14.134725142\n"
                     + "".join(f"{k}\n" for k in range(15, 100000)))
    plan, peak = _plan_and_traced_peak(
        tmp_path, monkeypatch,
        ["explicit", "--x", "1e6", "--T", "100", "--zero-table", str(zeros)])
    assert peak <= plan <= 3 * peak


# every size key of every subcommand, the other keys those of a small run
_SIZE_KEYS = [("expsum", "N", ["--c", "1.2"]), ("waring", "lam", []),
              ("ergodic", "jmin", []), ("ergodic", "jmax", []),
              ("ergodic", "kgrid", []), ("vaughan-check", "nmax", []),
              ("vaughan-check", "cases", [])]


@pytest.mark.parametrize("sub, key, rest", _SIZE_KEYS,
                         ids=[f"{sub}-{key}" for sub, key, _ in _SIZE_KEYS])
def test_size_key_edge_tokens(sub, key, rest):
    # parse_config returns or raises a ValueError naming the key, never
    # anything else, at the edge tokens and around the largest value the
    # key admits, found by bisection from its default
    def refused(value) -> bool:
        try:
            cli.parse_config([sub, *rest, f"--{key}", str(value)])
        except ValueError as exc:
            assert key in str(exc)
            return True
        return False

    default = cli._SUBCOMMANDS[sub].keys[key][1]
    lo, hi = (default[-1] if isinstance(default, list) else default), 1 << 63
    assert not refused(lo) and refused(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    for tok in (0, 1, 1 << 53, 1 << 62, 1 << 63, 10 ** 400, lo - 1, lo):
        refused(tok)
    assert refused(lo + 1)


def test_expsum_term_cap_is_h_of_max_N():
    # h(N) = N**1.5 crosses 2^28 between these two N
    lo, hi = 416127, 416128
    assert lo ** 1.5 < 2 ** 28 < hi ** 1.5
    assert cli.parse_config(["expsum", "--c", "1.5", "--N", str(lo)])["N"] == [lo]
    with pytest.raises(ValueError, match="approximant terms"):
        cli.parse_config(["expsum", "--c", "1.5", "--N", f"1000,{hi}"])


@pytest.mark.parametrize("args", [
    ["--c", "1.9", "--jmax", "28"],  # h(2^28) = 2^53.2: no fractional bit
    ["--jmax", "30"],                # about 3.9e9 bytes of orbit tables
    ["--jmin", "12", "--jmax", "11"],
])
def test_ergodic_refuses_oversized_jmax_before_work(tmp_path, monkeypatch,
                                                    args):
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "erg.txt"
    assert cli.main(["ergodic", *args, "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["expsum", "--c", "1.2", "--xi", "nan"], "xi"),
    (["expsum", "--c", "1.2", "--xi", "zero,inf"], "xi"),
    (["waring", "--c2", "inf"], "c2"),
    (["expsum", "--kind", "logpow", "--c", "1.2", "--a", "inf"], "a"),
    (["expsum", "--c", "nan"], "c"),
    (["ergodic", "--start", "nan"], "start"),
    (["ergodic", "--start=-inf"], "start"),  # argparse reads -inf as a flag
    (["explicit", "--x", "inf", "--T", "10"], "x"),
    (["explicit", "--T", "10,nan"], "T"),
    (["vaughan-check", "--v", "2,inf"], "v"),
])
def test_non_finite_floats_refused_before_work(tmp_path, monkeypatch, capsys,
                                               argv, key):
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "f.txt"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert f"error: {key}=" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_numeric_xi_tokens_still_run():
    cfg = cli.parse_config(["expsum", "--c", "1.2", "--xi", "zero,-0.25,1e-3"])
    assert cfg["xi"] == ["zero", "-0.25", "1e-3"]


@pytest.mark.parametrize("xi", ["1e308", "-2e300"])
def test_huge_xi_prints_the_zero_rows(capsys, xi):
    # every double this large is an integer, and each sum is 1-periodic in
    # xi, so the rows are xi = 0's but for the xi column
    rows = {}
    for tok in (xi, "zero"):
        assert cli.main(["expsum", "--c", "1.2", "--N", "10000,20000",
                         f"--xi={tok}"]) == 0
        rows[tok] = [line.split() for line in capsys.readouterr().out
                     .splitlines() if not line.startswith("#")]
    assert [float(row[1]) for row in rows[xi]] == [float(xi)] * 2
    assert ([row[:1] + row[2:] for row in rows[xi]]
            == [row[:1] + row[2:] for row in rows["zero"]])


def _grid_token(rng, draw) -> str:
    """One to three entries from draw(), ascending, the last sometimes
    repeated: equal ends."""
    grid = sorted(draw() for _ in range(rng.randint(1, 3)))
    return ",".join(map(str, grid + grid[-1:] * (rng.random() < 0.1)))


def _log_int(rng, lo: float, hi: float) -> int:
    return int(10 ** rng.uniform(lo, hi))


# per key, one value for the sweep below, mostly one the parser accepts.
# N draws around 2^k: every x0 is a power of two (regvar's scan doubles),
# so 2^k - 1, 2^k and 2^k + 1 straddle it.  cases stays small: nothing
# bounds its time yet
_DRAW = {
    "threads": lambda r: r.choice(["1", "2"]),
    "kind": lambda r: r.choice(["pure", "logpow", "explog", "itlog"]),
    "c": lambda r: repr(r.uniform(1.0, 2.0)),
    "a": lambda r: repr(r.uniform(-1.0, 1.0)),
    "b": lambda r: repr(r.uniform(0.0, 1.2)),
    "depth": lambda r: str(r.randint(0, 4)),
    "N": lambda r: _grid_token(r, lambda: r.choice([
        2 ** r.randint(1, 21) + r.randint(-1, 1), _log_int(r, 2, 6)])),
    "xi": lambda r: ",".join(r.sample(
        ["zero", "halfcut", "cut", repr(r.uniform(-1.0, 1.0))],
        r.randint(1, 3))),
    "c1": lambda r: repr(r.uniform(1.0, 2.0)),
    "c2": lambda r: repr(r.uniform(1.0, 2.0)),
    "c3": lambda r: repr(r.uniform(1.0, 2.0)),
    "lam": lambda r: _grid_token(r, lambda: _log_int(r, 0, 5)),
    "start": lambda r: repr(r.uniform(-3.0, 3.0)),
    "jmin": lambda r: str(r.randint(1, 14)),
    "jmax": lambda r: str(r.randint(2, 20)),
    "kgrid": lambda r: _grid_token(r, lambda: _log_int(r, 0, 5)),
    "seed": lambda r: str(r.randint(-1, 99)),
    "x": lambda r: _grid_token(r, lambda: 10 ** r.uniform(0.0, 6.5)),
    "T": lambda r: _grid_token(r, lambda: 10 ** r.uniform(0.0, 3.0)),
    "nmax": lambda r: str(_log_int(r, 0, 5)),
    "v": lambda r: _grid_token(r, lambda: 10 ** r.uniform(-0.5, 2.0)),
    "cases": lambda r: str(r.randint(0, 4)),
}
_EDGES = ["nan", "inf", "-inf", "-0", "1e300", "1.7e308", str(2 ** 63)]


def test_every_request_runs_to_finite_rows_or_is_refused(monkeypatch,
                                                         capsys):
    # a seeded sweep over every key of every record (but the paths):
    # main returns 0 or 1 and never raises, but for expsum's --check,
    # whose err/N step is criterion 04's open claim and may exit 2; a
    # refusal sieved nothing and printed no report; a run printed only
    # finite data, but for the split row's param, nan by design.  The
    # lowered cap keeps the accepted runs small
    monkeypatch.setattr(cli, "_MEMORY_CAP", 8 << 20)
    calls = _sieve_calls(monkeypatch)
    rng = random.Random(36)
    codes = {run[0]: set() for run in _SMALL_RUNS}
    for base in _SMALL_RUNS:
        keys = sorted(set(cli._COMMON).union(cli._SUBCOMMANDS[base[0]].keys)
                      - {"out", "zero_table"})
        for _ in range(60):
            # the small run with some keys drawn anew; the last flag wins
            argv, edgy = list(base), rng.random() < 0.5
            for key in keys:
                if rng.random() < 0.6:
                    continue
                if key == "check":  # a bare flag
                    argv.append("--check")
                    continue
                value = (rng.choice(_EDGES) if edgy and rng.random() < 0.3
                         else _DRAW[key](rng))
                argv.append(f"--{key.replace('_', '-')}={value}")
            calls.clear()
            primes._cache.update(hi=0, primes=np.empty(0, dtype=np.int64))
            try:
                code = cli.main(argv)
            except Exception as exc:  # any escape fails the sweep
                pytest.fail(f"{argv} raised {exc!r}")
            out, err = capsys.readouterr()
            codes[base[0]].add(code)
            if code == 2:
                assert base[0] == "expsum", argv
                assert all(line.startswith("check failure: err/N not "
                                           "decreasing")
                           for line in err.splitlines()), (argv, err)
            else:
                assert code in (0, 1), argv
            if code == 1:
                assert calls == [] and out == "", argv
                continue
            for row in (line.split() for line in out.splitlines()
                        if not line.startswith("#")):
                for i, value in enumerate(row):
                    if (row[0], i) == ("split", 1):
                        continue
                    try:
                        value = float(value)
                    except ValueError:  # a label
                        continue
                    assert math.isfinite(value), (argv, row)
    del codes["regvar-check"]  # no key of its own to refuse
    assert all(got - {2} == {0, 1} for got in codes.values()), codes


def test_threads_capped_in_the_parser():
    # checked through parse_config only, so no thread is started
    assert cli._THREAD_CAP >= 8  # criterion 10 runs 1, 4 and 8
    assert cli.parse_config(["ergodic", "--threads", "8"])["threads"] == 8
    cap = str(cli._THREAD_CAP)
    assert cli.parse_config(["explicit", "--threads", cap])["threads"] == cli._THREAD_CAP
    for bad in (str(cli._THREAD_CAP + 1), "100000", "0"):
        with pytest.raises(ValueError, match="threads"):
            cli.parse_config(["ergodic", "--threads", bad])


@pytest.mark.parametrize("kgrid", ["1", "1,10", "0,5"])
def test_ergodic_refuses_kgrid_below_two_before_work(tmp_path, monkeypatch,
                                                     capsys, kgrid):
    # lambda_weights needs k >= 2; the parser says so before any sieve
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "erg.txt"
    assert cli.main(["ergodic", "--kgrid", kgrid, "--out", str(out)]) == 1
    assert "kgrid" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    assert cli.parse_config(["ergodic", "--kgrid", "2,3"])["kgrid"] == [2, 3]


@pytest.mark.parametrize("argv", [
    ["ergodic", "--seed", "-1"],
    ["ergodic", "--seed=-7"],
    ["vaughan-check", "--nmax", "300", "--v", "2", "--seed", "-1"],
])
def test_negative_seed_refused_before_work(tmp_path, monkeypatch, capsys,
                                           argv):
    # numpy's generators refuse a negative seed; the parser does so first
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "s.txt"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "seed=-" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    assert cli.parse_config([argv[0], "--seed", "0"])["seed"] == 0


def test_ergodic_kgrid_cap_admits_its_boundary():
    # the weights share the cap with the orbit to 2^jmax, 2^20 by default
    orbit = expsum.BYTES_PER_PRIME * primes.pi_bound(2.0 ** 20)
    top = int((cli._MEMORY_CAP - orbit) // ergodic.WEIGHT_BYTES_PER_K) - 1
    assert top == 37575223
    assert cli.parse_config(["ergodic", "--kgrid", f"10,{top}"])["kgrid"][-1] == top
    with pytest.raises(ValueError, match=f"kgrid={top + 1}"):
        cli.parse_config(["ergodic", "--kgrid", f"10,{top + 1}"])


@pytest.mark.parametrize("argv", [
    ["ergodic", "--kgrid", "-2,10"],  # argparse reads -2,10 as a flag
    ["expsum", "--no-such-flag", "1"],
    ["nosuchcommand"],
])
def test_usage_errors_exit_one_before_work(tmp_path, monkeypatch, capsys, argv):
    # exit 2 is a --check violation's; a usage error is refused like any
    # other bad request, with argparse's message on stderr
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "u.txt"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: primeorbits") and "error: " in err
    assert calls == []
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    assert "usage: primeorbits" in capsys.readouterr().out


@pytest.mark.parametrize("sub", cli._SUBCOMMANDS)
def test_subcommand_help_lists_its_keys(capsys, sub):
    # each record's subparser holds _COMMON's keys and its own, no other
    with pytest.raises(SystemExit) as done:
        cli.main([sub, "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: primeorbits {sub} ")
    keys = {**cli._COMMON, **cli._SUBCOMMANDS[sub].keys}
    assert set(re.findall(r"--[\w-]+", out)) == {
        "--help", *("--" + key.replace("_", "-") for key in keys)}


def test_parser_is_built_once(monkeypatch):
    # parse_config reuses one parser: no subparser is added after the first
    cli.parse_config(["regvar-check"])
    added = []
    monkeypatch.setattr(cli._Parser, "add_argument",
                        lambda self, *a, **k: added.append(a))
    for argv in _SMALL_RUNS:
        cli.parse_config(argv)
    assert added == []


def test_ergodic_jmax_caps_admit_their_boundary():
    assert cli.parse_config(["ergodic", "--c", "1.9", "--jmax", "27"])
    assert cli.parse_config(["ergodic", "--jmax", "29"])


@pytest.mark.parametrize("args", [
    ["--nmax", "10", "--v", "20"],     # no n in (v, nmax]
    ["--nmax", "10", "--v", "2,10"],   # nmax must exceed the largest v
    ["--nmax", "-5"],
    ["--cases", "-3"],
    ["--nmax", "-5", "--cases", "-3"],
])
def test_vaughan_refuses_empty_ranges_before_work(tmp_path, monkeypatch,
                                                  capsys, args):
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "v.txt"
    assert cli.main(["vaughan-check", *args, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()
    assert not (tmp_path / "v.txt.json").exists()


def test_vaughan_admits_nmax_just_above_v(tmp_path):
    out = tmp_path / "v.txt"
    assert cli.main(["vaughan-check", "--nmax", "11", "--v", "10",
                     "--cases", "0", "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "v.txt.json").read_text())["rows"]
    assert rows[0][:3] == ["identity", 10.0, 1]
    assert rows[1][2] == 0


def test_vaughan_nmax_cap_is_the_table_bytes():
    top = ((cli._MEMORY_CAP - vaughan.SPLIT_BYTES)
           // vaughan.IDENTITY_BYTES_PER_N - 1)
    assert top == 26817330
    assert cli.parse_config(["vaughan-check", "--nmax", str(top)])
    with pytest.raises(ValueError, match="nmax"):
        cli.parse_config(["vaughan-check", "--nmax", str(top + 1)])
    with pytest.raises(ValueError, match="cutoffs"):
        cli.parse_config(["vaughan-check", "--v", "0.5,2"])


def test_vaughan_identity_bytes_bound_the_run(tmp_path):
    # the per-n estimate behind the cap holds for a whole identity row
    nmax = 200000
    cli.main(["vaughan-check", "--nmax", "300", "--v", "2", "--cases", "0",
              "--out", str(tmp_path / "warm.txt")])
    tracemalloc.start()
    try:
        code = cli.main(["vaughan-check", "--nmax", str(nmax), "--v", "2",
                         "--cases", "0", "--out", str(tmp_path / "v.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= vaughan.IDENTITY_BYTES_PER_N * (nmax + 1)


def test_ergodic_builds_the_orbit_once(tmp_path, monkeypatch):
    calls = []
    real = ergodic.rotation_points

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ergodic, "rotation_points", counting)
    assert cli.main(["ergodic", "--jmin", "10", "--jmax", "14",
                     "--out", str(tmp_path / "erg.txt")]) == 0
    assert len(calls) == 1


def test_explicit_check_passes(tmp_path):
    out = tmp_path / "e.txt"
    code = cli.main(["explicit", "--x", "1000", "--T", "100,1000",
                     "--check", "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "zeros=" in body
    assert "check: pass" in body


def test_explicit_work_note(tmp_path):
    # N(T) zeros per row, in the header and the mirror, not in the rows
    out = tmp_path / "e.txt"
    assert cli.main(["explicit", "--x", "1000,10000", "--T", "100,1000",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    work = [ln for ln in lines if ln.startswith("# work:")]
    assert work == ["# work: zeros_summed=1356"]  # 2 x (29 + 649)
    mirror = json.loads((tmp_path / "e.txt.json").read_text())
    assert work[0][2:] in mirror["notes"]
    assert all(len(row) == 6 for row in mirror["rows"])


def test_vaughan_work_note(tmp_path):
    # sieve entries of the identity rows, the split's n_terms and its phase
    # sums, in the header and the mirror, not in the rows
    nmax, v = 300, 2.0
    out = tmp_path / "v.txt"
    assert cli.main(["vaughan-check", "--nmax", str(nmax), "--v", "2",
                     "--cases", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    work = [ln for ln in lines if ln.startswith("# work:")]
    assert len(work) == 1
    # t1 at l = 1, 2; t2 at l = 2, 4 (pi_vw = log 2, -log 2); t3 at each
    # prime power 2 < k <= nmax / 3 over the l in (2, nmax / k]
    lam = primes.von_mangoldt_range(0, nmax + 1)
    t3 = sum(nmax // k - 2 for k in range(3, nmax // 3 + 1) if lam[k])
    sieve = nmax + nmax // 2 + nmax // 2 + nmax // 4 + t3
    rng = random.Random(0)
    p1 = rng.uniform(2000.0, 12000.0)
    p = rng.uniform(max(2.0, p1 ** (1 / 3)), p1 / 2.0)
    split = vaughan.exp_sum_split(pure_power(1.2), p, p1,
                                  rng.uniform(-0.5, 0.5), rng.randrange(4))
    # at these sizes one phase sum per bilinear sum and the reference
    assert work == [f"# work: sieve_terms={sieve} "
                    f"split_terms={split.n_terms} phase_sums=5"]
    mirror = json.loads((tmp_path / "v.txt.json").read_text())
    assert work[0][2:] in mirror["notes"]
    assert mirror["rows"][0][:3] == ["identity", 2.0, nmax - 2]
    assert all(len(row) == 4 for row in mirror["rows"])


def test_readme_commands_leave_numpy_ma_out(tmp_path):
    # modules no README command needs, each costly at its first import:
    # numpy.ma about 13 ms, numpy.random 5-6 MB and 16-23 ms (the seeded
    # draws use the random module), concurrent.futures about 0.4 MB (the
    # sieve's pool, only for --threads > 1), numpy.polynomial 3-5 ms (the
    # Gauss-Legendre tables are literals)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = (
        "import sys\n"
        "from primeorbits import cli\n"
        "runs = [['expsum', '--c', '1.2', '--N', '1000',"
        " '--xi', 'zero,halfcut,cut'],\n"
        "        ['waring', '--lam', '100,200'],\n"
        "        ['explicit', '--x', '1000', '--T', '100', '--check'],\n"
        "        ['vaughan-check', '--nmax', '300', '--v', '2,5',"
        " '--cases', '1', '--check'],\n"
        "        ['ergodic', '--jmin', '10', '--jmax', '12',"
        " '--kgrid', '10,100', '--check'],\n"
        "        ['regvar-check', '--check']]\n"
        "for i, argv in enumerate(runs):\n"
        f"    assert cli.main(argv + ['--out', r'{tmp_path}/r%d' % i]) == 0\n"
        "print([m for m in ['numpy.ma', 'numpy.random', 'numpy.polynomial',\n"
        "                   'concurrent.futures'] if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_check_violation_exits_two(tmp_path, monkeypatch):
    # break the explicit formula on purpose: the error must blow the bound
    monkeypatch.setattr(cli.zeta, "truncated_psi",
                        lambda x, T, table: 0.0)
    out = tmp_path / "bad.txt"
    code = cli.main(["explicit", "--x", "1000", "--T", "1000",
                     "--check", "--out", str(out)])
    assert code == 2
    assert "check: FAIL" in out.read_text()


def _plus_one_at_150(real):
    def counts(*args, **kwargs):
        out = real(*args, **kwargs)
        out[150] += 1
        return out
    return counts


def _last_weight_up(real):
    def weights(k):
        lam = real(k)
        lam[-1] += 1e-6
        return lam
    return weights


_SPLIT_RUN = ["vaughan-check", "--nmax", "300", "--v", "2", "--cases", "1"]


# one fault per remaining --check predicate, in the kernel it guards; the
# explicit bound and the err/N step have tests of their own above
@pytest.mark.parametrize("argv, target, name, fault, says", [
    pytest.param(["waring", "--lam", "100,200"], waring, "triple_counts_all",
                 _plus_one_at_150, "convolution r(150)=", id="waring-oracle"),
    pytest.param(["waring", "--lam", "100,200"], waring, "triple_counts_at",
                 lambda real: lambda *a, **kw: real(*a, **kw) + 1,
                 "reported r(100)=", id="waring-pointwise"),
    pytest.param(["waring", "--lam", "1000,10000"], waring, "gamma_constant",
                 lambda real: lambda config: 3.0 * real(config),
                 "ratio r/main at lambda=1000 outside [0.5, 2]",
                 id="waring-ratio"),
    pytest.param(["ergodic", "--jmin", "10", "--jmax", "12",
                  "--kgrid", "10,100"], ergodic, "lambda_weights",
                 _last_weight_up, "lambda weights at k=10 sum off by 1.00e-06",
                 id="ergodic-weights"),
    pytest.param(_SPLIT_RUN, vaughan, "lambda_via_vaughan_upto",
                 lambda real: lambda *a, **kw: real(*a, **kw) + 1e-6,
                 "identity residual", id="vaughan-identity"),
    pytest.param(_SPLIT_RUN, vaughan, "exp_sum_split",
                 lambda real: lambda *a, **kw: dataclasses.replace(
                     real(*a, **kw), s3=0j),
                 "four-sum split residual", id="vaughan-split"),
    pytest.param(["regvar-check"], InverseHandle, "value",
                 lambda real: lambda self, y: real(self, y) * (1.0 + 1e-6),
                 "roundtrip", id="regvar-roundtrip"),
    pytest.param(["regvar-check"], RegVarFunction, "d1",
                 lambda real: lambda self, x: real(self, x) * 1.1,
                 "index error", id="regvar-index"),
    pytest.param(["regvar-check"], InverseHandle, "doubling_constant",
                 lambda real: lambda self: 0.0, "doubling bound violated",
                 id="regvar-doubling"),
])
def test_check_fires_on_a_named_fault(tmp_path, monkeypatch, capsys, argv,
                                      target, name, fault, says):
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    out = tmp_path / "f.txt"
    assert cli.main([*argv, "--check", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert says in err
    assert all(ln.startswith("check failure: ") for ln in err.splitlines())
    assert "check: FAIL" in out.read_text()


def test_regvar_check(tmp_path):
    out = tmp_path / "r.txt"
    assert cli.main(["regvar-check", "--check", "--out", str(out)]) == 0
    body = out.read_text()
    assert "roundtrip" in body
    assert len([ln for ln in body.splitlines()
                if not ln.startswith("#")]) == 5  # one row per catalog member


def test_ergodic_run(tmp_path):
    # --check passes: the lambda weights at each kgrid entry sum to 1
    out = tmp_path / "erg.txt"
    code = cli.main(["ergodic", "--c", "1.1", "--jmin", "10", "--jmax", "20",
                     "--kgrid", "10,100", "--check", "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "o2_dyadic=" in body
    assert "k=100" in body
    # the orbit runs over the pi(2^20) primes p <= 2^jmax; the count sits
    # in the header and the mirror, not in the rows
    work = [ln for ln in body.splitlines() if ln.startswith("# work:")]
    assert work == ["# work: orbit_points=82025"]
    mirror = json.loads((tmp_path / "erg.txt.json").read_text())
    assert work[0][2:] in mirror["notes"]
    assert all(len(row) == 6 for row in mirror["rows"])


def test_ergodic_seed_moves_only_its_note(tmp_path):
    # the seed draws the random O^2 ensemble, whose maximum is a note:
    # two seeds print the same rows and different o2_random_max notes
    rows, notes = {}, {}
    for seed in (0, 7):
        out = tmp_path / f"e{seed}.txt"
        assert cli.main(["ergodic", "--jmin", "10", "--jmax", "20",
                         "--kgrid", "10", "--seed", str(seed),
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows[seed] = [ln for ln in lines if not ln.startswith("#")]
        notes[seed] = [ln for ln in lines if ln.startswith("# o2_random_max=")]
    assert rows[0] == rows[7] and rows[0]
    assert len(notes[0]) == len(notes[7]) == 1 and notes[0] != notes[7]


def test_stdout_when_no_out(capsys):
    code = cli.main(["regvar-check"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# primeorbits")
    assert "# columns:" in captured


# ------------------------------------------------------------------ reports

def run_expsum(tmp_path, name: str, threads: int = 1):
    out = tmp_path / name
    code = cli.main(["expsum", "--c", "1.2", "--N", "1000,4000",
                     "--xi", "zero,halfcut,cut",
                     "--threads", str(threads), "--out", str(out)])
    assert code == 0
    return out


def test_json_mirror_schema(tmp_path):
    out = run_expsum(tmp_path, "run.txt")
    text = out.read_text()
    mirror = json.loads((tmp_path / "run.txt.json").read_text())
    assert set(mirror) == {"version", "subcommand", "config", "notes",
                           "columns", "rows"}
    assert mirror["subcommand"] == "expsum"
    assert mirror["config"]["threads"] == 1
    assert mirror["config"]["N"] == [1000, 4000]
    data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(data_lines) == len(mirror["rows"]) == 6
    assert mirror["columns"][0] == "N"
    # named xi tokens resolved per-N
    theta1 = 6 * 1.2 / 5 - 14 / 15
    row = next(r for r in mirror["rows"] if r[0] == 4000 and r[1] != 0.0)
    assert row[1] in (pytest.approx(0.5 * 4000 ** -theta1),
                      pytest.approx(4000 ** -theta1))
    # each mirror value is its text token: an int, or the float that its
    # .17g reads back as
    for line, values in zip(data_lines, mirror["rows"]):
        tokens = line.split()
        assert len(tokens) == len(values)
        for tok, v in zip(tokens, values):
            if isinstance(v, int):
                assert tok == str(v)
            else:
                assert isinstance(v, float) and float(tok) == v


def test_report_embeds_config_and_version(tmp_path):
    out = run_expsum(tmp_path, "run.txt")
    head = out.read_text().splitlines()
    assert head[0].startswith("# primeorbits 0.")
    assert "c=1.2" in head[1]
    assert "kind=pure" in head[1]


def test_rows_identical_across_threads(tmp_path):
    # computed output must not depend on the worker count; the embedded
    # config echoes the thread flag, so compare the data rows
    outs = [run_expsum(tmp_path, f"t{k}.txt", threads=k) for k in (1, 4, 8)]
    def rows(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]
    r1, r4, r8 = (rows(o) for o in outs)
    assert r1 == r4 == r8


def test_function_from_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        cli._function_from({"kind": "cubic", "c": 1.2})
    with pytest.raises(ValueError, match="needs c"):
        cli._function_from({"kind": "pure"})


def test_rows_identical_when_the_sieve_pool_runs(tmp_path, monkeypatch):
    # 2^22 spans two sieve jobs of 2 * SEGMENT numbers, so --threads 2
    # really starts a pool, which sieve_range imports from
    # concurrent.futures when it needs one; the data rows must not notice
    assert 2 ** 22 > 2 * primes.SEGMENT
    pools = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    rows = []
    for k in (1, 2):
        monkeypatch.setattr(primes, "_cache",
                            {"hi": 0, "primes": np.empty(0, dtype=np.int64)})
        out = tmp_path / f"erg.t{k}"
        assert cli.main(["ergodic", "--c", "1.1", "--jmin", "10", "--jmax", "22",
                         "--threads", str(k), "--out", str(out)]) == 0
        rows.append([ln for ln in out.read_text().splitlines()
                     if not ln.startswith("#")])
        assert pools == ([] if k == 1 else [2])
    assert rows[0] == rows[1]
