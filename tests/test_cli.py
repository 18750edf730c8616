"""CLI surface: config parsing, report emission, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from primeorbits import cli, ergodic, expsum, primes, vaughan, zeta
from primeorbits.regvar import pure_power


def write_config(tmp_path, text: str):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


# ----------------------------------------------------------------- parsing

def test_parse_happy_path():
    cfg = cli.parse_config(["expsum", "--c", "1.2", "--N", "10000",
                            "--xi", "0"])
    assert cfg["subcommand"] == "expsum"
    assert cfg["c"] == 1.2
    assert cfg["N"] == [10000]
    assert cfg["xi"] == ["0"]
    # defaults fill in
    assert cfg["format"] == "text"
    assert cfg["threads"] == 1
    assert cfg["kind"] == "pure"
    assert cfg["epsilon"] == pytest.approx(1.0 / 12.0)


def test_flag_overrides_config_file(tmp_path):
    p = write_config(tmp_path, "N = 1000\n# comment line\n\nxi = zero\n")
    cfg = cli.parse_config(["expsum", "--config", str(p), "--N", "2000",
                            "--c", "1.2"])
    assert cfg["N"] == [2000]
    assert cfg["xi"] == ["zero"]


def test_c_out_of_range():
    with pytest.raises(ValueError, match=r"outside \(1, 2\)"):
        cli.parse_config(["expsum", "--c", "2.5"])


def test_unknown_config_key_reports_line(tmp_path):
    p = write_config(tmp_path, "# header\nweird = 1\n")
    with pytest.raises(ValueError, match="unknown key 'weird'") as exc:
        cli.parse_config(["expsum", "--config", str(p), "--c", "1.2"])
    assert ":2:" in str(exc.value)


def test_config_file_requires_key_value(tmp_path):
    p = write_config(tmp_path, "just a line\n")
    with pytest.raises(ValueError, match="expected key=value"):
        cli.parse_config(["expsum", "--config", str(p)])


def test_flag_wrong_subcommand():
    with pytest.raises(ValueError, match="not valid"):
        cli.parse_config(["waring", "--N", "5"])


# keys no runner of that subcommand reads: each is a usage error
_UNREAD = [("expsum", "seed"), ("waring", "seed"), ("explicit", "seed"),
           ("regvar-check", "seed"), ("ergodic", "epsilon"),
           ("explicit", "epsilon"), ("vaughan-check", "epsilon"),
           ("regvar-check", "epsilon")]
_SMALL = {"expsum": ["--c", "1.2", "--N", "1000", "--xi", "zero"]}


@pytest.mark.parametrize("sub, key", _UNREAD)
def test_unread_key_exits_one(tmp_path, capsys, sub, key):
    value = "0.1" if key == "epsilon" else "3"
    out = tmp_path / "r.txt"
    assert cli.main([sub, *_SMALL.get(sub, []), f"--{key}", value,
                     "--out", str(out)]) == 1
    assert f"--{key} not valid for {sub}" in capsys.readouterr().err
    p = write_config(tmp_path, f"# a run\n{key} = {value}\n")
    assert cli.main([sub, *_SMALL.get(sub, []), "--config", str(p),
                     "--out", str(out)]) == 1
    assert f":2: unknown key {key!r} for {sub}" in capsys.readouterr().err
    assert not out.exists()


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


def test_bad_value_names_its_key_and_line(tmp_path):
    p = write_config(tmp_path, "c = 1.2\nN = 10,abc\n")
    with pytest.raises(ValueError, match=r":2: N=10,abc: invalid literal"):
        cli.parse_config(["expsum", "--config", str(p)])


def _config_line(cfg: dict) -> dict:
    line = cli.render_text(cfg, [], [], []).splitlines()[1]
    assert line.startswith("# config: ")
    return dict(kv.split("=", 1) for kv in
                line[len("# config: "):].replace(", ", ",").split())


def test_header_shows_effective_defaults():
    got = _config_line(cli.parse_config(["expsum", "--c", "1.2"]))
    assert got == {"N": "[10000,100000]", "c": "1.2", "check": "False",
                   "epsilon": "0.08333333333333333", "format": "text",
                   "kind": "pure", "threads": "1",
                   "xi": "['zero','halfcut','cut']"}
    got = _config_line(cli.parse_config(["ergodic"]))
    assert got == {"c": "1.1", "check": "False", "format": "text",
                   "jmax": "20", "jmin": "10", "kgrid": "[10,100,1000]",
                   "kind": "pure", "seed": "0", "start": "0.35",
                   "threads": "1"}


@pytest.mark.parametrize("argv", [
    ["expsum", "--c", "1.2", "--N", "1000", "--xi", "zero"],
    ["waring"],
    ["ergodic", "--jmin", "10", "--jmax", "12"],
    ["explicit", "--x", "1000", "--T", "100"],
    ["vaughan-check", "--nmax", "300", "--v", "2", "--cases", "1"],
    ["regvar-check"],
])
def test_report_config_is_every_defaulted_key(tmp_path, argv):
    # the header and the mirror list the keys the run was given plus
    # every key of its subcommand that has a default
    out = tmp_path / "r.txt"
    assert cli.main(argv + ["--out", str(out)]) == 0
    given = {flag[2:] for flag in argv[1::2]} | {"out"}
    keys = {**cli._COMMON, **cli._KEYS[argv[0]]}
    want = given | {k for k, (_, default) in keys.items()
                    if default is not None}
    line = out.read_text().splitlines()[1]
    assert {kv.split("=", 1)[0] for kv in line.split()[2:]
            if "=" in kv} == want
    mirror = json.loads((tmp_path / "r.txt.json").read_text())
    assert set(mirror["config"]) == want


def test_grid_must_ascend():
    with pytest.raises(ValueError, match="ascending"):
        cli.parse_config(["expsum", "--c", "1.2", "--N", "100,100"])


def test_epsilon_and_threads_validation():
    with pytest.raises(ValueError, match="epsilon"):
        cli.parse_config(["expsum", "--c", "1.2", "--epsilon", "0.4"])
    with pytest.raises(ValueError, match="threads"):
        cli.parse_config(["expsum", "--c", "1.2", "--threads", "0"])
    with pytest.raises(ValueError, match="format"):
        cli.parse_config(["expsum", "--c", "1.2", "--format", "csv"])


# ------------------------------------------------------------------ running

def test_main_error_exit_code():
    assert cli.main(["expsum", "--c", "2.5"]) == 1


def test_main_missing_config_file():
    assert cli.main(["expsum", "--config", "/nonexistent/xyz.cfg"]) == 1


def test_explicit_empty_zero_file(tmp_path):
    empty = tmp_path / "zeros.txt"
    empty.write_text("")
    assert cli.main(["explicit", "--zero-table", str(empty)]) == 1


def test_vaughan_check_passes(tmp_path):
    out = tmp_path / "v.txt"
    code = cli.main(["vaughan-check", "--nmax", "2000", "--v", "2,5",
                     "--cases", "5", "--check", "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "check: pass" in body
    assert "max_resid" in body


def test_waring_check_oracle_mode(tmp_path):
    out = tmp_path / "w.txt"
    code = cli.main(["waring", "--c1", "1.2", "--c2", "1.2", "--c3", "1.2",
                     "--lam", "100,200", "--check", "--out", str(out)])
    assert code == 0
    assert "check: pass" in out.read_text()
    # the transform work sits in the header and the mirror, not in the rows
    work = [ln for ln in out.read_text().splitlines()
            if ln.startswith("# work:")]
    assert len(work) == 1 and "transform_length=512 limbs=1" in work[0]
    mirror = json.loads((tmp_path / "w.txt.json").read_text())
    assert work[0][2:] in mirror["notes"]


@pytest.mark.parametrize("lam", ["0,100", "100,100000000"])
def test_waring_refuses_lambda_before_work(tmp_path, lam):
    # lambda below h(x0) and a grid whose transforms would not fit in
    # memory are both refused while parsing, before any sieve or histogram
    out = tmp_path / "w.txt"
    assert cli.main(["waring", "--lam", lam, "--out", str(out)]) == 1
    assert not out.exists()
    assert not (tmp_path / "w.txt.json").exists()


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
        "digit_terms": 2 * (pi1 + pi4) + 4 * 255, "direct_terms": 0,
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


def test_expsum_refuses_oversized_table_before_work(tmp_path, monkeypatch):
    # h(1e7) at c=1.95 is about 4.5e13 approximant terms
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "e.txt"
    assert cli.main(["expsum", "--c", "1.95", "--N", "1000,10000000",
                     "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()


def test_expsum_term_cap_is_h_of_max_N():
    # h(N) = N**1.5 crosses 2^28 between these two N
    lo, hi = 416127, 416128
    assert lo ** 1.5 < 2 ** 28 < hi ** 1.5
    assert cli.parse_config(["expsum", "--c", "1.5", "--N", str(lo)])["N"] == [lo]
    with pytest.raises(ValueError, match="approximant terms"):
        cli.parse_config(["expsum", "--c", "1.5", "--N", f"1000,{hi}"])


@pytest.mark.parametrize("args", [
    ["--c", "1.9", "--jmax", "28"],  # h(2^28) = 2^53.2: no fractional bit
    ["--jmax", "31"],                # about 2^31.5 bytes of orbit arrays
    ["--jmin", "12", "--jmax", "11"],
])
def test_ergodic_refuses_oversized_jmax_before_work(tmp_path, monkeypatch,
                                                    args):
    calls = _sieve_calls(monkeypatch)
    out = tmp_path / "erg.txt"
    assert cli.main(["ergodic", *args, "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()


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


def test_ergodic_jmax_caps_admit_their_boundary():
    assert cli.parse_config(["ergodic", "--c", "1.9", "--jmax", "27"])
    assert cli.parse_config(["ergodic", "--jmax", "30"])


def test_vaughan_refuses_nmax_before_work(tmp_path, monkeypatch, capsys):
    # 1e9 would ask for about 75 GiB of identity tables
    calls = _sieve_calls(monkeypatch)
    monkeypatch.setattr(primes, "spf_table", lambda n: calls.append(n))
    out = tmp_path / "v.txt"
    tracemalloc.start()
    try:
        code = cli.main(["vaughan-check", "--nmax", "1000000000",
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "nmax=1000000000" in capsys.readouterr().err
    assert calls == [] and peak < 1 << 20
    assert not out.exists()


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
    top = cli._MEMORY_CAP // vaughan.IDENTITY_BYTES_PER_N - 1
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
    rng = np.random.default_rng(0)
    p1 = float(rng.uniform(2000.0, 12000.0))
    p = float(rng.uniform(max(2.0, p1 ** (1 / 3)), p1 / 2.0))
    split = vaughan.exp_sum_split(pure_power(1.2), p, p1,
                                  float(rng.uniform(-0.5, 0.5)),
                                  int(rng.integers(0, 4)))
    # at these sizes one phase sum per bilinear sum and the reference
    assert work == [f"# work: sieve_terms={sieve} "
                    f"split_terms={split.n_terms} phase_sums=5"]
    mirror = json.loads((tmp_path / "v.txt.json").read_text())
    assert work[0][2:] in mirror["notes"]
    assert mirror["rows"][0][:3] == ["identity", 2.0, nmax - 2]
    assert all(len(row) == 4 for row in mirror["rows"])


def test_readme_commands_leave_numpy_ma_out(tmp_path):
    # numpy.ma costs about 13 ms at its first import; no subcommand needs it
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
        "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_check_violation_exits_two(tmp_path, monkeypatch):
    # break the explicit formula on purpose: the error must blow the bound
    monkeypatch.setattr(cli.zeta, "truncated_psi",
                        lambda x, T, table: 0.0)
    out = tmp_path / "bad.txt"
    code = cli.main(["explicit", "--x", "1000", "--T", "1000",
                     "--check", "--out", str(out)])
    assert code == 2
    assert "check: FAIL" in out.read_text()


def test_regvar_check(tmp_path):
    out = tmp_path / "r.txt"
    assert cli.main(["regvar-check", "--check", "--out", str(out)]) == 0
    body = out.read_text()
    assert "roundtrip" in body
    assert len([ln for ln in body.splitlines()
                if not ln.startswith("#")]) == 5  # one row per catalog member


def test_ergodic_run(tmp_path):
    # the trend check wants the dyadic band where decay has set in
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


def test_stdout_when_no_out(capsys):
    code = cli.main(["regvar-check"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# primeorbits")
    assert "# columns:" in captured


# ------------------------------------------------------------------ reports

def run_expsum(tmp_path, name: str, fmt: str = "text", threads: int = 1):
    out = tmp_path / name
    code = cli.main(["expsum", "--c", "1.2", "--N", "1000,4000",
                     "--xi", "zero,halfcut,cut", "--format", fmt,
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


def test_json_format_swaps_mirror(tmp_path):
    out = run_expsum(tmp_path, "run.json", fmt="json")
    payload = json.loads(out.read_text())
    assert payload["subcommand"] == "expsum"
    mirror = (tmp_path / "run.json.txt").read_text()
    assert mirror.startswith("# primeorbits")


def test_report_embeds_config_and_version(tmp_path):
    out = run_expsum(tmp_path, "run.txt")
    head = out.read_text().splitlines()
    assert head[0].startswith("# primeorbits 0.")
    assert "c=1.2" in head[1]
    assert "kind=pure" in head[1]
    assert "epsilon=0.08333333333333333" in head[1]


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
    # really starts a pool; the data rows must not notice
    assert 2 ** 22 > 2 * primes.SEGMENT
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(primes, "ThreadPoolExecutor", CountingPool)
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
