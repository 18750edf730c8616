"""CLI surface: config parsing, report emission, exit codes."""

import json
import math
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from primeorbits import cli, ergodic, expsum, primes, zeta


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
    assert cfg["seed"] == 0
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
    from_zero = [c for c in calls if c[0] == 0]
    assert len(from_zero) == 1 and from_zero[0][2] == 2


def test_expsum_work_note(tmp_path, monkeypatch):
    # what the run did sits in the header and the mirror, not in the rows
    monkeypatch.setattr(expsum, "_tables", OrderedDict())
    argv = ["expsum", "--c", "1.2", "--N", "1000,4000", "--xi", "zero,cut"]
    cold, warm = tmp_path / "cold.txt", tmp_path / "warm.txt"
    assert cli.main(argv + ["--out", str(cold)]) == 0
    assert cli.main(argv + ["--out", str(warm)]) == 0
    notes = []
    for out in (cold, warm):
        lines = out.read_text().splitlines()
        work = [ln for ln in lines if ln.startswith("# work:")]
        assert len(work) == 1
        mirror = json.loads(out.with_suffix(".txt.json").read_text())
        assert work[0][2:] in mirror["notes"]
        notes.append(dict(kv.split("=") for kv in work[0].split()[2:]))
    terms = 2 * (math.floor(1000 ** 1.2) + math.floor(4000 ** 1.2))
    pi1, pi4 = primes.prime_count(1000), primes.prime_count(4000)
    assert {k: int(v) for k, v in notes[0].items()} == {
        "floor_points": pi4, "recomputes": 0, "approximant_terms": terms,
        "digit_terms": 2 * (pi1 + pi4) + terms, "direct_terms": 0,
        "table_entries": int(notes[0]["table_entries"])}
    assert int(notes[0]["table_entries"]) > 0
    # the second run reads the stored floors and floors nothing
    assert notes[1]["floor_points"] == "0"
    rows = [[ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
            for out in (cold, warm)]
    assert rows[0] == rows[1]


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


def test_ergodic_jmax_caps_admit_their_boundary():
    assert cli.parse_config(["ergodic", "--c", "1.9", "--jmax", "27"])
    assert cli.parse_config(["ergodic", "--jmax", "30"])


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
    assert "seed=0" in head[1]


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
        monkeypatch.setattr(expsum, "_tables", OrderedDict())
        out = tmp_path / f"erg.t{k}"
        assert cli.main(["ergodic", "--c", "1.1", "--jmin", "10", "--jmax", "22",
                         "--threads", str(k), "--out", str(out)]) == 0
        rows.append([ln for ln in out.read_text().splitlines()
                     if not ln.startswith("#")])
        assert pools == ([] if k == 1 else [2])
    assert rows[0] == rows[1]
