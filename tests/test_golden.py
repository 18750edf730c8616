"""Golden data rows: twelve CLI runs must print the rows they printed when
the fixture was recorded, bit for bit.

The runs are the six README commands, four non-pure expsum runs, a
waring run over a pure power with integer values and an ergodic run off
the default orbit.
Only data rows are compared (lines not starting with '#'); headers carry
versions, paths and work notes.  To re-record after an intended change of
results: PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from primeorbits import cli

FIXTURE = Path(__file__).with_name("golden_rows.json")

GOLDEN = [
    ["expsum", "--c", "1.2", "--N", "10000,100000", "--xi", "zero,halfcut,cut"],
    ["waring", "--c1", "1.01", "--c2", "1.01", "--c3", "1.01",
     "--lam", "1000,10000"],
    ["explicit", "--x", "1000,10000", "--T", "100,1000", "--check"],
    ["vaughan-check", "--nmax", "10000", "--v", "2,5,10", "--check"],
    ["ergodic", "--jmin", "10", "--jmax", "20", "--kgrid", "10,100,1000",
     "--check"],
    ["regvar-check", "--check"],
    ["expsum", "--kind", "logpow", "--c", "1.15", "--N", "10000,100000"],
    ["expsum", "--kind", "explog", "--c", "1.3", "--N", "10000,1000000",
     "--xi", "zero,cut,0.3"],
    ["expsum", "--kind", "itlog", "--c", "1.5", "--N", "10000,100000"],
    # heads of 262,143 terms, and phi' calls over 4,096 points
    ["expsum", "--kind", "itlog", "--c", "1.05", "--N", "20000,100000"],
    # x^1.5 takes integer values at squares; r(970300) = 714966 needs them
    # exact (floors from math.isqrt(m**3))
    ["waring", "--c1", "1.5", "--c2", "1.5", "--c3", "1.5",
     "--lam", "970299,970300"],
    # a non-pure h and a start off 0.35
    ["ergodic", "--kind", "logpow", "--c", "1.3", "--start", "0.9",
     "--jmin", "8", "--jmax", "16", "--kgrid", "10,50", "--check"],
]


def data_rows(argv: list[str], out: Path) -> list[str]:
    assert cli.main(argv + ["--out", str(out)]) == 0
    return [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]


@pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
def test_golden_rows(tmp_path, argv):
    want = json.loads(FIXTURE.read_text())[" ".join(argv)]
    assert data_rows(argv, tmp_path / "run.txt") == want


# R of the two waring runs while count_report took a second FFT product
# over every lambda; the direct sum at each lambda moved R only within
# the run's R bound
R_BEFORE = {
    " ".join(GOLDEN[1]): {1000: 335570.85061508318, 10000: 36914745.962538444},
    " ".join(GOLDEN[10]): {970299: 856940.92009769718,
                           970300: 664398.34137132531},
}


@pytest.mark.parametrize("run", R_BEFORE)
def test_waring_R_moved_within_its_bound(tmp_path, run):
    out = tmp_path / "run.txt"
    rows = data_rows(run.split(), out)
    note = next(ln for ln in out.read_text().splitlines()
                if ln.startswith("# work:"))
    bound = float(note.rsplit("R_bound=", 1)[1])
    assert len(rows) == len(R_BEFORE[run])
    for row in rows:
        lam, _, R = row.split()[:3]
        assert abs(float(R) - R_BEFORE[run][int(lam)]) <= bound


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = {" ".join(argv): data_rows(argv, Path(tmp) / "run.txt")
                for argv in GOLDEN}
    FIXTURE.write_text(json.dumps(rows, indent=1) + "\n")
