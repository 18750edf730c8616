"""Record the default seed's outputs as reference.json.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs become the reference.  Each request
is run and checked against the independent references first; a request
that fails them is not recorded and the script exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference, bad = {}, 0
    cli_dir = HERE / "out" / "record_cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        session = workloads.Session(name, checks.DEFAULT_SEED, str(cli_dir))
        requests = workloads.generate(name, checks.DEFAULT_SEED)
        session.setup(requests)
        reference[name] = {}
        for req in requests:
            out = session.run(req)
            problems = workloads.check(session, req, out, recorded=False)
            if problems:
                print(f"{name} {req['id']}: {problems}", file=sys.stderr)
                bad += 1
                continue
            reference[name][req["id"]] = workloads.recordable(req, out)
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
