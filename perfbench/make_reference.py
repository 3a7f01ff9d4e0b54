"""Regenerate perfbench/reference.json from the program at hand.

    python3 perfbench/make_reference.py

The frozen values are answers that no seed can change: solution counts
and (omega, chosen) per census tuple, extremal maxima, and the exit
code and stdout digest of each CLI command.  Run this only when an
answer is meant to change, and say why in the change that commits it;
the benchmark treats every difference from the file as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle
import run
from workloads import (CENSUS_GROUPS, DIGITS, EXTREMAL_GRID, EXTREMAL_LARGE, GREEDY,
                       CliSession, Extremal, stdout_digest)

# largest cap set in AG(4, 3) (Pellegrino 1970); exhaustive search at
# n = 4 does not finish, so the greedy bound is checked against this
CAP_SET_AG43 = 20


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    api = run.fresh_import(with_cli=True)
    ref: dict = {"census": {}, "extremal": {}, "cli": {}}
    for label, coeffs, p, n in CENSUS_GROUPS:
        spec = api.SystemSpec.make([coeffs], p)
        tuples = oracle.solutions_nonzero(coeffs, p, n)
        found = {}
        points = api.PointSet.full_space(n, p, include_zero=False)
        for sol in api.enumerate_solutions(spec, points):
            rep = api.partition_structure(sol.entries, spec)
            found[sol.entries] = (rep.omega, sum(1 << i for i in rep.chosen))
        if sorted(found) != tuples:
            raise SystemExit(f"{label} n={n}: enumeration disagrees with the oracle")
        ref["census"][f"{label} F_{p}^{n}"] = {
            "count": len(tuples),
            "omega": "".join(DIGITS[found[t][0]] for t in tuples),
            "chosen": "".join(DIGITS[found[t][1]] for t in tuples),
        }
    for s in EXTREMAL_GRID + EXTREMAL_LARGE:
        ref["extremal"][s.key] = api.exhaustive_max(Extremal._problem(api, s)).best_size
    ref["extremal"][GREEDY.key] = CAP_SET_AG43
    inputs = CliSession.setup(api, 0, ref, run.OUT / "work" / "reference")
    for tpl, argv in inputs.commands:
        code, out, _ = CliSession.job(api, argv)
        ref["cli"][tpl] = {"exit": code, "sha256": stdout_digest(out)}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
