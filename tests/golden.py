"""Write golden.json: the sha256 of every user-visible output on the test grid.

    python3 tests/golden.py --write

For each grid point of ``conftest.GRID`` (self-dual ordering) the outputs
are the ``verify`` text and JSON reports and the ``resolve`` text, JSON and
Macaulay2 dumps; at (3, 2) and (4, 2) also the output of ``gorlin ann``.
For each system of ``conftest.EXTRA`` (the d=4, n=4 benchmark point, a
system with mixed denominators and numerators near 2^70, and a d=7, n=2
point whose matrices are mostly zero cells) they are the ``verify`` text
and JSON reports and the ``resolve`` JSON dump.  At each point of
``PLAN_POINTS`` the closed-form plan ``oracles.build_plan(d, n)`` is pinned
in a canonical form (``canonical_plan``) that names every key and sorts
everything, so that how keys are interned or cells emitted does not move
the pin, but every coefficient does.  The plan records the lower half of
B, the middle map of odd d on one side of its diagonal; canonical_plan adds
the rest by the pairing rule before it hashes.
The pins record the outputs of the code they were made with, so regenerate
them only with a change that alters an output on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "golden.json"
ANN_POINTS = ((3, 2), (4, 2))
PLAN_POINTS = ((3, 2), (4, 2), (5, 2), (4, 3), (4, 4), (7, 2))

sys.path.insert(0, str(HERE.parent / "src"))

from conftest import EXTRA, GRID, GRID_SEEDS, extra_phi, grid_phi, grid_resolution  # noqa: E402
from gorlin import cli  # noqa: E402
from gorlin.differentials import build_resolution  # noqa: E402
from gorlin.export import (  # noqa: E402
    report_json,
    resolution_cas_script,
    resolution_json,
    resolution_text,
)
from gorlin.hookbasis import duality_basis, pairing  # noqa: E402
from gorlin.monomials import mul_var  # noqa: E402
from gorlin.verify import run_checks  # noqa: E402
from oracles import build_plan, skeleton_matrices  # noqa: E402


def outputs(d: int, n: int) -> dict[str, str]:
    """Every pinned output at one grid point, by name."""
    res = grid_resolution(d, n)
    report = run_checks(res, grid_phi(d, n))
    out = {
        "verify-text": report.to_text(),
        "verify-json": report_json(report),
        "resolve-text": resolution_text(res),
        "resolve-json": resolution_json(res),
        "resolve-cas": resolution_cas_script(res),
    }
    if (d, n) in ANN_POINTS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["ann", "--d", str(d), "--n", str(n),
                             "--seed", str(GRID_SEEDS[(d, n)]), "--bound", "5"])
        out["ann"] = f"exit {code}\n{buf.getvalue()}"
    return out


def extra_outputs(label: str) -> dict[str, str]:
    """The verify reports and the resolve JSON dump of one EXTRA system, by name."""
    phi = extra_phi(label)
    res = build_resolution(phi)
    report = run_checks(res, phi)
    return {
        "verify-text": report.to_text(),
        "verify-json": report_json(report),
        "resolve-json": resolution_json(res),
    }


def canonical_plan(d: int, n: int) -> str:
    """build_plan(d, n) as sorted JSON: each (r, i, j) cell maps a monomial to {key name: coefficient}.

    A key is named by its name and arguments, delta by "delta".  A plan
    cell sign * (plus - minus) on signed keys adds sign to key plus and
    -sign to key minus, the signed key -k as -1 times key k, so
    plus = -minus doubles one key; a coefficient that sums to zero is left
    out.  The plan records the
    cofactors C_1..C_h, h = (d+1)//2, the self-paired C_h of odd d on one
    side of its diagonal; each cell here is the entry of
    b_r = delta * S_r + x1 * C_r, with S_r the tables of canonical_skeleton
    written out (skeleton_matrices), and the other side of C_h and the maps
    above h are written from the pairing rule, in key space, so the pin
    covers every b_r as the writers once wrote it.
    """
    plan = build_plan(d, n)
    names = ["delta"] + [f"{name}{list(u)}{list(v)}" for name, u, v in plan.keys]
    bases = [duality_basis(d, n, r) for r in range(d + 1)]
    maps: list[dict[tuple[int, int], dict[str, dict[str, int]]]] = []
    for r, (rcells, skel) in enumerate(zip(plan.cells, skeleton_matrices(d, n)), 1):
        raw: dict[tuple[int, int], dict[str, dict[str, int]]] = {}
        for i, j, m, sign, plus, minus in rcells:
            coeffs = raw.setdefault((i, j), {}).setdefault(str(list(mul_var(m, 1))), {})
            # sign * (plus - minus) on signed keys: key k counts +1 at +k and -1 at -k, none at 0
            for key, c in ((plus, sign), (minus, -sign)):
                if key:
                    name = names[abs(key)]
                    coeffs[name] = coeffs.get(name, 0) + (c if key > 0 else -c)
        if d % 2 and r == len(plan.cells):
            # the middle map pairs with itself, and the plan holds one side of it: entry (ii, kk)
            # of C_r is (-1)^(r-1) s t times entry (i, jj), the pairing rule at r - 1
            rows_p, cols_p = pairing(bases[r - 1], bases[r]), pairing(bases[r], bases[r - 1])
            for (i, jj), entry in list(raw.items()):
                (kk, s), (ii, t) = rows_p[i], cols_p[jj]
                if (ii, kk) != (i, jj):
                    assert (ii, kk) not in raw, (r, i, jj)
                    sign = (-1) ** (r - 1) * s * t
                    raw[ii, kk] = {m: {key: sign * c for key, c in coeffs.items()} for m, coeffs in entry.items()}
        for i, j, p in skel.nonzero():
            entry = raw.setdefault((i, j), {})
            for m, c in p.items():
                coeffs = entry.setdefault(str(list(m)), {})
                coeffs["delta"] = coeffs.get("delta", 0) + c
        cells = {}
        for cell, entry in raw.items():
            entry = {m: {k: c for k, c in coeffs.items() if c} for m, coeffs in entry.items()}
            cells[cell] = {m: coeffs for m, coeffs in entry.items() if coeffs}
        maps.append(cells)
    # b_{d-r} from b_{r+1}: entry (ii, kk) is (-1)^r s t times entry (i, jj)
    for k in range(len(maps) + 1, d + 1):
        r = d - k
        rows_p, cols_p = pairing(bases[r], bases[k]), pairing(bases[r + 1], bases[k - 1])
        paired = {}
        for (i, jj), entry in maps[r].items():
            (kk, s), (ii, t) = rows_p[i], cols_p[jj]
            sign = (-1) ** r * s * t
            paired[ii, kk] = {m: {key: sign * c for key, c in coeffs.items()} for m, coeffs in entry.items()}
        maps.append(paired)
    cells = [[r, i, j, entry] for r, cells in enumerate(maps, 1) for (i, j), entry in cells.items()]
    cells.sort(key=lambda cell: cell[:3])
    return json.dumps(cells, sort_keys=True, separators=(",", ":"))


def plan_digests(d: int, n: int) -> dict[str, str]:
    return _sha({"plan": canonical_plan(d, n)}, f"of d={d}, n={n}")


def _sha(texts: dict[str, str], suffix: str) -> dict[str, str]:
    return {f"{name} {suffix}": hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def digests(d: int, n: int) -> dict[str, str]:
    return _sha(outputs(d, n), f"d={d} n={n}")


def extra_digests(label: str) -> dict[str, str]:
    return _sha(extra_outputs(label), label)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", required=True,
                    help="recompute the pins and overwrite golden.json")
    ap.parse_args()
    pins: dict[str, str] = {}
    for d, n in GRID:
        pins.update(digests(d, n))
    for label in EXTRA:
        pins.update(extra_digests(label))
    for d, n in PLAN_POINTS:
        pins.update(plan_digests(d, n))
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
