"""Write golden.json: the sha256 of every user-visible output on the test grid.

    python3 tests/golden.py --write

For each grid point of ``conftest.GRID`` (self-dual ordering) the outputs
are the ``verify`` text and JSON reports and the ``resolve`` text, JSON and
Macaulay2 dumps; at (3, 2) and (4, 2) also the output of ``gorlin ann``.
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

sys.path.insert(0, str(HERE.parent / "src"))

from conftest import GRID, GRID_SEEDS, grid_phi, grid_resolution  # noqa: E402
from gorlin import cli  # noqa: E402
from gorlin.export import (  # noqa: E402
    report_json,
    resolution_cas_script,
    resolution_json,
    resolution_text,
)
from gorlin.verify import run_checks  # noqa: E402


def outputs(d: int, n: int) -> dict[str, str]:
    """Every pinned output at one grid point, by name."""
    res = grid_resolution(d, n, ordering="selfdual")
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


def digests(d: int, n: int) -> dict[str, str]:
    return {f"{name} d={d} n={n}": hashlib.sha256(text.encode()).hexdigest()
            for name, text in outputs(d, n).items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", required=True,
                    help="recompute the pins and overwrite golden.json")
    ap.parse_args()
    pins: dict[str, str] = {}
    for d, n in GRID:
        pins.update(digests(d, n))
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
