"""Write pins.json: the sha256 of the JSON export of every pinned instance.

    python3 bench/pin.py --seconds 25 --runs 20

Pins cover the instances of run seeds 0..runs-1 at the given ``--seconds``
for every workload.  They record the export of the code they were made with,
so regenerate them only with a change that alters the export on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from run import ROOT, WORKLOADS, instance_seeds
from worker import PINS, pin_key

sys.path.insert(0, str(ROOT / "src"))

from gorlin.differentials import build_resolution  # noqa: E402
from gorlin.export import resolution_json  # noqa: E402
from gorlin.invsys import random_invsys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--runs", type=int, required=True)
    args = ap.parse_args()
    pins = {}
    for w in WORKLOADS.values():
        for run_seed in range(args.runs):
            for seed in instance_seeds(w, run_seed, args.seconds):
                res = build_resolution(random_invsys(w.d, w.n, seed), "selfdual")
                text = resolution_json(res)
                pins[pin_key(w.d, w.n, seed)] = hashlib.sha256(text.encode()).hexdigest()
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
