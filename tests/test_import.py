"""What importing gorlin costs a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_gorlin_loads_no_dataclasses_inspect_or_traceback():
    # gorlin verify and resolve run one system per fresh process, which pays for every module the
    # import loads: dataclasses (with inspect, ast and dis) was most of it, and traceback is needed
    # only for an internal error, exit 4 of cli.main
    code = ("import json, sys; before = set(sys.modules); import gorlin, gorlin.cli, gorlin.export; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    added = set(json.loads(run.stdout))
    assert {"gorlin", "gorlin.cli", "gorlin.export"} <= added
    assert not {"dataclasses", "inspect", "traceback"} & added
