"""Byte-for-byte regression of the CLI against a recorded golden set.

`tests/golden_cli.jsonl` holds, for each invocation below, its standard
output and exit code.  Standard error is not recorded: error messages
may be reworded, exit codes and the JSON stream may not.  To record the
file again, run `PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycliccurves.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")

INVOCATIONS = (
    [["classify", "--p", str(p), "--genus", str(g)]
     for p in (0, 3, 5, 7, 13) for g in (2, 3, 4, 6)]
    + [
        ["classify", "--p", "0", "--genus", "4", "--raw-pairs"],
        ["classify", "--p", "7", "--genus", "3", "--n", "14"],
        ["classify", "--p", "5", "--genus", "2", "--format", "csv"],
        ["classify", "--p", "0", "--genus", "6", "--format", "table"],
        ["pairs", "--n", "9"],
        ["pairs", "--n", "9", "--format", "csv"],
        ["pairs", "--n", "12", "--genus", "4", "--canonical"],
        ["pairs", "--n", "12", "--genus", "4", "--canonical",
         "--format", "table"],
        ["signatures", "--n", "12", "--genus", "5"],
        ["signatures", "--n", "12", "--genus", "5", "--format", "csv"],
        ["signatures", "--n", "8", "--genus", "5", "--format", "table"],
        ["verify", "--model", "kummer:5,1,1", "--q", "11"],
        ["verify", "--model", "kummer:8,1,3", "--q", "9", "--zeta-depth", "4"],
        ["verify", "--model", "kummer:10,1,4", "--q", "121"],
        ["verify", "--model", "hyper:2,3", "--q", "7", "--zeta-depth", "4"],
        ["verify", "--model", "hyper:2,3.1", "--q", "49"],
        ["verify", "--model", "aspower:7,2,1,1", "--q", "7",
         "--zeta-depth", "6"],
        ["verify", "--model", "aspower:5,2,1.1,2", "--q", "25"],
        ["verify", "--model", "asrational:5,1,1,4", "--q", "25"],
        ["verify", "--model", "asrational:7,6,1,6", "--q", "7"],
        ["verify", "--model", "homma:5", "--q", "5", "--zeta-depth", "4"],
        ["verify", "--model", "homma:7", "--q", "49"],
        # exit 1: the order-10 generator collapses to order 5 on F_5
        ["verify", "--model", "aspower:5,2,1,0", "--q", "5"],
        # exit 2: F_7 has no element of order 5 for the generator
        ["verify", "--model", "kummer:5,1,1", "--q", "7"],
    ])


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return [json.loads(line) for line in fh]


def test_golden_set_matches_invocations(golden):
    assert [rec["argv"] for rec in golden] == [list(a) for a in INVOCATIONS]


@pytest.mark.parametrize("index", range(len(INVOCATIONS)),
                         ids=lambda i: " ".join(INVOCATIONS[i]))
def test_cli_output_is_byte_identical(golden, index):
    assert run(INVOCATIONS[index]) == golden[index]


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "0", "--genus", "2"],
    ["verify", "--model", "kummer:5,1,1", "--q", "7"],  # exit 2
], ids=" ".join)
def test_module_entry_point_matches_golden(golden, argv):
    # `python -m cycliccurves.cli` runs main() under the __main__ guard,
    # whose return value must become the process's exit code
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "cycliccurves.cli", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60)
    want = golden[INVOCATIONS.index(argv)]
    assert (done.returncode, done.stdout) == (
        want["code"], want["stdout"].encode())


if __name__ == "__main__":
    with GOLDEN.open("w") as fh:
        for argv in INVOCATIONS:
            fh.write(json.dumps(run(argv), sort_keys=True) + "\n")
