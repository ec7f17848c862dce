"""Regenerate the golden manifest of every CLI output: tests/fixtures/golden_n300.json.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

It runs COMMANDS through `cli.main` in a temporary directory and records, for each
command, its argv, exit code, stdout and the SHA-256 of each file it wrote, with the
numpy version and the OpenBLAS core it ran under. tests/test_golden.py reruns them and
compares. Re-pin only when an output is meant to move, and say which files moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import _openblas_core
from ratecraft import cli

MANIFEST = Path(__file__).parent / "fixtures" / "golden_n300.json"

_DATA = ("--meter", "data/meter.csv", "--prices", "data/prices.csv")
COMMANDS = (
    ("synth", "--n", "300", "--days", "120", "--seed", "7", "--out-dir", "data"),
    ("solve", *_DATA, "--m", "12", "--out-dir", "solve"),
    ("curves", *_DATA, "--trials", "10", "--out-dir", "curves"),
    ("segment", *_DATA, "--cv-threshold", "10", "--out-dir", "segment"),
    ("simulate", *_DATA, "--out-dir", "simulate"),
    ("simulate", *_DATA, "--selection", "solve/selection.csv", "--design", "one_sided",
     "--out-dir", "simulate_one_sided"),
)

# The outputs that depend on the BLAS kernel, through sums it adds in its own order:
# segmentation.json's full-precision floats (not its members, sizes or rounds), and
# solve's certificate, a near-cancelling sum printed to 10 digits.
KERNEL_FILE = "segment/segmentation.json"
KERNEL_FIELDS = ("cv_percent", "rate_cents_per_kwh")
KERNEL_LINE = "certificate="


def kernel_free_digest(data: bytes) -> str:
    """SHA-256 of segmentation.json re-dumped with each group's KERNEL_FIELDS set aside."""
    payload = json.loads(data)
    for group in payload["groups"]:
        for field in KERNEL_FIELDS:
            del group[field]
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def run_commands() -> dict:
    """Run COMMANDS in the current directory; the manifest of what they printed and wrote."""
    records = []
    for argv in COMMANDS:
        out_dir = Path(argv[argv.index("--out-dir") + 1])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(list(argv))
        files = {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out_dir.iterdir())}
        records.append({"argv": list(argv), "exit": code, "stdout": stdout.getvalue(),
                        "files": files})
    return {
        "numpy": np.__version__,
        "openblas_core": _openblas_core(),
        "kernel_free": {KERNEL_FILE: kernel_free_digest(Path(KERNEL_FILE).read_bytes())},
        "commands": records,
    }


def main() -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            manifest = run_commands()
        finally:
            os.chdir(here)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST} (numpy {manifest['numpy']}, OpenBLAS {manifest['openblas_core']})",
          file=sys.stderr)


if __name__ == "__main__":
    main()
