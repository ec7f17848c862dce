"""Every CLI output, byte for byte, against the golden manifest (tests/make_golden.py)."""

import json
import warnings

from make_golden import KERNEL_FIELDS, KERNEL_FILE, KERNEL_LINE, MANIFEST, run_commands


def test_cli_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    golden = json.loads(MANIFEST.read_text())
    monkeypatch.chdir(tmp_path)
    got = run_commands()
    assert [c["argv"] for c in got["commands"]] == [c["argv"] for c in golden["commands"]]
    if got["openblas_core"] != golden["openblas_core"]:
        # Another kernel adds the sums under these outputs in another order.
        warnings.warn(
            f"numpy's OpenBLAS core is {got['openblas_core']}, not the manifest's "
            f"{golden['openblas_core']}: {KERNEL_FILE} was compared with its "
            f"{' and '.join(KERNEL_FIELDS)} fields set aside, and stdout without "
            f"its {KERNEL_LINE} lines"
        )
        assert got["kernel_free"] == golden["kernel_free"]
        for manifest in (got, golden):
            for command in manifest["commands"]:
                command["files"].pop(KERNEL_FILE, None)
                command["stdout"] = "".join(line for line in command["stdout"].splitlines(True)
                                            if not line.startswith(KERNEL_LINE))
    for want, have in zip(golden["commands"], got["commands"]):
        assert have == want, " ".join(want["argv"])
