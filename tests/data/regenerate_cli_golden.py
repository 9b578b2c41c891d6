"""Rewrite golden/cli_outputs.json from the current `flatdisk` commands.

Run from the repository root, only when a change to the output is intended:

    PYTHONPATH=src python tests/data/regenerate_cli_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_cli_golden as golden  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden.run_all(Path(tmp))
    golden.GOLDEN.write_text(json.dumps(outputs, indent=2) + "\n")
    print(f"wrote {golden.GOLDEN}")


if __name__ == "__main__":
    main()
