"""Rewrite golden/render_map_sha256.json from the current `flatdisk render`.

Run from the repository root, only when a change to the output is intended:

    PYTHONPATH=src python tests/data/regenerate_render_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_render_golden as golden  # noqa: E402


def main() -> None:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in golden.INPUTS:
            directory = golden.input_dir(name, workdir)
            for mode in golden.MODES:
                svg = golden.render_map_bytes(directory, name, mode, workdir / "map.svg")
                hashes[golden.key(name, mode)] = golden.digest(svg)
        for mode in golden.MODES:
            for size, graticule in golden.PAGE_OPTIONS:
                options = golden.page_args(size, graticule)
                svg = golden.render_map_bytes(golden.DATA, golden.INPUTS[0], mode,
                                              workdir / "map.svg", options)
                hashes[golden.key(golden.INPUTS[0], mode, options)] = golden.digest(svg)
        for size in golden.PROFILE_SIZES:
            svg = golden.render_profile_bytes(size, workdir / "profile.svg")
            hashes[golden.profile_key(size)] = golden.digest(svg)
    golden.HASHES.write_text(json.dumps(hashes, indent=2) + "\n")
    print(f"wrote {golden.HASHES}")


if __name__ == "__main__":
    main()
