"""Every bundled scenario's artifacts against committed sha256 digests.

The manifest holds the digest of each artifact file of every bundled
scenario at a few seeds, as the committed code wrote them, and the numpy
version they were written with.  A change that moves any artifact byte
shows here without going through the code it changed.  Regenerate the
manifest, on purpose only, with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from probesim.harness import load_scenario, run, run_batch

SCENARIOS = Path(__file__).resolve().parents[1] / "src/probesim/scenarios"
MANIFEST = Path(__file__).with_name("artifact_digests.json")
SEEDS = (1, 2, 395)
NAMES = sorted(p.stem for p in SCENARIOS.glob("*.scn"))


def numpy_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


def tree_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each artifact file in a run's directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def digests(name: str, seed: int, out_dir: Path) -> dict[str, str]:
    """sha256 of each artifact of one run, by file name."""
    run(load_scenario(SCENARIOS / f"{name}.scn", seed), out_dir)
    return tree_digests(out_dir)


@pytest.fixture
def manifest() -> dict:
    """The committed digests by "<name>/<seed>"; skips under another numpy."""
    manifest = json.loads(MANIFEST.read_text())
    if manifest["numpy"] != numpy_minor():
        pytest.skip(f"digests were written with numpy {manifest['numpy']}, "
                    f"this is numpy {np.__version__}")
    return manifest["runs"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_artifacts_match_committed_digests(tmp_path, manifest, name, seed):
    assert digests(name, seed, tmp_path) == manifest[f"{name}/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_artifacts_match_committed_digests(tmp_path, manifest, seed):
    # Every bundled scenario in one process, in batch order, as
    # `probesim batch` runs them: later runs arm their sensors, read their
    # window streams and write their counter logs from the earlier ones
    # (harness.ARM_CACHE, cosim.STREAM_CACHE, cosim.LOG_CACHE) and must
    # write the same bytes.
    run_batch([SCENARIOS / f"{name}.scn" for name in NAMES], tmp_path, seed)
    for name in NAMES:
        assert tree_digests(tmp_path / name) == manifest[f"{name}/{seed}"], name


@pytest.mark.parametrize("seed", SEEDS)
def test_reversed_batch_artifacts_match_committed_digests(tmp_path, manifest,
                                                          seed):
    # The same in reverse batch order, so that the runs that drew, tuned
    # and formatted first now read the caches, and the runs that read them
    # now fill them: xor_unprotected formats the XOR log that
    # xor_polymorphic writes again (cosim.LOG_CACHE), and unprotected_key
    # the key log of both mtd scenarios.
    names = NAMES[::-1]
    run_batch([SCENARIOS / f"{name}.scn" for name in names], tmp_path, seed)
    for name in names:
        assert tree_digests(tmp_path / name) == manifest[f"{name}/{seed}"], name


if __name__ == "__main__":
    import tempfile

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            for seed in SEEDS:
                runs[f"{name}/{seed}"] = digests(name, seed,
                                                 Path(tmp) / f"{name}-{seed}")
    MANIFEST.write_text(json.dumps({"numpy": numpy_minor(), "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
