"""Shared helpers for the benchmark/regeneration suite.

Each benchmark regenerates one of the paper's tables or figures and saves
the rendered artifact (measured values next to the paper's) under
``benchmarks/results/``. Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Machine-dependent timing artifacts (the ``test_perf_*`` benchmarks).
#: The directory is git-ignored, so a local run never rewrites the
#: committed copies in ``results/``, which stay as recorded history.
TIMINGS_DIR = RESULTS_DIR / "local"


def _writer(directory: pathlib.Path):
    def write(name: str, text: str) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return write


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    """Directory artifacts are written into."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """Write one regenerated artifact to disk (and echo to stdout)."""
    return _writer(artifact_dir)


@pytest.fixture
def save_timing():
    """Write one machine-dependent timing artifact to ``results/local/``."""
    return _writer(TIMINGS_DIR)
