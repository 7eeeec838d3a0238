"""Shared fixture for the throughput guards.

``emit`` prints a guard's rendered rates and keeps a copy under
``benchmarks/out/`` (untracked: the rates are machine-local).
"""

from __future__ import annotations

import os

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.fixture(scope="session")
def emit():
    """Print a rendered table and persist it under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")

    return _emit
