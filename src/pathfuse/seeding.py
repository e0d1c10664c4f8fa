"""Deterministic RNG substream derivation.

All randomness in the package flows from a single user-supplied seed.  Any
component that needs its own stream derives it here from the seed plus a
stable sequence of labels (module name, cell, trial index, ...), so that

* the same (seed, labels) always yields the same stream, across runs and
  platforms, and
* streams for different labels are statistically independent.

Labels are hashed with crc32 rather than ``hash()`` because the latter is
salted per process.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError

__all__ = ["substream"]


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Return a Generator for the stream identified by ``(seed, *labels)``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(zlib.crc32(str(lab).encode("utf-8")) for lab in labels)
    return np.random.default_rng(np.random.SeedSequence(entropy))

