"""Shared numerical helpers: unit-circle phases, torus distance, seeded streams.

Phases are handled in revolutions (fractions of a full turn) rather than
radians, so that polykit can reduce them mod 1 exactly in integer arithmetic
before e() sees the value.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the contract of the operation."""


class GridTooCoarseError(DomainError):
    """A rational frequency cannot be snapped to the grid accurately enough."""


def e(phase):
    """exp(2*pi*i*phase), phase in revolutions. Accepts scalars or arrays."""
    return np.exp(2j * np.pi * np.asarray(phase, dtype=float))


def torus_dist(x, y=0.0):
    """Distance on R/Z: min_k |x - y - k|. Vectorized."""
    d = np.mod(np.asarray(x, dtype=float) - y, 1.0)
    return np.minimum(d, 1.0 - d)


def torus_signed(x):
    """Representative of x mod 1 in [-1/2, 1/2). Vectorized."""
    d = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.where(d >= 0.5, d - 1.0, d)


def stream(seed: int, draw: int) -> np.random.Generator:
    """Counter-based per-draw RNG stream.

    Each (seed, draw) pair, both in 0..2^64-1, keys an independent Philox
    stream, so draw i is the same whether draws run serially or in parallel.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, draw], np.uint64)))


def write_csv(path, header, rows):
    """Deterministic CSV writer: fixed header, '%.17g' floats, '\\n' endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, (
                float, np.floating)) else str(v) for v in row) + "\n")
