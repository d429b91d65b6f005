"""Deterministic derivation of per-component RNG seeds from one master seed.

Every run takes a single integer seed.  Each component that needs
randomness asks for a named child seed; the name keeps independent
components decoupled (adding a new consumer never shifts the seeds of
existing ones, which a shared sequential generator would not guarantee).

Derivation: the label is hashed with FNV-1a (64-bit), xor-folded into
the master seed, and the result is passed through one splitmix64 step.
All arithmetic is modulo 2^64, so the same (seed, label) pair gives the
same child seed on every platform.
"""

from __future__ import annotations

from ._args import integer

__all__ = ["derive_seed"]

_MASK = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, label: str) -> int:
    """Child seed for a named component, stable across runs and platforms."""
    if not label:
        raise ValueError("label must be non-empty")
    mixed = (integer(master, "master") & _MASK) ^ _fnv1a64(label.encode("utf-8"))
    return _splitmix64(mixed)
