"""Seed-independent hashing for partition routing.

The radix-partitioned join routes build rows and probe rows to partitions
by hashing join-key values.  Python's builtin ``hash`` cannot do that job:
string hashing is randomized per process (``PYTHONHASHSEED``), so two
processes would disagree on partition assignment, and a recorded plan
would not reproduce.  This module provides a stable
replacement with one hard requirement inherited from SQL equality:

    ``a == b``  implies  ``stable_hash(a) == stable_hash(b)``

across *types* as well as runs — ``1``, ``1.0``, and ``True`` are all
equal in Python (and join-equal in SQL), so they must land in the same
partition.  Integral floats therefore normalize to the integer path, and
integers too large for int64 normalize to their float bit pattern when
that conversion is exact (the only way such an int can equal a float).

Two implementations must agree value-for-value:

* :func:`stable_hash` — scalar, used by the per-row build/probe paths;
* :func:`stable_hash_array` — vectorized over int64/float64 numpy arrays,
  used by the numpy probe kernel so routing releases the GIL.

``tests/parallel/test_radix_join.py`` pins both the exact output values
(regression against accidental reseeding) and scalar/vector agreement.
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63)

#: splitmix64 constants (Steele et al.); a well-mixed 64-bit finalizer.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB

#: FNV-1a 64-bit offset basis / prime, for byte strings.
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Seed for combining multi-column keys.
_TUPLE_SEED = 0x2545F4914F6CDD1D


def _splitmix64(x: int) -> int:
    x = (x + _SM_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & MASK64
    return x ^ (x >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_BASIS
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def _float_bits_hash(value: float) -> int:
    # +0.0 normalizes -0.0 (they are equal, so they must hash alike); NaN
    # never equals anything, so any stable value will do for it.
    return _splitmix64(struct.unpack("<Q", struct.pack("<d", value + 0.0))[0])


def stable_hash(value: Any) -> int:
    """A 64-bit hash of one key value, identical across runs and processes.

    Equal values hash equal across numeric types (``1 == 1.0 == True``);
    NULL hashes to 0 (callers skip NULL keys before routing, this just
    keeps the function total).
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return _splitmix64(int(value))
    if isinstance(value, int):
        if _INT64_MIN <= value < _INT64_MAX:
            return _splitmix64(value & MASK64)
        # Beyond int64: equal to a float only when float() is exact — then
        # hash as that float so the two routes agree.
        try:
            as_float = float(value)
        except OverflowError:
            return _splitmix64(value & MASK64)
        if as_float == value:
            return _float_bits_hash(as_float)
        return _splitmix64(value & MASK64)
    if isinstance(value, float):
        if value.is_integer() and _INT64_MIN <= value < _INT64_MAX:
            return _splitmix64(int(value) & MASK64)
        return _float_bits_hash(value)
    if isinstance(value, str):
        return _fnv1a(value.encode("utf-8"))
    if isinstance(value, bytes):
        return _fnv1a(value)
    if isinstance(value, tuple):
        return stable_hash_key(value)
    return _fnv1a(repr(value).encode("utf-8"))


def stable_hash_key(key: Sequence[Any]) -> int:
    """Hash of a multi-column key tuple (order-sensitive combine)."""
    h = _TUPLE_SEED
    for value in key:
        h = _splitmix64(h ^ stable_hash(value))
    return h


def _splitmix64_u64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps silently in numpy, matching the scalar masks.
    x = x + np.uint64(_SM_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_SM_MUL1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_SM_MUL2)
    return x ^ (x >> np.uint64(31))


def stable_hash_array(arr: np.ndarray) -> Optional[np.ndarray]:
    """Vectorized :func:`stable_hash` over an int64/float64 array.

    Returns a uint64 array agreeing elementwise with the scalar function,
    or ``None`` when the dtype has no vector kernel (caller falls back to
    the scalar path).
    """
    if arr.dtype.kind in ("i", "u", "b"):
        with np.errstate(over="ignore"):
            return _splitmix64_u64(arr.astype(np.uint64))
    if arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=False)
        if not np.isfinite(arr).all():
            return None  # inf/NaN: rare enough that scalar handling wins
        normalized = arr + 0.0  # -0.0 -> +0.0, like the scalar path
        integral = (np.floor(normalized) == normalized) & (
            np.abs(normalized) < float(_INT64_MAX)
        )
        with np.errstate(over="ignore"):
            if integral.all():
                return _splitmix64_u64(
                    normalized.astype(np.int64).astype(np.uint64)
                )
            hashes = _splitmix64_u64(normalized.view(np.uint64))
            if not integral.any():
                return hashes
            # Cast only the integral entries: huge non-integral floats
            # (e.g. 1e300) would overflow int64 and warn.
            hashes[integral] = _splitmix64_u64(
                normalized[integral].astype(np.int64).astype(np.uint64)
            )
            return hashes
    return None


def stable_partitions(
    arr: np.ndarray, n_partitions: int
) -> Optional[np.ndarray]:
    """Partition ids (``stable_hash % n``) for a key array, or None."""
    hashes = stable_hash_array(arr)
    if hashes is None:
        return None
    return (hashes % np.uint64(n_partitions)).astype(np.intp)
