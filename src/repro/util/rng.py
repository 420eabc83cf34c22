"""Deterministic random-stream derivation.

Every stochastic component of the simulator (per-CVE traffic, per-actor
behaviour, IP allocation) draws from an independent substream derived from a
root seed plus a tuple of string/int keys.  Derivation is stable across runs,
machines, and Python hash randomisation, which makes experiments exactly
reproducible and lets tests pin expected values.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

Key = Union[str, int, bytes]


def encode_key(key: Key) -> bytes:
    """The length-prefixed encoding :func:`derive_seed` hashes per key."""
    if isinstance(key, str):
        encoded = b"s" + key.encode("utf-8")
    elif isinstance(key, bytes):
        encoded = b"b" + key
    elif isinstance(key, int):
        encoded = b"i" + key.to_bytes(16, "little", signed=True)
    else:
        raise TypeError(f"unsupported key type: {type(key)!r}")
    return len(encoded).to_bytes(4, "little") + encoded


def derive_seed(root_seed: int, *keys: Key) -> int:
    """Derive a 64-bit seed from a root seed and a key path.

    Uses BLAKE2b over the canonical encoding of the key path, so any change
    to any component of the path yields an unrelated stream.

    >>> derive_seed(7, "cve", "CVE-2021-44228") == derive_seed(7, "cve", "CVE-2021-44228")
    True
    >>> derive_seed(7, "a") != derive_seed(7, "b")
    True
    """
    return int.from_bytes(key_hasher(root_seed, *keys).digest(), "little")


def key_hasher(root_seed: int, *keys: Key) -> "hashlib._Hash":
    """The BLAKE2b state :func:`derive_seed` digests, for callers that
    extend one fixed key prefix many times (``copy()`` then ``update`` with
    :func:`encode_key` output)."""
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(root_seed.to_bytes(16, "little", signed=True))
    for key in keys:
        hasher.update(encode_key(key))
    return hasher


def derive_rng(root_seed: int, *keys: Key) -> np.random.Generator:
    """A numpy Generator seeded by :func:`derive_seed` over the key path."""
    return np.random.default_rng(derive_seed(root_seed, *keys))
