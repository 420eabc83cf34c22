"""DSCOPE: the cloud-based interactive Internet telescope (simulated).

Faithful to the system described in the paper and its companion DSCOPE
paper: ~300 concurrent cloud instances spread across regions, each holding a
pseudorandomly allocated public IPv4 address for ~10 minutes before being
recycled (≈30k unique IPs/day, ~5M over two years); every instance accepts
TCP on all ports, completes handshakes, records client application data, and
never responds at the application layer.
"""

from repro.telescope.config import TelescopeConfig
from repro.telescope.pool import CloudIpPool
from repro.telescope.collector import CollectionStats, DscopeCollector

__all__ = [
    "TelescopeConfig",
    "CloudIpPool",
    "CollectionStats",
    "DscopeCollector",
]
