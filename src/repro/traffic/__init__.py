"""Synthetic Internet scanning traffic.

This package is the stand-in for the real Internet: exploit scanners that
adopt new CVEs, credential stuffers, and background radiation.  The whole
stream is one :class:`~repro.traffic.arrivals.ArrivalColumns` (int64 µs
times, addresses, ports, payload indices into one interned heap, ground
truth), which the telescope (:mod:`repro.telescope`) captures;
:class:`~repro.traffic.arrivals.ScanArrival` is its row view, for the
streaming path and external arrival sources.

Timing is anchored to the paper's Appendix E — each CVE's *first* event
lands exactly at its measured A date, and the remaining volume follows the
paper's observed shape (post-publication burst, decaying body, long tail;
see :mod:`repro.traffic.temporal`).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.traffic.arrivals": ("ArrivalColumns", "ScanArrival"),
    "repro.traffic.temporal": ("TemporalModel", "exploit_event_times"),
    "repro.traffic.actors": ("ScannerPopulation",),
    "repro.traffic.generator": ("TrafficConfig", "TrafficGenerator"),
})
