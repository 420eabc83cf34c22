"""Network substrate: sessions, HTTP, session store.

This is the layer everything above speaks: the traffic generator produces
:class:`~repro.net.session.TcpSession` records, the telescope captures them,
the NIDS matches against their payloads, and the session store persists and
replays them (the "wayback" in the paper's title: signatures are evaluated
post-facto over stored traffic).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.session": ("SessionDirection", "TcpSession"),
    "repro.net.http": ("HttpRequest", "parse_http_request"),
    "repro.net.pcapstore": ("SessionStore",),
})
