"""Network substrate: sessions, HTTP, session store.

This is the layer everything above speaks: the traffic generator produces
:class:`~repro.net.session.TcpSession` records, the telescope captures them,
the NIDS matches against their payloads, and the session store persists and
replays them (the "wayback" in the paper's title: signatures are evaluated
post-facto over stored traffic).
"""

from repro.net.session import SessionDirection, TcpSession
from repro.net.http import HttpRequest, parse_http_request
from repro.net.pcapstore import SessionStore

__all__ = [
    "SessionDirection",
    "TcpSession",
    "HttpRequest",
    "parse_http_request",
    "SessionStore",
]
