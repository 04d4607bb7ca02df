"""A real HTTP deployment of the Table 1 web API.

The paper ships HyRec as J2EE servlets (optionally bundled with Jetty)
plus a JavaScript widget.  This package is the Python equivalent:

* :class:`AsyncHyRecServer` (``async_server.py``) -- the front door:
  an asyncio server mounting :class:`repro.core.api.WebApi`, with
  admission control/backpressure (bounded pending queue, ``503`` +
  ``Retry-After`` shedding) and the per-user L1 response cache of
  :mod:`repro.web.cache` with write-driven invalidation.
* :class:`HttpWidgetClient` (``client.py``) -- the browser widget's
  Python twin, one full round trip over real sockets.

``docs/http.md`` documents endpoints, cache semantics and admission
knobs; ``benchmarks/suite/run.py`` measures the deployment
(``http_reads``, ``http_roundtrip``).
"""

from repro.web.async_server import AsyncHyRecServer
from repro.web.cache import CacheStats, ResponseCache
from repro.web.client import HttpWidgetClient

__all__ = [
    "AsyncHyRecServer",
    "CacheStats",
    "HttpWidgetClient",
    "ResponseCache",
]
