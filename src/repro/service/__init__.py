"""The exploration service: shared warm caches behind an HTTP daemon.

One long-lived process owns one warm set of estimation caches;
concurrent clients POST ``.tirl`` designs or suite grid specs, identical
in-flight requests coalesce onto one underlying sweep, and results
stream back as canonical NDJSON.  See :mod:`repro.service.server` for
the endpoint contract and :mod:`repro.service.client` for the stdlib
client.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.service.client": (
        "ServiceClient", "ServiceError", "ServiceResponse",
    ),
    "repro.service.coalesce": (
        "CoalescedTask", "RequestCoalescer", "TaskFailedError",
    ),
    "repro.service.server": (
        "DEFAULT_PORT", "BadRequestError", "ExplorationService",
        "ServiceServer", "serve",
    ),
})
