"""Optimization service: a local daemon serving ``repro.api`` requests.

``repro serve`` runs :class:`~repro.service.server.OptimizationServer`
— a socket daemon with request deduplication, a bit-identical result
cache, bounded-queue admission control and per-request span tracing —
and :class:`~repro.service.client.ServiceClient` talks to it (as does
``repro request``).  The wire protocol lives in
:mod:`repro.service.protocol`; the daemon's counters, gauges and
latency histogram live in one
:class:`~repro.observability.metrics.MetricsRegistry`, served as
``repro.metrics/1`` snapshots.  See ``docs/service.md`` for the full
protocol and lifecycle story.

This package invokes optimization exclusively through
:mod:`repro.api` request objects (lint rule RPR011) — it contains no
optimizer logic of its own.
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.server import OptimizationServer, ServerConfig, serve

__all__ = [
    "OptimizationServer",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
    "serve",
]
