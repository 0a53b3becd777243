"""repro.serving — the online allocation-serving daemon (``repro serve``).

Turns the batch library into a long-running system: an asyncio daemon
answering ``allocate`` / ``maxL`` / ``what-if`` queries over a unix
socket or TCP, against a warm in-memory
:class:`~repro.core.consolidation.ConsolidationIndex` (loaded from the
persistent ``.npz`` cache when available).  Concurrent requests are
micro-batched into single
:meth:`~repro.core.consolidation.ConsolidationIndex.query_many` passes.

Layers (see ``docs/serving.md`` for the architecture walkthrough):

- :mod:`repro.serving.protocol` — the JSON-lines wire format and the
  structured-error mapping onto :mod:`repro.errors`.
- :mod:`repro.serving.batcher` — the async collector that coalesces
  concurrent requests within a small window.
- :mod:`repro.serving.server` — :class:`AllocationServer`: warm start,
  transports, watchdog, latency histograms, graceful drain.
- :mod:`repro.serving.telemetry` — :class:`ServingTelemetry`: the
  windowed metrics + per-request span store behind the ``telemetry``
  and ``trace`` ops and the SLO watchdogs.
- :mod:`repro.serving.client` — a blocking JSON-lines client that
  re-raises remote errors as local :mod:`repro.errors` exceptions.
- :mod:`repro.serving.loadgen` — the in-process concurrent-client
  simulator behind ``benchmarks/bench_serving.py``.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.client import ServingClient
from repro.serving.loadgen import LoadgenReport, quantized_loads, run_load
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    TELEMETRY_FORMATS,
    EncodedResult,
    Request,
    decode_request,
    encode,
    error_response,
    ok_response,
    parse_request,
    raise_error,
)
from repro.serving.server import (
    AllocationServer,
    ServingConfig,
    background_server,
)
from repro.serving.telemetry import ServingTelemetry

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "MAX_LINE_BYTES",
    "TELEMETRY_FORMATS",
    "Request",
    "EncodedResult",
    "parse_request",
    "decode_request",
    "encode",
    "ok_response",
    "error_response",
    "raise_error",
    "MicroBatcher",
    "AllocationServer",
    "ServingConfig",
    "ServingTelemetry",
    "background_server",
    "ServingClient",
    "LoadgenReport",
    "quantized_loads",
    "run_load",
]
