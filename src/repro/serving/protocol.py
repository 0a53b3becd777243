"""Wire protocol of the allocation-serving daemon (``repro serve``).

Newline-delimited JSON over a stream transport (TCP or a unix socket).
Each request is one JSON object on one line; each response is one JSON
object on one line, echoing the request ``id``.  The protocol is
deliberately small — three query operations against a warm
:class:`~repro.core.consolidation.ConsolidationIndex`, plus liveness
and introspection:

``allocate``
    One joint allocation: ``{"op": "allocate", "load": <tasks/s>}``
    (optional ``exclude`` list of machine ids).  Answers with the ON
    set, the supply/set-point temperatures, the per-machine load split,
    and the model-predicted total power — the serving form of
    :meth:`repro.core.optimizer.JointOptimizer.solve`.

``maxL``
    The paper's dual question: ``{"op": "maxL", "budget": <W>}`` —
    the maximum servable load under a power budget
    (:meth:`~repro.core.optimizer.JointOptimizer.max_load_under_budget`).

``what-if``
    A receding-horizon lookahead: ``{"op": "what-if", "loads": [...]}``
    answers every horizon point in one batched index pass
    (:meth:`~repro.core.consolidation.ConsolidationIndex.query_many`);
    an optional ``on_ids`` pins an explicit ON set instead, scoring the
    horizon against a fixed configuration.

``ping`` / ``stats``
    Liveness and the server's metrics snapshot (request counts, latency
    percentiles, batch-size distribution, watchdog stalls).

``telemetry``
    The live windowed view: per-horizon request rates, latency
    percentiles, queue depth, batch sizes, and SLO headroom — as
    structured JSON (default) or, with ``{"format": "prometheus"}``, as
    Prometheus text exposition ready for a scraper.

``trace``
    The most recent per-request span chains (request → batch →
    ``query_many``) as a self-contained trace-JSONL document; optional
    ``limit`` caps the span count.

Every parsed request is also stamped with a process-unique ``trace_id``
(not part of the wire format) that rides through the
:class:`~repro.serving.batcher.MicroBatcher` into the compute thread,
letting the server link each batch span to the request spans it served.

Responses are ``{"id": ..., "ok": true, "result": {...}}`` on success.
A result may be an :class:`EncodedResult`: a read-only mapping that
carries its own compact JSON body, which :func:`encode` splices into
the response line instead of encoding the mapping again.
Failures are *structured*, reusing the :mod:`repro.errors` hierarchy:
``{"id": ..., "ok": false, "error": {"type": "InfeasibleError",
"message": "..."}}`` — the client re-raises the matching exception
class (:func:`raise_error`), so a remote infeasible load is caught with
the same ``except InfeasibleError`` as a local one.  A malformed
request never kills the connection: it yields a ``ConfigurationError``
response with ``id: null`` when no id could be recovered.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro import errors
from repro.errors import ConfigurationError, ReproError

#: Protocol schema stamp, echoed by ``ping`` and ``stats``.  Version 2
#: added the ``telemetry`` and ``trace`` ops (version 1 responses are a
#: strict subset, so v1 clients keep working).
PROTOCOL_VERSION = 2

#: Operations the daemon answers.
OPS = ("allocate", "maxL", "what-if", "ping", "stats", "telemetry", "trace")

#: ``telemetry`` output formats.
TELEMETRY_FORMATS = ("json", "prometheus")

#: Longest accepted request line, bytes (guards the stream reader
#: against unbounded buffering; a 10k-point what-if horizon fits).
MAX_LINE_BYTES = 1_000_000

#: Process-wide trace-id source; every parsed request gets the next one.
_TRACE_IDS = itertools.count(1)


@dataclass(frozen=True)
class Request:
    """One decoded, validated request.

    ``trace_id`` is server-side bookkeeping, not wire data: assigned at
    parse time, excluded from equality, and used to link the request's
    trace span to the batch span that eventually serves it.
    """

    op: str
    id: Optional[Any] = None
    load: Optional[float] = None
    budget: Optional[float] = None
    loads: Optional[tuple[float, ...]] = None
    on_ids: Optional[tuple[int, ...]] = None
    exclude: tuple[int, ...] = field(default=())
    limit: Optional[int] = None
    format: Optional[str] = None
    trace_id: Optional[int] = field(default=None, compare=False)


def _finite(key: str, value: Any) -> float:
    """``value`` as a finite float; ``json.loads`` accepts ``NaN`` and
    ``Infinity``, and an integer literal can overflow a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{key!r} must be finite, got {value!r}")
    return number


def _number(payload: Mapping, key: str, *, required: bool) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        if required:
            raise ConfigurationError(f"{key!r} is required for this op")
        return None
    return _finite(key, value)


def _id_list(payload: Mapping, key: str) -> Optional[tuple[int, ...]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        raise ConfigurationError(f"{key!r} must be a list of machine ids")
    return tuple(int(v) for v in value)


def parse_request(payload: Any) -> Request:
    """Validate a decoded JSON payload into a :class:`Request`.

    Raises
    ------
    ConfigurationError
        On any shape problem: not an object, unknown/missing ``op``,
        missing or mistyped parameters.  The message is safe to send
        back verbatim in a structured error response.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if op not in OPS:
        raise ConfigurationError(
            f"unknown op {op!r}; expected one of {list(OPS)}"
        )
    request_id = payload.get("id")
    load = budget = None
    loads = on_ids = None
    limit: Optional[int] = None
    fmt: Optional[str] = None
    if op == "allocate":
        load = _number(payload, "load", required=True)
    elif op == "maxL":
        budget = _number(payload, "budget", required=True)
    elif op == "what-if":
        raw = payload.get("loads")
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(
                "'loads' must be a non-empty list of numbers"
            )
        loads = tuple(_finite("loads", v) for v in raw)
        on_ids = _id_list(payload, "on_ids")
    elif op == "telemetry":
        fmt = payload.get("format")
        if fmt is not None and fmt not in TELEMETRY_FORMATS:
            raise ConfigurationError(
                f"'format' must be one of {list(TELEMETRY_FORMATS)}, "
                f"got {fmt!r}"
            )
    elif op == "trace":
        raw_limit = payload.get("limit")
        if raw_limit is not None:
            if isinstance(raw_limit, bool) or not isinstance(
                raw_limit, int
            ) or raw_limit < 1:
                raise ConfigurationError(
                    f"'limit' must be a positive int, got {raw_limit!r}"
                )
            limit = raw_limit
    exclude = _id_list(payload, "exclude") or ()
    if exclude and op not in ("allocate",):
        raise ConfigurationError("'exclude' is only valid for 'allocate'")
    return Request(
        op=op, id=request_id, load=load, budget=budget,
        loads=loads, on_ids=on_ids, exclude=exclude,
        limit=limit, format=fmt, trace_id=next(_TRACE_IDS),
    )


def decode_request(line: str) -> Request:
    """Parse one wire line into a :class:`Request`.

    Raises :class:`ConfigurationError` on invalid JSON (the transport
    layer turns it into an error response, keeping the connection up).
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"request is not valid JSON: {exc}") from exc
    return parse_request(payload)


class EncodedResult(dict):
    """A read-only ``result`` mapping that carries its wire body.

    ``body`` is the mapping's compact JSON (``separators=(",", ":")``),
    encoded once at construction; :func:`encode` splices it into the
    response line.  The server's answer memo hands one instance to
    every response for the same load, so the mapping refuses mutation,
    and its nested lists and dicts are shared too: treat them as
    read-only.
    """

    __slots__ = ("body",)

    def __init__(self, result: Mapping) -> None:
        super().__init__(result)
        self.body = json.dumps(self, separators=(",", ":")).encode()

    def _read_only(self, *args, **kwargs):
        raise TypeError("an EncodedResult is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def ok_response(request_id: Optional[Any], result: Mapping) -> dict:
    """A success envelope for ``result``.

    An :class:`EncodedResult` goes into the envelope as it is, shared
    and read-only; any other mapping is copied into a fresh dict.
    """
    if not isinstance(result, EncodedResult):
        result = dict(result)
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Optional[Any], exc: Exception) -> dict:
    """A structured-error envelope for ``exc``.

    The ``type`` field carries the :mod:`repro.errors` class name when
    ``exc`` belongs to the family, else the literal ``"ReproError"`` —
    a client always gets a raisable type.
    """
    name = type(exc).__name__
    if not isinstance(exc, ReproError) or not isinstance(
        getattr(errors, name, None), type
    ):
        name = "ReproError"
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": name, "message": str(exc)},
    }


#: Key order of an :func:`ok_response` envelope.
_OK_KEYS = ("id", "ok", "result")


def encode(message: Mapping) -> bytes:
    """One wire line (UTF-8 JSON + newline) for a request or response.

    The line is ``json.dumps(message, separators=(",", ":"))``.  For a
    success envelope whose result is an :class:`EncodedResult`, only
    the ``id`` is encoded and the result's cached body is spliced in;
    the bytes are the same.
    """
    result = message.get("result")
    if (
        isinstance(result, EncodedResult)
        and tuple(message) == _OK_KEYS
        and message["ok"] is True
    ):
        request_id = json.dumps(message["id"], separators=(",", ":"))
        return b"".join((
            b'{"id":', request_id.encode(), b',"ok":true,"result":',
            result.body, b"}\n",
        ))
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def raise_error(response: Mapping) -> None:
    """Re-raise the :mod:`repro.errors` exception a failure encodes.

    No-op for success envelopes; raises :class:`ConfigurationError` on
    envelopes that are themselves malformed.
    """
    if not isinstance(response, Mapping) or "ok" not in response:
        raise ConfigurationError(f"malformed response envelope: {response!r}")
    if response["ok"]:
        return
    error = response.get("error")
    if not isinstance(error, Mapping) or "type" not in error:
        raise ConfigurationError(f"malformed error envelope: {response!r}")
    cls = getattr(errors, str(error["type"]), None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ReproError
    raise cls(str(error.get("message", "remote error")))
