"""Compact JSONL: the write path behind ``trace.jsonl``/``flights.jsonl``,
and the tolerant line reader that loads them back.

Contract: each ``encode_*`` returns exactly the text
``json.dumps(record.to_dict(), separators=(",", ":"))`` produces (plus the
``"\\n"`` that ends an event or flight line), so files stay byte-identical
and ``to_dict()``/``from_dict()`` remain the reference implementation. The
fast path formats straight from the ``__slots__`` fields and handles only
what the stock encoder renders the same way everywhere: ``str`` through
its C escaper, exact ``int`` and finite ``float`` through ``repr`` (the
call it makes itself), a hop's ``ecn=True``. Anything else — other bools,
NaN/±inf, ``int``/``float`` subclasses, ``None`` in a field ``to_dict``
always emits — raises ``TypeError`` inside the fast path and the whole
record goes through :func:`stock` instead.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Callable, Iterator, Optional

from ..errors import ConfigurationError

_INF = float("inf")

#: The one prebuilt compact encoder; ``json.dumps(obj, separators=(",", ":"))``
#: builds an identical ``JSONEncoder`` on every call.
dumps_compact = json.JSONEncoder(separators=(",", ":")).encode


def stock(record) -> str:
    """The reference rendering, and the fallback of every fast path."""
    return dumps_compact(record.to_dict())


def _num(value) -> str:
    kind = type(value)
    if kind is int or (kind is float and -_INF < value < _INF):
        return repr(value)
    raise TypeError  # caught by the caller, which falls back to stock()


def encode_event(ev) -> str:
    """One ``TraceEvent`` as a JSONL line."""
    try:
        v = ev.time
        out = '{"type":' + _quote(ev.type) + ',"time":' + (
            repr(v) if type(v) is float and -_INF < v < _INF else _num(v))
        v = ev.node
        if v is not None:
            out += ',"node":' + _quote(v)
        v = ev.flow_id
        if v is not None:
            out += ',"flow_id":' + (repr(v) if type(v) is int else _num(v))
        v = ev.aq_id
        if v is not None:
            out += ',"aq_id":' + (repr(v) if type(v) is int else _num(v))
        v = ev.size
        if v is not None:
            out += ',"size":' + (repr(v) if type(v) is int else _num(v))
        v = ev.value
        if v is not None:
            out += ',"value":' + (repr(v) if type(v) is float and -_INF < v < _INF else _num(v))
        v = ev.reason
        if v is not None:
            out += ',"reason":' + _quote(v)
        return out + "}\n"
    except TypeError:
        return stock(ev) + "\n"


#: Hop fields only AQ, drop and cut hops carry: fetched in one C call and
#: compared against all-``None`` so the common queue hop skips them at once.
_HOP_REST = ("aq_id", "position", "agap", "limit", "ecn", "reason", "corr")
_HOP_REST_KEYS = tuple(f',"{name}":' for name in _HOP_REST)
_hop_rest = attrgetter(*_HOP_REST)
_NO_REST = (None,) * len(_HOP_REST)


def encode_hop(hop) -> str:
    """One ``HopRecord`` as a JSON object (no newline: it nests in a flight)."""
    try:
        v = hop.t_in
        out = '{"kind":' + _quote(hop.kind) + ',"node":' + _quote(hop.node) + ',"t_in":' + (
            repr(v) if type(v) is float and -_INF < v < _INF else _num(v))
        v = hop.t_out
        if v is not None:
            out += ',"t_out":' + (repr(v) if type(v) is float and -_INF < v < _INF else _num(v))
        v = hop.depth
        if v is not None:
            out += ',"depth":' + (repr(v) if type(v) is float and -_INF < v < _INF else _num(v))
        rest = _hop_rest(hop)
        if rest != _NO_REST:
            for key, v in zip(_HOP_REST_KEYS, rest):
                if v is not None:
                    out += key + (
                        _quote(v) if type(v) is str else "true" if v is True else _num(v))
        return out + "}"
    except TypeError:
        return stock(hop)


def encode_flight(flight) -> str:
    """One ``Flight`` as a JSONL line."""
    try:
        return (
            '{"packet_id":' + _num(flight.packet_id)
            + ',"flow_id":' + _num(flight.flow_id)
            + ',"src":' + _quote(flight.src)
            + ',"dst":' + _quote(flight.dst)
            + ',"kind":' + _num(flight.kind)
            + ',"size":' + _num(flight.size)
            + ',"status":' + _quote(flight.status)
            + ',"t_start":' + _num(flight.t_start)
            + ',"t_end":' + _num(flight.t_end)
            + ',"end_node":' + _quote(flight.end_node)
            + ',"hops":[' + ",".join(map(encode_hop, flight.hops))
            + (']}\n' if not flight.retransmission else '],"retransmission":true}\n')
        )
    except TypeError:
        return stock(flight) + "\n"


def read_records(
    path: str,
    parse: Callable[[dict], object],
    what: str,
    strict: bool = True,
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> Iterator:
    """Yield ``parse(obj)`` for each JSON-object line of ``path``.

    A malformed line — invalid JSON (e.g. the torn tail of a killed run),
    not an object, or one ``parse`` rejects — raises
    :class:`ConfigurationError` naming ``path:lineno``; with
    ``strict=False`` it is skipped after ``on_skip(lineno, detail)``.
    ``parse`` returns ``None`` for header lines that are not records.
    I/O errors always propagate as :class:`OSError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise KeyError("not a JSON object")
                record = parse(data)
            except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
                if strict:
                    raise ConfigurationError(
                        f"{path}:{lineno}: invalid {what} line: {exc}"
                    ) from exc
                if on_skip is not None:
                    on_skip(lineno, str(exc))
                continue
            if record is not None:
                yield record
