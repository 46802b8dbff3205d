"""Indexed trace store + filter/aggregate query engine.

The paper's method is asking precise questions of a measured machine —
"how many stall cycles came from specifier decode?" — and the Chrome
export answers none of them without loading the whole capture into a
viewer.  This module makes traces *queryable*:

* :func:`write_store` — the VAXTRACE **v2** on-disk format: fixed-width
  records written in segments, with a JSON footer indexing each
  segment's track set, name set and cycle range.  A query plans against
  the footer and seeks straight to the segments that can match; the
  rest of the file is never read.
* :func:`open_store` — reads v2 natively and falls back to the v1
  reader (:func:`repro.obs.trace.read_binary`) for old captures, so
  every trace ever written stays queryable.
* :class:`TraceQuery` — ``TraceQuery(trace).where(track="MEM",
  name_contains="stall").sum("cycles")`` / ``.histogram()`` /
  ``.group_by("routine")`` over a store, a live
  :class:`~repro.obs.trace.Tracer`, a compile-event
  :class:`~repro.obs.channel.EventChannel`, or a plain event list.
* :func:`parse_query` — the mini-language behind ``repro query``:
  ``"stall cycles where track=MEM and routine=SPEC_FETCH"``.

Records carry one categorical annotation (``aux``) distilled from the
event's args at write time — the micro-routine for stalls, the
addressing mode for specifier spans, the reason for compile-lifecycle
events — which is what makes ``routine=`` and ``reason=`` filters work
on the binary format (v1 dropped args entirely).
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.obs.trace import (
    PHASE_BEGIN,
    PHASE_COMPLETE,
    PHASE_END,
    PHASE_INSTANT,
    TRACKS,
    Tracer,
    read_binary,
)

_MAGIC = b"VAXTRACE"
STORE_VERSION = 2
#: phase(1) track(1) name-id(2) aux-id(2) ts-cycles(8) dur-cycles(8)
_RECORD_V2 = struct.Struct("<BBHHqq")
_HEADER = struct.Struct("<H")  # version, directly after the magic
_TRAILER = struct.Struct("<Q")  # footer offset, before the closing magic
_PHASE_CODES = {PHASE_BEGIN: 0, PHASE_END: 1, PHASE_COMPLETE: 2, PHASE_INSTANT: 3}
_PHASE_NAMES = {code: phase for phase, code in _PHASE_CODES.items()}

#: Records per segment.  Small enough that a selective query touches a
#: sliver of a long capture, large enough that the footer stays tiny
#: (a 1M-event trace indexes in ~256 segment entries).
DEFAULT_SEGMENT_RECORDS = 4096

#: args keys mined for the aux annotation, in priority order.
_AUX_KEYS = ("routine", "reason", "mode", "process", "cause")


class QueryError(ValueError):
    """A malformed query, an unknown key, or an unreadable store."""


class Record(NamedTuple):
    """One normalized trace record — the query engine's row type."""

    phase: str
    track: str
    ts: int
    name: str
    dur: int
    aux: str


def _aux_of(args: Optional[dict]) -> str:
    if not args:
        return ""
    for key in _AUX_KEYS:
        value = args.get(key)
        if value:
            return str(value)
    return ""


def normalize(events: Iterable[tuple]) -> Iterator[Record]:
    """Tracer-shaped ``(phase, track, ts, name, dur, args)`` tuples as
    :class:`Record` rows, distilling args into the aux column."""
    for phase, track, ts, name, dur, args in events:
        yield Record(phase, track, ts, name, dur, _aux_of(args))


# ---------------------------------------------------------------------------
# the v2 store: writer
# ---------------------------------------------------------------------------


def write_store(
    source: Union[Tracer, Iterable[tuple]],
    destination: str,
    meta: Optional[dict] = None,
    segment_records: int = DEFAULT_SEGMENT_RECORDS,
    extra_events: Optional[Iterable[tuple]] = None,
) -> dict:
    """Write a VAXTRACE v2 store; returns the footer that was written.

    ``source`` is a :class:`Tracer` or an iterable of tracer-shaped
    tuples; ``extra_events`` (e.g. an
    :class:`~repro.obs.channel.EventChannel`'s
    :meth:`~repro.obs.channel.EventChannel.to_trace_events`) are merged
    in by timestamp — this is how a capture archives the compile
    lifecycle next to the pipeline events.
    """
    dropped = 0
    if isinstance(source, Tracer):
        dropped = source.dropped
        events = source.events()
    else:
        events = list(source)
    if extra_events is not None:
        events = sorted(
            list(events) + list(extra_events), key=lambda event: event[2]
        )
    if segment_records <= 0:
        raise ValueError("segment_records must be positive")

    tracks: List[str] = list(TRACKS)
    track_ids = {track: i for i, track in enumerate(tracks)}
    names: Dict[str, int] = {}
    auxes: Dict[str, int] = {"": 0}

    def intern(table: Dict[str, int], value: str, what: str) -> int:
        ident = table.get(value)
        if ident is None:
            ident = len(table)
            if ident > 0xFFFF:
                raise ValueError(
                    "too many distinct {} for the store format".format(what)
                )
            table[value] = ident
        return ident

    segments: List[dict] = []
    with open(destination, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_HEADER.pack(STORE_VERSION))
        pending: List[bytes] = []
        seg = None

        def flush() -> None:
            nonlocal seg
            if seg is None:
                return
            seg["tracks"] = sorted(seg["tracks"])
            seg["names"] = sorted(seg["names"])
            segments.append(seg)
            handle.write(b"".join(pending))
            del pending[:]
            seg = None

        for record in normalize(events):
            if seg is None:
                seg = {
                    "offset": handle.tell(),
                    "count": 0,
                    "ts_min": record.ts,
                    "ts_max": record.ts,
                    "tracks": set(),
                    "names": set(),
                }
            track_id = track_ids.get(record.track)
            if track_id is None:
                track_id = len(tracks)
                if track_id > 0xFF:
                    raise ValueError("too many distinct tracks for the store format")
                tracks.append(record.track)
                track_ids[record.track] = track_id
            name_id = intern(names, record.name, "event names")
            aux_id = intern(auxes, record.aux, "aux annotations")
            pending.append(
                _RECORD_V2.pack(
                    _PHASE_CODES[record.phase],
                    track_id,
                    name_id,
                    aux_id,
                    record.ts,
                    record.dur,
                )
            )
            seg["count"] += 1
            seg["ts_min"] = min(seg["ts_min"], record.ts)
            seg["ts_max"] = max(seg["ts_max"], record.ts)
            seg["tracks"].add(track_id)
            seg["names"].add(name_id)
            if seg["count"] >= segment_records:
                flush()
        flush()

        footer = {
            "version": STORE_VERSION,
            "tracks": tracks,
            "names": sorted(names, key=names.get),
            "aux": sorted(auxes, key=auxes.get),
            "segments": segments,
            "record_count": sum(entry["count"] for entry in segments),
            "dropped": dropped,
            "meta": meta or {},
        }
        footer_offset = handle.tell()
        handle.write(json.dumps(footer, separators=(",", ":")).encode("utf-8"))
        handle.write(_TRAILER.pack(footer_offset))
        handle.write(_MAGIC)
    return footer


# ---------------------------------------------------------------------------
# the v2 store: reader
# ---------------------------------------------------------------------------


class TraceStore:
    """A queryable trace: either an indexed v2 file (seekable; queries
    scan only the segments whose footer entry can match) or an
    in-memory event list (v1 fallback, live tracers)."""

    def __init__(
        self,
        path: Optional[str] = None,
        footer: Optional[dict] = None,
        records: Optional[List[Record]] = None,
    ):
        self.path = path
        self._footer = footer
        self._records = records
        #: segments whose bytes the last iteration actually read — the
        #: observable effect of index pruning (tests assert on it).
        self.segments_scanned = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[tuple]) -> "TraceStore":
        return cls(records=list(normalize(events)))

    # -- metadata -------------------------------------------------------

    @property
    def indexed(self) -> bool:
        return self._footer is not None

    @property
    def version(self) -> int:
        return self._footer["version"] if self._footer else 0

    @property
    def meta(self) -> dict:
        return dict(self._footer.get("meta", {})) if self._footer else {}

    @property
    def dropped(self) -> int:
        return int(self._footer.get("dropped", 0)) if self._footer else 0

    @property
    def footer(self) -> dict:
        """The index footer (empty for in-memory / v1 sources)."""
        return dict(self._footer) if self._footer else {}

    @property
    def tracks(self) -> List[str]:
        if self._footer:
            return list(self._footer["tracks"])
        return sorted({record.track for record in self._records or []})

    @property
    def names(self) -> List[str]:
        if self._footer:
            return list(self._footer["names"])
        return sorted({record.name for record in self._records or []})

    @property
    def segments(self) -> List[dict]:
        return list(self._footer["segments"]) if self._footer else []

    def __len__(self) -> int:
        if self._footer:
            return int(self._footer["record_count"])
        return len(self._records or [])

    # -- iteration ------------------------------------------------------

    def iter_records(
        self,
        tracks: Optional[set] = None,
        names: Optional[set] = None,
        ts_min: Optional[int] = None,
        ts_max: Optional[int] = None,
    ) -> Iterator[Record]:
        """Yield records, pruning non-matching segments via the index.

        The hint sets are an *over*-approximation: every yielded record
        still passes through the query's exact filters — the index only
        decides which file regions are worth reading.
        """
        self.segments_scanned = 0
        if self._footer is None:
            for record in self._records or []:
                yield record
            return
        footer = self._footer
        track_names = footer["tracks"]
        name_table = footer["names"]
        aux_table = footer["aux"]
        track_ids = (
            {i for i, t in enumerate(track_names) if t in tracks}
            if tracks is not None
            else None
        )
        name_ids = (
            {i for i, n in enumerate(name_table) if n in names}
            if names is not None
            else None
        )
        if track_ids is not None and not track_ids:
            return
        if name_ids is not None and not name_ids:
            return
        with open(self.path, "rb") as handle:
            for seg in footer["segments"]:
                if ts_min is not None and seg["ts_max"] < ts_min:
                    continue
                if ts_max is not None and seg["ts_min"] > ts_max:
                    continue
                if track_ids is not None and not track_ids.intersection(seg["tracks"]):
                    continue
                if name_ids is not None and not name_ids.intersection(seg["names"]):
                    continue
                self.segments_scanned += 1
                handle.seek(seg["offset"])
                blob = handle.read(seg["count"] * _RECORD_V2.size)
                for fields in _RECORD_V2.iter_unpack(blob):
                    phase_code, track_id, name_id, aux_id, ts, dur = fields
                    yield Record(
                        _PHASE_NAMES[phase_code],
                        track_names[track_id],
                        ts,
                        name_table[name_id],
                        dur,
                        aux_table[aux_id],
                    )


def open_store(path: str) -> TraceStore:
    """Open any VAXTRACE capture: v2 natively (indexed), v1 via the
    legacy reader (materialized in memory, aux empty)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise QueryError("not a VAXTRACE capture: {}".format(path))
        (version,) = _HEADER.unpack(handle.read(_HEADER.size))
        if version != STORE_VERSION:
            # v1 wrote "<HII" here; the first half-word is the version.
            return TraceStore(records=list(normalize(read_binary(path))))
        handle.seek(-(_TRAILER.size + len(_MAGIC)), 2)
        trailer = handle.read(_TRAILER.size + len(_MAGIC))
        if trailer[_TRAILER.size:] != _MAGIC:
            raise QueryError("truncated VAXTRACE v2 store: {}".format(path))
        (footer_offset,) = _TRAILER.unpack(trailer[: _TRAILER.size])
        handle.seek(footer_offset)
        end = handle.seek(0, 2) - (_TRAILER.size + len(_MAGIC))
        handle.seek(footer_offset)
        footer = json.loads(handle.read(end - footer_offset).decode("utf-8"))
    return TraceStore(path=path, footer=footer)


# ---------------------------------------------------------------------------
# the query engine
# ---------------------------------------------------------------------------

Source = Union[TraceStore, Tracer, Iterable[tuple]]

#: group_by keys -> Record attribute
_GROUP_KEYS = {
    "name": "name",
    "track": "track",
    "phase": "phase",
    "aux": "aux",
    "routine": "aux",
    "reason": "aux",
}


def _as_store(source: Source) -> TraceStore:
    if isinstance(source, TraceStore):
        return source
    if isinstance(source, Tracer):
        return TraceStore.from_events(source.events())
    if hasattr(source, "to_trace_events"):  # EventChannel
        return TraceStore.from_events(source.to_trace_events())
    return TraceStore.from_events(source)


class TraceQuery:
    """A lazily evaluated filter/aggregate over a trace.

    ``.where()`` returns a new query with the filter added (queries are
    immutable and re-runnable); aggregation methods iterate the source,
    pushing track/name/timestamp hints into the store so an indexed
    file only reads matching segments.
    """

    def __init__(self, source: Source, _filters: Optional[dict] = None):
        self._store = _as_store(source)
        self._filters: dict = dict(_filters or {})

    @property
    def store(self) -> TraceStore:
        return self._store

    # -- filters --------------------------------------------------------

    def where(
        self,
        track: Optional[str] = None,
        name: Optional[str] = None,
        phase: Optional[str] = None,
        routine: Optional[str] = None,
        opcode: Optional[str] = None,
        aux: Optional[str] = None,
        reason: Optional[str] = None,
        name_contains: Optional[str] = None,
        name_in: Optional[Iterable[str]] = None,
        ts_min: Optional[int] = None,
        ts_max: Optional[int] = None,
    ) -> "TraceQuery":
        filters = dict(self._filters)
        if track is not None:
            filters["track"] = track
        if name is not None:
            filters["name"] = name
        if name_in is not None:
            filters["name_in"] = frozenset(name_in)
        if phase is not None:
            filters["phase"] = phase
        for value in (routine, aux, reason):
            if value is not None:
                filters["aux"] = value
        if opcode is not None:
            # Instruction spans live on the EBOX track named after the
            # decoded mnemonic — "opcode=" is sugar for exactly that.
            filters["name"] = opcode.upper()
            filters.setdefault("track", "EBOX")
        if name_contains is not None:
            filters["name_contains"] = name_contains.lower()
        if ts_min is not None:
            filters["ts_min"] = int(ts_min)
        if ts_max is not None:
            filters["ts_max"] = int(ts_max)
        return TraceQuery(self._store, filters)

    def _records(self) -> Iterator[Record]:
        filters = self._filters
        track = filters.get("track")
        name = filters.get("name")
        name_set = filters.get("name_in")
        phase = filters.get("phase")
        aux = filters.get("aux")
        contains = filters.get("name_contains")
        ts_min = filters.get("ts_min")
        ts_max = filters.get("ts_max")
        track_hint = {track} if track is not None else None
        name_hint = {name} if name is not None else None
        if name_hint is None and name_set is not None:
            name_hint = set(name_set)
        for record in self._store.iter_records(
            tracks=track_hint, names=name_hint, ts_min=ts_min, ts_max=ts_max
        ):
            if track is not None and record.track != track:
                continue
            if name is not None and record.name != name:
                continue
            if name_set is not None and record.name not in name_set:
                continue
            if phase is not None and record.phase != phase:
                continue
            if aux is not None and record.aux != aux:
                continue
            if contains is not None and contains not in record.name.lower():
                continue
            if ts_min is not None and record.ts < ts_min:
                continue
            if ts_max is not None and record.ts > ts_max:
                continue
            yield record

    @staticmethod
    def _measure(record: Record, field: str) -> int:
        if field in ("cycles", "dur"):
            return record.dur
        if field == "ts":
            return record.ts
        raise QueryError("unknown measure {!r} (cycles, dur, ts)".format(field))

    # -- aggregates -----------------------------------------------------

    def events(self, limit: Optional[int] = None) -> List[Record]:
        out: List[Record] = []
        for record in self._records():
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
        return out

    def count(self) -> int:
        return sum(1 for _ in self._records())

    def sum(self, field: str = "cycles") -> int:
        return sum(self._measure(record, field) for record in self._records())

    def mean(self, field: str = "cycles") -> float:
        total = 0
        count = 0
        for record in self._records():
            total += self._measure(record, field)
            count += 1
        return total / count if count else 0.0

    def histogram(self, field: str = "cycles") -> Dict[str, float]:
        """count/sum/min/max/mean plus p50/p90/p99 of the measure."""
        from repro.obs.metrics import percentile

        samples = [self._measure(record, field) for record in self._records()]
        if not samples:
            return {
                "count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        samples.sort()
        total = sum(samples)
        return {
            "count": len(samples),
            "sum": total,
            "min": samples[0],
            "max": samples[-1],
            "mean": total / len(samples),
            "p50": percentile(samples, 50),
            "p90": percentile(samples, 90),
            "p99": percentile(samples, 99),
        }

    def group_by(
        self, key: str, agg: str = "sum", field: str = "cycles"
    ) -> Dict[str, Union[int, float]]:
        """Aggregate per group: ``key`` is name/track/phase/aux (routine
        and reason alias aux); ``agg`` is sum/count/mean."""
        attr = _GROUP_KEYS.get(key)
        if attr is None:
            raise QueryError(
                "unknown group key {!r} (one of {})".format(
                    key, "/".join(sorted(_GROUP_KEYS))
                )
            )
        totals: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        for record in self._records():
            group = getattr(record, attr) or "(none)"
            counts[group] = counts.get(group, 0) + 1
            totals[group] = totals.get(group, 0) + self._measure(record, field)
        if agg == "count":
            return counts
        if agg == "sum":
            return totals
        if agg == "mean":
            return {group: totals[group] / counts[group] for group in totals}
        raise QueryError("unknown aggregate {!r} (sum, count, mean)".format(agg))


# ---------------------------------------------------------------------------
# the query mini-language (repro query "...")
# ---------------------------------------------------------------------------

#: where-clause keys the language accepts (everything else is a typo we
#: want to catch, not silently ignore).
_WHERE_KEYS = (
    "track", "name", "phase", "routine", "opcode", "aux", "reason",
    "ts_min", "ts_max",
)

_AGGS = ("count", "sum", "mean", "histogram")


class QueryPlan(NamedTuple):
    """A parsed query, ready to run against any trace source."""

    agg: str
    field: str
    filters: Dict[str, str]
    group_by: Optional[str]
    text: str

    def run(self, source: Source) -> Union[int, float, dict]:
        query = TraceQuery(source)
        for key, value in self.filters.items():
            query = query.where(**{key: value})
        if self.group_by is not None:
            return query.group_by(self.group_by, agg=self.agg, field=self.field)
        if self.agg == "count":
            return query.count()
        if self.agg == "sum":
            return query.sum(self.field)
        if self.agg == "mean":
            return query.mean(self.field)
        return query.histogram(self.field)


def _split_ci(text: str, separator: str) -> List[str]:
    """Case-insensitive split on a word-bounded separator."""
    parts: List[str] = []
    lower = text.lower()
    start = 0
    while True:
        index = lower.find(separator, start)
        if index < 0:
            parts.append(text[start:])
            return parts
        parts.append(text[start:index])
        start = index + len(separator)


def parse_query(text: str) -> QueryPlan:
    """Parse ``[agg] measure [where k=v [and k=v ...]] [group by key]``.

    The measure is ``cycles`` (sum of event durations) or ``events``
    (event count); adjectives before it become a name filter, so
    ``"stall cycles where track=MEM"`` sums the duration of every
    MEM-track event whose name mentions "stall".  Examples::

        stall cycles where track=MEM and routine=SPEC_FETCH
        count events where track=VMS and name=page fault
        cycles where name=read stall group by routine
        histogram cycles where opcode=MOVL
        count events where track=JIT and name=fallback group by reason
    """
    source = " ".join(text.split())
    if not source:
        raise QueryError("empty query")
    group_parts = _split_ci(source, " group by ")
    if len(group_parts) > 2:
        raise QueryError("more than one 'group by' clause")
    body = group_parts[0]
    group_clause = group_parts[1] if len(group_parts) == 2 else None
    where_parts = _split_ci(body, " where ")
    if len(where_parts) > 2:
        raise QueryError("more than one 'where' clause")
    measure_text = where_parts[0].strip()
    conditions = where_parts[1].strip() if len(where_parts) > 1 else ""

    words = measure_text.split()
    agg = None
    if words and words[0].lower() in _AGGS:
        agg = words.pop(0).lower()
    if not words:
        raise QueryError("missing measure (try 'cycles' or 'events')")
    head = words[-1].lower()
    if head == "cycles":
        field = "cycles"
        default_agg = "sum"
    elif head in ("events", "event"):
        field = "cycles"
        default_agg = "count"
    else:
        raise QueryError(
            "measure must end in 'cycles' or 'events', got {!r}".format(words[-1])
        )
    filters: Dict[str, str] = {}
    adjectives = " ".join(words[:-1]).strip()
    if adjectives:
        filters["name_contains"] = adjectives

    if conditions:
        for clause in _split_ci(conditions, " and "):
            clause = clause.strip()
            if "=" not in clause:
                raise QueryError(
                    "condition {!r} is not key=value".format(clause)
                )
            key, _, value = clause.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _WHERE_KEYS:
                raise QueryError(
                    "unknown filter {!r} (one of {})".format(
                        key, ", ".join(_WHERE_KEYS)
                    )
                )
            if not value:
                raise QueryError("empty value for {!r}".format(key))
            if key in ("ts_min", "ts_max"):
                try:
                    filters[key] = int(value)
                except ValueError:
                    raise QueryError("{} wants an integer, got {!r}".format(key, value))
            else:
                filters[key] = value

    group_key = None
    if group_clause is not None:
        group_key = group_clause.strip().lower()
        if group_key not in _GROUP_KEYS:
            raise QueryError(
                "cannot group by {!r} (one of {})".format(
                    group_key, "/".join(sorted(_GROUP_KEYS))
                )
            )
    return QueryPlan(
        agg=agg or default_agg,
        field=field,
        filters=filters,
        group_by=group_key,
        text=source,
    )
