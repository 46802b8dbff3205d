"""The trace query engine: v2 store round-trips, segment pruning,
v1 backward compatibility, the query grammar, and aggregates."""

import pytest

from repro.obs.query import (
    QueryError,
    TraceQuery,
    TraceStore,
    open_store,
    parse_query,
    write_store,
)
from repro.obs.trace import Tracer, write_binary


def synthetic_tracer(spans=64):
    """A deterministic capture touching every phase and several tracks."""
    tracer = Tracer()
    for index in range(spans):
        cycle = index * 10
        tracer.begin("EBOX", cycle, "MOVL" if index % 2 else "ADDL2")
        tracer.complete(
            "UCODE", cycle + 1, "exec", 3, {"routine": "exec.movl"}
        )
        if index % 4 == 0:
            tracer.complete("MEM", cycle + 2, "read stall", 6)
        if index % 8 == 0:
            tracer.instant("VMS", cycle + 3, "page fault", {"mode": "read"})
        tracer.end("EBOX", cycle + 9)
    return tracer


# ---------------------------------------------------------------------------
# v2 store round-trip
# ---------------------------------------------------------------------------


def test_store_round_trip_preserves_every_record(tmp_path):
    tracer = synthetic_tracer()
    path = tmp_path / "t.vaxtrace"
    footer = write_store(tracer, str(path), meta={"workload": "synthetic"})
    assert footer["version"] == 2
    assert footer["record_count"] == len(tracer)
    assert footer["meta"]["workload"] == "synthetic"

    store = open_store(str(path))
    live = TraceQuery(tracer)
    stored = TraceQuery(store)
    assert stored.count() == live.count()
    assert stored.where(track="MEM").sum("cycles") == live.where(
        track="MEM"
    ).sum("cycles")
    assert stored.where(track="EBOX", phase="E").count() == live.where(
        track="EBOX", phase="E"
    ).count()
    assert stored.group_by("name") == live.group_by("name")


def test_store_preserves_aux_columns(tmp_path):
    tracer = synthetic_tracer()
    path = tmp_path / "t.vaxtrace"
    write_store(tracer, str(path))
    store = open_store(str(path))
    live = TraceQuery(tracer).where(routine="exec.movl").count()
    assert live > 0
    assert TraceQuery(store).where(routine="exec.movl").count() == live


def test_segment_pruning_skips_nonmatching_segments(tmp_path):
    tracer = synthetic_tracer(spans=256)
    path = tmp_path / "t.vaxtrace"
    footer = write_store(tracer, str(path), segment_records=64)
    assert len(footer["segments"]) > 2

    store = open_store(str(path))
    # A tight cycle window only needs the segments overlapping it.
    narrow = TraceQuery(store).where(ts_min=0, ts_max=50).count()
    assert narrow > 0
    assert store.segments_scanned < len(footer["segments"])


def test_segment_pruning_by_track(tmp_path):
    # VMS events are rare; with tiny segments most hold none and the
    # footer's per-segment track sets let the store skip them.
    tracer = synthetic_tracer(spans=256)
    path = tmp_path / "t.vaxtrace"
    footer = write_store(tracer, str(path), segment_records=16)
    store = open_store(str(path))
    count = TraceQuery(store).where(track="VMS").count()
    assert count == 256 // 8
    assert store.segments_scanned < len(footer["segments"])


def test_store_records_drop_count(tmp_path):
    tracer = Tracer(capacity=8)
    for cycle in range(20):
        tracer.instant("EBOX", cycle, "tick")
    path = tmp_path / "t.vaxtrace"
    footer = write_store(tracer, str(path))
    assert footer["dropped"] == 12
    assert open_store(str(path)).footer["dropped"] == 12


def test_extra_events_merge_by_timestamp(tmp_path):
    tracer = synthetic_tracer(spans=8)
    extra = [("I", "JIT", 15, "record formed", 3, {"reason": "MOVL"})]
    path = tmp_path / "t.vaxtrace"
    write_store(tracer, str(path), extra_events=extra)
    store = open_store(str(path))
    assert TraceQuery(store).where(track="JIT").count() == 1
    timestamps = [record.ts for record in store.iter_records()]
    assert timestamps == sorted(timestamps)


# ---------------------------------------------------------------------------
# v1 backward compatibility
# ---------------------------------------------------------------------------


def test_v1_binary_opens_through_the_same_front_door(tmp_path):
    tracer = synthetic_tracer()
    path = tmp_path / "t.bin"
    write_binary(tracer, str(path))
    store = open_store(str(path))
    live = TraceQuery(tracer)
    stored = TraceQuery(store)
    assert stored.count() == live.count()
    assert stored.where(track="MEM").sum("cycles") == live.where(
        track="MEM"
    ).sum("cycles")
    # v1 dropped args, so aux filters match nothing — but must not error.
    assert stored.where(routine="exec.movl").count() == 0


def test_open_store_rejects_garbage(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"not a trace at all, sorry")
    with pytest.raises(QueryError):
        open_store(str(path))


# ---------------------------------------------------------------------------
# the query API
# ---------------------------------------------------------------------------


def test_where_is_immutable_and_chains():
    tracer = synthetic_tracer()
    base = TraceQuery(tracer)
    mem = base.where(track="MEM")
    assert base.count() != mem.count()
    assert mem.where(phase="X").count() == mem.count()


def test_opcode_filter_targets_ebox_mnemonics():
    tracer = synthetic_tracer()
    query = TraceQuery(tracer).where(opcode="movl")
    assert query.count() == TraceQuery(tracer).where(
        track="EBOX", name="MOVL"
    ).count()


def test_histogram_reports_percentiles():
    tracer = synthetic_tracer()
    stats = TraceQuery(tracer).where(track="MEM").histogram()
    assert stats["count"] > 0
    assert stats["min"] <= stats["p50"] <= stats["p90"] <= stats["p99"] <= stats["max"]
    assert stats["sum"] == TraceQuery(tracer).where(track="MEM").sum("cycles")


def test_group_by_track_partitions_the_count():
    tracer = synthetic_tracer()
    groups = TraceQuery(tracer).group_by("track", agg="count")
    assert sum(groups.values()) == TraceQuery(tracer).count()


def test_unknown_group_key_raises():
    with pytest.raises(QueryError):
        TraceQuery(synthetic_tracer()).group_by("flavor")


def test_mean_of_empty_selection_is_zero():
    assert TraceQuery(synthetic_tracer()).where(track="JIT").mean() == 0.0


# ---------------------------------------------------------------------------
# the query grammar
# ---------------------------------------------------------------------------


def test_parse_sum_cycles_with_filters():
    tracer = synthetic_tracer()
    plan = parse_query("stall cycles where track=MEM")
    assert plan.run(tracer) == TraceQuery(tracer).where(
        track="MEM", name_contains="stall"
    ).sum("cycles")


def test_parse_count_events_with_two_filters():
    tracer = synthetic_tracer()
    plan = parse_query("count events where track=VMS and name=page fault")
    assert plan.run(tracer) == TraceQuery(tracer).where(
        track="VMS", name="page fault"
    ).count()


def test_parse_group_by():
    tracer = synthetic_tracer()
    plan = parse_query("sum cycles group by track")
    assert plan.run(tracer) == TraceQuery(tracer).group_by(
        "track", agg="sum", field="cycles"
    )


def test_parse_rejects_unknown_where_key():
    with pytest.raises(QueryError):
        parse_query("sum cycles where flavor=vanilla")


def test_parse_rejects_unknown_measure():
    with pytest.raises(QueryError):
        parse_query("sum bananas where track=MEM")


def test_parse_rejects_empty_query():
    with pytest.raises(QueryError):
        parse_query("   ")


# ---------------------------------------------------------------------------
# the CLI face (repro trace --format store / repro query)
# ---------------------------------------------------------------------------


def test_cli_store_then_query_round_trip(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main([
        "trace", "educational", "--instructions", "1200", "--warmup", "400",
        "--format", "store", "--output", "cap",
    ]) == 0
    assert (tmp_path / "cap.vaxtrace").exists()
    capsys.readouterr()

    assert main([
        "query", "stall cycles where track=MEM", "--trace", "cap.vaxtrace",
    ]) == 0
    out = capsys.readouterr().out
    assert "stall cycles where track=MEM" in out

    assert main([
        "query", "sum cycles group by track", "--trace", "cap.vaxtrace",
        "--json",
    ]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]


def test_cli_query_rejects_bad_expression(tmp_path, capsys):
    from repro.cli import main

    assert main(["query", "sum bananas where track=MEM", "--trace", "x"]) == 2


def test_cli_query_needs_a_source():
    from repro.cli import main

    assert main(["query", "count events"]) == 2
