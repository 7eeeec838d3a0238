"""Tests for the trace format: records, validation, (de)serialisation."""

import pytest

from repro.errors import TraceError
from repro.sim.trace import (
    BRANCH,
    LOAD,
    OTHER,
    STORE,
    Trace,
    normalize_record,
    validate_record,
)


class TestNormalisation:
    def test_three_tuple_gains_dep_zero(self):
        assert normalize_record((LOAD, 0x400, 0x1000)) == (LOAD, 0x400, 0x1000, 0)

    def test_four_tuple_passthrough(self):
        assert normalize_record((LOAD, 1, 2, 1)) == (LOAD, 1, 2, 1)

    def test_truthy_dep_coerced_to_one(self):
        assert normalize_record((LOAD, 1, 2, True)) == (LOAD, 1, 2, 1)

    def test_wrong_arity_raises(self):
        with pytest.raises(TraceError):
            normalize_record((LOAD, 1))


class TestValidation:
    def test_valid_records_pass(self):
        for record in [
            (LOAD, 0x400, 0x1000, 0),
            (STORE, 0x404, 0x2000, 1),
            (BRANCH, 0x408, 0, 0),
            (OTHER, 0x40C, 0, 0),
        ]:
            validate_record(record)

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError):
            validate_record((9, 0x400, 0x1000, 0))

    def test_memory_record_needs_address(self):
        with pytest.raises(TraceError):
            validate_record((LOAD, 0x400, 0, 0))

    def test_bad_dep_rejected(self):
        with pytest.raises(TraceError):
            validate_record((LOAD, 0x400, 0x1000, 2))

    def test_trace_validate_walks_all_records(self):
        trace = Trace([(LOAD, 0x400, 0x1000, 0), (OTHER, 0x404, 0, 0)])
        trace.validate()  # no raise


class TestTraceContainer:
    def test_len_and_indexing(self):
        trace = Trace([(LOAD, 1, 64, 0), (OTHER, 2, 0, 0)], name="x")
        assert len(trace) == 2
        assert trace[0] == (LOAD, 1, 64, 0)

    def test_slicing_preserves_name(self):
        trace = Trace([(OTHER, 1, 0, 0)] * 10, name="x")
        assert trace[2:5].name == "x"
        assert len(trace[2:5]) == 3

    def test_memory_and_load_counts(self):
        trace = Trace([
            (LOAD, 1, 64, 0), (STORE, 2, 128, 0), (OTHER, 3, 0, 0),
        ])
        assert trace.memory_records == 2
        assert trace.load_records == 1

    def test_footprint_lines(self):
        trace = Trace([
            (LOAD, 1, 0, 0) if False else (LOAD, 1, 10, 0),
            (LOAD, 1, 50, 0),    # same line as 10
            (LOAD, 1, 100, 0),   # second line
        ])
        assert trace.footprint_lines() == 2

    def test_replay_wraps_around(self):
        trace = Trace([(OTHER, 1, 0, 0), (OTHER, 2, 0, 0)])
        replay = trace.replay()
        values = [next(replay)[1] for _ in range(5)]
        assert values == [1, 2, 1, 2, 1]

    def test_replay_of_empty_trace_raises(self):
        with pytest.raises(TraceError):
            next(Trace([]).replay())


class TestSerialisation:
    def test_roundtrip(self, tmp_path):
        from repro.ingest import ingest_binary, write_binary

        trace = Trace(
            [(LOAD, 0x400, 0x1000, 1), (OTHER, 0x404, 0, 0)], name="rt"
        )
        path = str(tmp_path / "trace.rib")
        write_binary(trace, path)
        loaded = ingest_binary(path, name="rt")
        assert list(loaded) == list(trace)
        assert loaded.name == "rt"


class TestImmutableRecords:
    """A trace's records are one tuple, handed over without a copy."""

    def test_constructor_normalises_into_a_tuple(self):
        trace = Trace([[LOAD, 1, 64], (OTHER, 2, 0, True)])
        assert type(trace.records) is tuple
        assert trace.records == ((LOAD, 1, 64, 0), (OTHER, 2, 0, 1))

    def test_records_are_read_only(self):
        trace = Trace([(LOAD, 1, 64, 0)])
        with pytest.raises(AttributeError):
            trace.records = ()

    def test_slice_is_tuple_backed(self):
        trace = Trace([(OTHER, i, 0, 0) for i in range(10)], name="x")
        window = trace[2:5]
        assert type(window.records) is tuple
        assert window.records == trace.records[2:5]

    def test_builder_hands_over_a_tuple(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder("built")
        builder.load("a", 0x1000)
        builder.store("b", 0x2000)
        trace = builder.build()
        assert type(trace.records) is tuple
        assert trace.records == tuple(builder.records)

    def test_ingest_hands_over_a_tuple(self, tmp_path):
        from repro.ingest import ingest_binary, write_binary

        path = str(tmp_path / "trace.rib")
        write_binary(Trace([(LOAD, 0x400, 0x1000, 1)]), path)
        loaded = ingest_binary(path)
        assert type(loaded.records) is tuple
        assert loaded.records == ((LOAD, 0x400, 0x1000, 1),)
