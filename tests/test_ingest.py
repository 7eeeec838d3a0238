"""Hardened streaming ingestion: readers, policies, conversion, registry.

The contract under test (docs/ingestion.md):

* strict ingestion raises one *typed* error per fault class, each with
  its own CLI exit code (format 14, truncated 15, checksum 16, budget
  17);
* lenient/quarantine ingestion drops exactly the malformed records —
  ``report.skipped_indices`` names them, the survivors are
  bit-identical to the clean trace minus those indices, and the
  quarantine sidecar holds one row per drop;
* the k6 → binary → k6 round trip is bit-identical, so registry
  signatures are stable across conversion;
* a registered trace whose file changed by one bit refuses to load
  (and therefore to run or replay cached results) with
  ``TraceChecksumError``.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.errors import (
    ConfigurationError,
    TraceBudgetError,
    TraceChecksumError,
    TraceError,
    TraceFormatError,
    TraceTruncatedError,
    exit_code_for,
)
from repro.ingest import (
    BinaryTraceWriter,
    K6_READ_IP,
    K6_WRITE_IP,
    LENIENT,
    QUARANTINE,
    STRICT,
    TraceRegistry,
    convert_trace,
    detect_format,
    file_signature,
    ingest_binary,
    ingest_k6,
    read_quarantine,
    stream_binary_columns,
    stream_k6_columns,
    write_binary,
    write_k6,
)
from repro.ingest.binary import (
    FOOTER_SIZE,
    HEADER_SIZE,
    MARKER,
    RECORD_SIZE,
)
from repro.resilience.chaos import (
    InputFaultPlan,
    corrupt_binary,
    corrupt_k6_text,
    truncate_gzip,
)
from repro.resilience.journal import CheckpointJournal
from repro.sim.trace import LOAD, STORE, Trace

CORPUS = os.path.join(os.path.dirname(__file__), "data", "ingest_corpus")

VALID_K6 = os.path.join(CORPUS, "valid.k6")
VALID_RIB = os.path.join(CORPUS, "valid.rib")


def small_records(n: int = 50) -> list[tuple[int, int, int, int]]:
    """n memory records with both kinds and distinct addresses."""
    return [
        (LOAD if i % 3 else STORE,
         K6_READ_IP if i % 3 else K6_WRITE_IP,
         0x1_0000 + 64 * i, 0)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# k6 text reader
# ---------------------------------------------------------------------------

class TestK6Reader:
    def test_valid_corpus_file_parses(self):
        trace, report = ingest_k6(VALID_K6)
        assert report.records == 10
        assert report.skipped == 0
        assert report.bytes_consumed == os.path.getsize(VALID_K6)
        assert all(record[0] in (LOAD, STORE) for record in trace)

    def test_synthetic_ips_are_deterministic(self):
        trace, _ = ingest_k6(VALID_K6)
        for kind, ip, _addr, dep in trace:
            assert ip == (K6_READ_IP if kind == LOAD else K6_WRITE_IP)
            assert dep == 0

    def test_gzip_detected_by_magic_not_suffix(self, tmp_path):
        # A gzipped trace named without .gz still reads transparently.
        path = str(tmp_path / "trace.k6")
        with open(VALID_K6, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(gzip.compress(payload))
        trace, report = ingest_k6(path)
        assert report.records == 10

    def test_bytes_source(self):
        with open(VALID_K6, "rb") as fh:
            payload = fh.read()
        trace, report = ingest_k6(payload, name="mem")
        assert report.records == 10
        assert trace.name == "mem"

    def test_comments_and_blanks_ignored(self):
        trace, report = ingest_k6(os.path.join(CORPUS, "header_only.k6"))
        assert report.records == 0
        assert report.skipped == 0
        assert len(trace) == 0

    def test_empty_file_is_zero_records_zero_faults(self):
        _, report = ingest_k6(os.path.join(CORPUS, "empty.k6"))
        assert report.records == 0
        assert report.skipped == 0

    @pytest.mark.parametrize("line", [
        b"0x1000 P_MEM_RD\n",                # too few fields
        b"0x1000 P_MEM_RD 10 extra\n",       # too many fields
        b"0x1000 P_FETCH 10\n",              # unknown command
        b"0xzz P_MEM_RD 10\n",               # unparseable address
        b"0x1000 P_MEM_RD ten\n",            # unparseable cycle
        b"0x0 P_MEM_RD 10\n",                # null address
        (b"0x%x P_MEM_RD 10\n" % (1 << 80)),  # uint64 overflow
    ])
    def test_strict_raises_format_error(self, line):
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_k6(b"0x1000 P_MEM_RD 0\n" + line, policy=STRICT)
        assert exit_code_for(excinfo.value) == 14

    def test_lenient_skips_and_names_the_dropped_indices(self):
        trace, report = ingest_k6(os.path.join(CORPUS, "mixed.k6"),
                                  policy=LENIENT)
        assert report.records == 3
        assert report.skipped == 6
        # The three survivors in input order.
        assert [record[2] for record in trace] == [0x1000, 0x1040, 0x1140]
        # Survivors + skipped indices partition the record-index space.
        survivors = set(range(report.records + report.skipped))
        survivors -= set(report.skipped_indices)
        assert len(survivors) == report.records

    def test_oversized_field_corpus_file(self):
        _, report = ingest_k6(os.path.join(CORPUS, "oversized_field.k6"),
                              policy=LENIENT)
        assert report.records == 2
        assert report.fault_counts == {"format": 1}

    def test_budget_error_past_max_errors(self):
        with pytest.raises(TraceBudgetError) as excinfo:
            ingest_k6(os.path.join(CORPUS, "mixed.k6"), policy=LENIENT,
                      max_errors=2)
        assert exit_code_for(excinfo.value) == 17

    def test_truncated_gzip_strict_raises_truncated(self):
        with pytest.raises(TraceTruncatedError) as excinfo:
            ingest_k6(os.path.join(CORPUS, "truncated.k6.gz"))
        assert exit_code_for(excinfo.value) == 15

    def test_truncated_gzip_lenient_counts_one_fault(self):
        _, report = ingest_k6(os.path.join(CORPUS, "truncated.k6.gz"),
                              policy=LENIENT)
        assert report.fault_counts.get("truncated", 0) == 1

    def test_quarantine_sidecar_rows_match_skips(self, tmp_path):
        sidecar = str(tmp_path / "mixed.quarantine")
        _, report = ingest_k6(os.path.join(CORPUS, "mixed.k6"),
                              policy=QUARANTINE, quarantine_path=sidecar)
        rows = read_quarantine(sidecar)
        assert len(rows) == report.skipped == 6
        assert [row["index"] for row in rows] == report.skipped_indices
        # Raw bytes survive in the sidecar for post-mortem inspection.
        assert bytes.fromhex(rows[0]["raw_hex"]).startswith(b"not a record")

    def test_max_records_bounds_materialization(self):
        trace, report = ingest_k6(VALID_K6, max_records=4)
        assert len(trace) == 4

    def test_write_k6_round_trip(self, tmp_path):
        records = small_records()
        path = str(tmp_path / "t.k6")
        assert write_k6(records, path) == len(records)
        trace, report = ingest_k6(path)
        assert list(trace) == records

    def test_write_k6_gz_round_trip(self, tmp_path):
        records = small_records()
        path = str(tmp_path / "t.k6.gz")
        write_k6(records, path)
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        trace, _ = ingest_k6(path)
        assert list(trace) == records

    def test_stream_columns_chunks_concatenate_to_trace(self):
        chunks = list(stream_k6_columns(VALID_K6, chunk_records=3))
        assert [len(chunk.kind) for chunk in chunks] == [3, 3, 3, 1]
        trace, _ = ingest_k6(VALID_K6)
        flat = [
            (int(chunk.kind[i]), int(chunk.ip[i]),
             int(chunk.addr[i]), int(chunk.dep[i]))
            for chunk in chunks for i in range(len(chunk.kind))
        ]
        assert flat == list(trace)


# ---------------------------------------------------------------------------
# RIB1 binary format
# ---------------------------------------------------------------------------

class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        records = small_records()
        path = str(tmp_path / "t.rib")
        assert write_binary(records, path) == len(records)
        trace, report = ingest_binary(path)
        assert list(trace) == records
        assert report.skipped == 0

    def test_corpus_rib_matches_corpus_k6(self):
        k6_trace, _ = ingest_k6(VALID_K6)
        rib_trace, _ = ingest_binary(VALID_RIB)
        assert list(rib_trace) == list(k6_trace)

    def test_detect_format(self, tmp_path):
        assert detect_format(VALID_RIB) == "binary"
        assert detect_format(VALID_K6) == "k6"
        gz = str(tmp_path / "t.bin")
        with open(gz, "wb") as fh:
            fh.write(gzip.compress(b"0x1000 P_MEM_RD 0\n"))
        assert detect_format(gz) == "k6"

    def _damaged(self, tmp_path, mutate) -> str:
        path = str(tmp_path / "t.rib")
        write_binary(small_records(), path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        mutate(blob)
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        return path

    def test_bad_marker_is_format_fault(self, tmp_path):
        def smash_marker(blob):
            blob[HEADER_SIZE + 3 * RECORD_SIZE + RECORD_SIZE - 2] ^= 0xFF
        path = self._damaged(tmp_path, smash_marker)
        with pytest.raises(TraceFormatError):
            ingest_binary(path)
        # Lenient: the damaged record is dropped; the flip also stales
        # the footer digest, which costs one extra checksum fault.
        trace, report = ingest_binary(path, policy=LENIENT)
        assert report.fault_counts["format"] == 1
        assert report.fault_counts["checksum"] == 1
        assert len(trace) == len(small_records()) - 1

    def test_torn_trailing_record_is_truncated_fault(self, tmp_path):
        def tear(blob):
            del blob[len(blob) - FOOTER_SIZE - RECORD_SIZE // 2:]
        path = self._damaged(tmp_path, tear)
        with pytest.raises(TraceTruncatedError):
            ingest_binary(path)

    def test_payload_bit_rot_fails_the_footer_digest(self, tmp_path):
        def rot(blob):
            # Flip a payload bit that keeps the record well-formed.
            blob[HEADER_SIZE + 2 * RECORD_SIZE + 3] ^= 0x01
        path = self._damaged(tmp_path, rot)
        with pytest.raises(TraceChecksumError) as excinfo:
            ingest_binary(path)
        assert exit_code_for(excinfo.value) == 16

    def test_bad_magic_is_format_fault(self, tmp_path):
        def smash_magic(blob):
            blob[0] ^= 0xFF
        path = self._damaged(tmp_path, smash_magic)
        with pytest.raises(TraceFormatError):
            ingest_binary(path)

    def test_abandoned_writer_reads_as_truncated(self, tmp_path):
        path = str(tmp_path / "t.rib")
        writer = BinaryTraceWriter(path)
        for record in small_records(10):
            writer.append(record)
        writer.close()  # no finalize: crash surrogate
        with pytest.raises(TraceTruncatedError):
            ingest_binary(path)
        trace, report = ingest_binary(path, policy=LENIENT)
        assert len(trace) == 10  # payload is still readable greedily
        assert report.fault_counts["truncated"] == 1

    def test_writer_resume_after_crash(self, tmp_path):
        records = small_records(20)
        path = str(tmp_path / "t.rib")
        writer = BinaryTraceWriter(path)
        for record in records[:8]:
            writer.append(record)
        writer.close()
        # Torn partial record from the crash instant.
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef")
        resumed = BinaryTraceWriter.resume(path)
        assert resumed.count == 8
        for record in records[8:]:
            resumed.append(record)
        resumed.finalize()
        trace, report = ingest_binary(path)
        assert list(trace) == records
        assert report.skipped == 0

    def test_resume_refuses_finalized_file(self, tmp_path):
        path = str(tmp_path / "t.rib")
        write_binary(small_records(5), path)
        with pytest.raises(TraceError):
            BinaryTraceWriter.resume(path)

    def test_reader_resume_offset_must_be_record_boundary(self, tmp_path):
        path = str(tmp_path / "t.rib")
        write_binary(small_records(5), path)
        from repro.ingest.k6 import make_report
        from repro.ingest.binary import iter_binary_wire
        report = make_report(path, "binary", STRICT)
        with pytest.raises(ConfigurationError):
            list(iter_binary_wire(path, report, start_offset=HEADER_SIZE + 1))

    def test_stream_columns(self, tmp_path):
        path = str(tmp_path / "t.rib")
        write_binary(small_records(10), path)
        chunks = list(stream_binary_columns(path, chunk_records=4))
        assert [len(chunk.kind) for chunk in chunks] == [4, 4, 2]


# ---------------------------------------------------------------------------
# conversion
# ---------------------------------------------------------------------------

class TestConvert:
    def test_k6_binary_k6_round_trip_is_bit_identical(self, tmp_path):
        rib = str(tmp_path / "t.rib")
        back = str(tmp_path / "back.k6")
        _, written = convert_trace(VALID_K6, rib)
        assert written == 10
        _, written = convert_trace(rib, back, dst_format="k6")
        assert written == 10
        with open(VALID_K6, "rb") as fh:
            original = fh.read()
        with open(back, "rb") as fh:
            returned = fh.read()
        assert original == returned
        assert file_signature(VALID_K6) == file_signature(back)

    def test_lenient_conversion_drops_malformed_records(self, tmp_path):
        rib = str(tmp_path / "mixed.rib")
        report, written = convert_trace(os.path.join(CORPUS, "mixed.k6"),
                                        rib, policy=LENIENT)
        assert written == 3
        assert report.skipped == 6
        trace, _ = ingest_binary(rib)
        assert [record[2] for record in trace] == [0x1000, 0x1040, 0x1140]

    def test_unknown_format_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            convert_trace(VALID_K6, str(tmp_path / "x"), dst_format="elf")

    def test_journaled_convert_resumes_from_checkpoint(self, tmp_path):
        # Emulate the crash by doing exactly what _convert_to_binary
        # does up to the second checkpoint, then abandoning the writer.
        source = str(tmp_path / "big.k6")
        records = small_records(100)
        write_k6(records, source)
        reference = str(tmp_path / "reference.rib")
        convert_trace(source, reference)

        dst = str(tmp_path / "resumed.rib")
        journal_path = str(tmp_path / "convert.journal")
        from repro.ingest.k6 import iter_k6_wire, make_report
        report = make_report(source, "k6", STRICT)
        writer = BinaryTraceWriter(dst)
        with CheckpointJournal(journal_path) as journal:
            prefix = f"ingest:{os.path.basename(dst)}"
            for wire in iter_k6_wire(source, report):
                writer.append(wire)
                if writer.count % 16 == 0:
                    journal.record_done(f"{prefix}:chunk:"
                                        f"{writer.count // 16 - 1}",
                                        offset=report.bytes_consumed,
                                        written=writer.count)
                if writer.count == 40:  # crash between checkpoints
                    break
            writer.close()

        with CheckpointJournal(journal_path) as journal:
            resumed_report, written = convert_trace(
                source, dst, chunk_records=16, journal=journal)
        assert written == len(records)
        # The resume re-entered at the last checkpoint (record 32), not
        # at the start: only the unjournaled tail was re-read.
        assert resumed_report.resumed_from > 0
        assert resumed_report.records == len(records) - 32
        with open(reference, "rb") as fh:
            expected = fh.read()
        with open(dst, "rb") as fh:
            actual = fh.read()
        assert actual == expected

    def test_convert_to_gz_destination(self, tmp_path):
        rib = str(tmp_path / "t.rib")
        convert_trace(VALID_K6, rib)
        gz = str(tmp_path / "t.k6.gz")
        _, written = convert_trace(rib, gz)
        assert written == 10
        trace, _ = ingest_k6(gz)
        reference, _ = ingest_k6(VALID_K6)
        assert list(trace) == list(reference)


# ---------------------------------------------------------------------------
# checksummed registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def _registry(self, tmp_path):
        source = str(tmp_path / "t.k6")
        write_k6(small_records(), source)
        registry = TraceRegistry(str(tmp_path / "traces.json"))
        registry.register("mem", source)
        return registry, source

    def test_register_records_signature_and_count(self, tmp_path):
        registry, source = self._registry(tmp_path)
        entry = registry.resolve("mem")
        assert entry["signature"] == file_signature(source)
        assert entry["records"] == 50
        assert entry["bytes"] == os.path.getsize(source)

    def test_registry_persists_and_reloads(self, tmp_path):
        registry, _ = self._registry(tmp_path)
        reloaded = TraceRegistry(registry.path)
        assert reloaded.resolve("mem") == registry.resolve("mem")
        assert reloaded.verify_all() == {"mem": "ok"}

    def test_malformed_trace_cannot_be_registered(self, tmp_path):
        registry = TraceRegistry(str(tmp_path / "traces.json"))
        with pytest.raises(TraceFormatError):
            registry.register("bad", os.path.join(CORPUS, "mixed.k6"))

    def test_unknown_name_is_configuration_error(self, tmp_path):
        registry, _ = self._registry(tmp_path)
        with pytest.raises(ConfigurationError, match="mem"):
            registry.resolve("nope")

    def test_loaded_trace_is_content_addressed(self, tmp_path):
        registry, source = self._registry(tmp_path)
        trace, report = registry.load_trace("mem")
        assert report.records == 50
        from repro.runner.job import trace_signature
        assert trace_signature(trace) == (
            "reg:" + registry.resolve("mem")["signature"])

    def test_tampered_file_refuses_to_load(self, tmp_path):
        registry, source = self._registry(tmp_path)
        with open(source, "r+b") as fh:
            fh.seek(os.path.getsize(source) // 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(TraceChecksumError) as excinfo:
            registry.load_trace("mem")
        assert exit_code_for(excinfo.value) == 16
        assert "ok" not in registry.verify_all().values()

    def test_tampered_file_cannot_replay_cached_results(self, tmp_path):
        # The refusal that matters: a cached result keyed by the clean
        # file's content can never be replayed by a tampered file,
        # because the spec (and so the key) cannot even be built.
        from repro.runner import ResultCache, SimulationRunner
        from repro.runner.job import levels_job

        registry, source = self._registry(tmp_path)
        trace, _ = registry.load_trace("mem")
        cache = ResultCache(str(tmp_path / "cache"))
        runner = SimulationRunner(cache=cache)
        runner.run_one(levels_job(trace, "none"))
        assert len(cache) == 1

        with open(source, "ab") as fh:
            fh.write(b"0x2000 P_MEM_RD 999\n")
        with pytest.raises(TraceChecksumError):
            registry.load_trace("mem")

    def test_missing_file_is_checksum_error(self, tmp_path):
        registry, source = self._registry(tmp_path)
        os.remove(source)
        with pytest.raises(TraceChecksumError, match="missing"):
            registry.verify("mem")

    def test_relative_paths_resolve_against_registry_dir(
            self, tmp_path, monkeypatch):
        write_k6(small_records(), str(tmp_path / "t.k6"))
        monkeypatch.chdir(tmp_path)
        registry = TraceRegistry(str(tmp_path / "traces.json"))
        registry.register("rel", "t.k6")
        # Verification works from anywhere: relative entries resolve
        # against the registry's own directory, not the process cwd.
        monkeypatch.chdir("/")
        assert TraceRegistry(registry.path).verify("rel")


# ---------------------------------------------------------------------------
# chaos input faults: the lenient-mode contract
# ---------------------------------------------------------------------------

class TestInputFaultChaos:
    def _clean_bytes(self, n=120) -> bytes:
        lines = []
        for index, (kind, _ip, addr, _dep) in enumerate(small_records(n)):
            command = "P_MEM_RD" if kind == LOAD else "P_MEM_WR"
            lines.append(f"0x{addr:x} {command} {10 * index}\n")
        return "".join(lines).encode()

    def test_corruption_is_deterministic(self):
        clean = self._clean_bytes()
        plan = InputFaultPlan(seed=3, flip_rate=0.1, garbage_rate=0.05)
        first = corrupt_k6_text(clean, plan)
        second = corrupt_k6_text(clean, plan)
        assert first.data == second.data
        assert first.victims == second.victims

    def test_survivors_are_clean_minus_victims(self):
        clean = self._clean_bytes()
        plan = InputFaultPlan(seed=5, flip_rate=0.1, garbage_rate=0.05)
        corruption = corrupt_k6_text(clean, plan)
        assert corruption.victims  # the plan actually hit something
        clean_trace, _ = ingest_k6(clean, name="clean")
        faulted, report = ingest_k6(corruption.data, name="faulted",
                                    policy=LENIENT)
        victims = set(corruption.victims)
        expected = [record for index, record in enumerate(clean_trace)
                    if index not in victims]
        assert list(faulted) == expected
        assert report.skipped == corruption.injected_faults

    def test_quarantine_decision_streams_match_on_both_engines(self):
        # The full contract: a quarantine-mode run of the corrupted
        # trace makes the same prefetch decisions, event for event, as
        # a clean run of clean-minus-victims — on both engines.
        from repro.runner.job import execute_job, trace_job
        from repro.telemetry import events_digest

        clean = self._clean_bytes(200)
        plan = InputFaultPlan(seed=9, flip_rate=0.08, garbage_rate=0.04)
        corruption = corrupt_k6_text(clean, plan)
        clean_trace, _ = ingest_k6(clean, name="chaos")
        faulted, _ = ingest_k6(corruption.data, name="chaos",
                               policy=LENIENT)
        victims = set(corruption.victims)
        expected = Trace([record for index, record
                          in enumerate(clean_trace)
                          if index not in victims], name="chaos")
        for engine in ("scalar", "batched"):
            digests = [
                events_digest(
                    execute_job(trace_job(trace, "ipcp",
                                          engine=engine)).events)
                for trace in (expected, faulted)
            ]
            assert digests[0] == digests[1], engine

    def test_binary_corruption_is_detected(self, tmp_path):
        path = str(tmp_path / "t.rib")
        write_binary(small_records(80), path)
        with open(path, "rb") as fh:
            clean = fh.read()
        plan = InputFaultPlan(seed=2, flip_rate=0.1)
        corruption = corrupt_binary(clean, plan)
        assert corruption.victims
        _, report = ingest_binary(corruption.data, policy=LENIENT)
        # Every reversed record is caught (marker canary), plus the
        # stale footer digest costs one trailing checksum fault.
        assert report.fault_counts["format"] == len(corruption.victims)
        assert report.fault_counts["checksum"] == 1

    def test_binary_truncation_is_detected(self, tmp_path):
        path = str(tmp_path / "t.rib")
        write_binary(small_records(80), path)
        with open(path, "rb") as fh:
            clean = fh.read()
        plan = InputFaultPlan(seed=2, truncate_fraction=0.5)
        corruption = corrupt_binary(clean, plan)
        assert corruption.truncated
        with pytest.raises(TraceTruncatedError):
            ingest_binary(corruption.data)

    def test_truncate_gzip_reads_as_truncated(self):
        clean = self._clean_bytes()
        cut = truncate_gzip(gzip.compress(clean))
        with pytest.raises(TraceTruncatedError):
            ingest_k6(cut)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestIngestCli:
    def test_ingest_run_lenient_on_mixed_corpus(self, capsys):
        from repro.cli import main

        code = main(["ingest", "run", "--file",
                     os.path.join(CORPUS, "mixed.k6"),
                     "--policy", "lenient"])
        out = capsys.readouterr().out
        assert code == 0
        assert "records ingested" in out

    def test_ingest_run_strict_exits_14_on_mixed_corpus(self, capsys):
        from repro.cli import main

        code = main(["ingest", "run", "--file",
                     os.path.join(CORPUS, "mixed.k6")])
        assert code == 14
        assert "Traceback" not in capsys.readouterr().err

    def test_register_verify_list_cycle(self, tmp_path, capsys):
        from repro.cli import main

        source = str(tmp_path / "t.k6")
        write_k6(small_records(), source)
        registry = str(tmp_path / "traces.json")
        assert main(["ingest", "register", "--file", source,
                     "--name", "mem", "--registry", registry]) == 0
        assert main(["ingest", "list", "--registry", registry]) == 0
        assert "mem" in capsys.readouterr().out
        assert main(["ingest", "verify", "--registry", registry]) == 0
        with open(source, "ab") as fh:
            fh.write(b"# tamper\n")
        assert main(["ingest", "verify", "--registry", registry]) == 1

    def test_convert_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        rib = str(tmp_path / "t.rib")
        back = str(tmp_path / "back.k6")
        assert main(["convert", VALID_K6, rib]) == 0
        assert main(["convert", rib, back, "--dst-format", "k6"]) == 0
        with open(VALID_K6, "rb") as fh:
            original = fh.read()
        with open(back, "rb") as fh:
            assert fh.read() == original

    def test_trace_prints_events_digest(self, capsys, tmp_path):
        from repro.cli import main

        out_path = str(tmp_path / "events.jsonl")
        assert main(["trace", "--workload", "bwaves_like",
                     "--scale", "0.02", "--out", out_path]) == 0
        live = capsys.readouterr().out
        assert "events digest:" in live
        digest = [line for line in live.splitlines()
                  if "events digest:" in line][0].split()[-1]
        assert main(["trace", "--replay", out_path]) == 0
        replayed = capsys.readouterr().out
        assert f"events digest: {digest}" in replayed
