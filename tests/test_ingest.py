"""RIB1 ingestion: the reader, the writer and the three fault policies.

The contract under test (docs/ingestion.md):

* strict ingestion raises one *typed* error per fault class, each with
  its own CLI exit code (format 14, truncated 15, checksum 16, budget
  17);
* a file whose header is not RIB1 raises under every policy — the
  policy governs records, not whether the input is a trace at all;
* lenient/quarantine ingestion drops exactly the malformed records —
  ``report.skipped_indices`` names them and nothing else, the
  survivors are bit-identical to the clean trace minus those indices,
  and the quarantine sidecar holds one row per drop;
* faults that drop no record (a stale footer digest, a stream cut
  short) still count in ``fault_counts`` and against the budget.
"""

from __future__ import annotations

import io
import os

import pytest

from repro.errors import (
    ConfigurationError,
    TraceBudgetError,
    TraceChecksumError,
    TraceFormatError,
    TraceTruncatedError,
    exit_code_for,
)
from repro.ingest import (
    LENIENT,
    POLICIES,
    QUARANTINE,
    BinaryTraceWriter,
    ingest_binary,
    read_quarantine,
    write_binary,
)
from repro.ingest.binary import FOOTER_SIZE, HEADER_SIZE, RECORD_SIZE
from repro.sim.trace import LOAD, STORE, Trace

from chaos import InputFaultPlan, corrupt_binary

CORPUS = os.path.join(os.path.dirname(__file__), "data", "ingest_corpus")

VALID_RIB = os.path.join(CORPUS, "valid.rib")

READ_IP = 0x0040_0000
WRITE_IP = 0x0040_0040


def small_records(n: int = 50) -> list[tuple[int, int, int, int]]:
    """n memory records with both kinds and distinct addresses."""
    return [
        (LOAD if i % 3 else STORE,
         READ_IP if i % 3 else WRITE_IP,
         0x1_0000 + 64 * i, 0)
        for i in range(n)
    ]


def rib_bytes(records, tmp_path) -> bytes:
    """The finalized RIB1 file of ``records``, as bytes."""
    path = str(tmp_path / "clean.rib")
    write_binary(records, path)
    with open(path, "rb") as fh:
        return fh.read()


def record_start(index: int) -> int:
    return HEADER_SIZE + index * RECORD_SIZE


def smash_marker(blob: bytearray, index: int) -> None:
    blob[record_start(index) + RECORD_SIZE - 2] ^= 0xFF


# ---------------------------------------------------------------------------
# RIB1 format
# ---------------------------------------------------------------------------

class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        records = small_records()
        path = str(tmp_path / "t.rib")
        assert write_binary(records, path) == len(records)
        trace, report = ingest_binary(path)
        assert list(trace) == records
        assert report.skipped == 0

    def test_corpus_rib_pins_its_ten_records(self):
        trace, report = ingest_binary(VALID_RIB)
        assert list(trace) == [
            (STORE if i % 3 == 0 else LOAD,
             WRITE_IP if i % 3 == 0 else READ_IP,
             0x1_0000 + 64 * i, 0)
            for i in range(10)
        ]
        assert trace.name == VALID_RIB
        assert report.records == 10
        assert report.fault_counts == {}

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
        path = self._damaged(tmp_path, lambda blob: smash_marker(blob, 3))
        with pytest.raises(TraceFormatError):
            ingest_binary(path)
        # Lenient: the damaged record is dropped; the flip also stales
        # the footer digest, which costs one extra checksum fault but
        # drops no record.
        trace, report = ingest_binary(path, policy=LENIENT)
        assert report.fault_counts == {"format": 1, "checksum": 1}
        assert report.skipped_indices == [3]
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
            blob[record_start(2) + 3] ^= 0x01
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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_text_file_is_a_format_error_under_every_policy(
            self, policy, tmp_path):
        # A DRAMSim2-style text trace is no RIB1 file; lenient must not
        # read it as an empty trace.
        text = b"0x10000 P_MEM_RD 10\n0x10040 P_MEM_WR 20\n"
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_binary(text, policy=policy,
                          quarantine_path=str(tmp_path / "q"))
        assert exit_code_for(excinfo.value) == 14
        assert "not a RIB1 trace" in str(excinfo.value)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_header_faults_raise_under_every_policy(self, policy, tmp_path):
        clean = rib_bytes(small_records(4), tmp_path)
        sidecar = str(tmp_path / "q")
        for data in (b"", clean[:HEADER_SIZE - 1]):
            with pytest.raises(TraceTruncatedError):
                ingest_binary(data, policy=policy, quarantine_path=sidecar)
        wrong_version = clean[:4] + b"\x02" + clean[5:]
        with pytest.raises(TraceFormatError, match="version 2"):
            ingest_binary(wrong_version, policy=policy,
                          quarantine_path=sidecar)

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
        assert report.skipped == 0


# ---------------------------------------------------------------------------
# the three policies
# ---------------------------------------------------------------------------

def _unknown_kind(blob):
    blob[record_start(5)] = 9


def _bad_dep(blob):
    blob[record_start(5) + 25] = 2


def _null_address(blob):
    start = record_start(5) + 9   # a load: kind 1 at i = 5
    blob[start:start + 8] = bytes(8)


def _short_count(blob):
    # Stops at a record boundary: records 0-29 and no footer.
    del blob[record_start(30):]


class TestPolicies:
    @pytest.mark.parametrize("mutate, error, code", [
        (lambda blob: smash_marker(blob, 5), TraceFormatError, 14),
        (_unknown_kind, TraceFormatError, 14),
        (_bad_dep, TraceFormatError, 14),
        (_null_address, TraceFormatError, 14),
        (_short_count, TraceTruncatedError, 15),
        (lambda blob: blob.__delitem__(slice(-FOOTER_SIZE, None)),
         TraceTruncatedError, 15),
        (lambda blob: blob.__setitem__(-1, blob[-1] ^ 0x01),
         TraceChecksumError, 16),
    ], ids=["marker", "kind", "dep", "null-address", "short-count",
            "no-footer", "digest"])
    def test_strict_raises_the_typed_error(self, mutate, error, code,
                                           tmp_path):
        blob = bytearray(rib_bytes(small_records(), tmp_path))
        mutate(blob)
        with pytest.raises(error) as excinfo:
            ingest_binary(bytes(blob))
        assert type(excinfo.value) is error
        assert exit_code_for(excinfo.value) == code

    def _three_bad_markers(self, tmp_path) -> bytes:
        blob = bytearray(rib_bytes(small_records(), tmp_path))
        for index in (1, 4, 7):
            smash_marker(blob, index)
        return bytes(blob)

    def test_lenient_skips_and_names_the_dropped_indices(self, tmp_path):
        trace, report = ingest_binary(self._three_bad_markers(tmp_path),
                                      policy=LENIENT)
        assert report.records == len(trace) == 47
        assert report.skipped == 3
        assert report.skipped_indices == [1, 4, 7]
        assert report.fault_counts == {"format": 3, "checksum": 1}
        assert list(trace) == [record for index, record
                               in enumerate(small_records())
                               if index not in (1, 4, 7)]

    def test_stream_faults_drop_no_record(self, tmp_path):
        blob = bytearray(rib_bytes(small_records(), tmp_path))
        _short_count(blob)
        trace, report = ingest_binary(bytes(blob), policy=LENIENT)
        assert len(trace) == 30
        assert report.skipped == 0
        # The stream ends short of the count, and no footer follows.
        assert report.fault_counts == {"truncated": 2}

    def test_budget_error_past_max_errors(self, tmp_path):
        # Three dropped records plus the stale digest: four faults.
        data = self._three_bad_markers(tmp_path)
        _, report = ingest_binary(data, policy=LENIENT, max_errors=4)
        assert report.skipped == 3
        with pytest.raises(TraceBudgetError) as excinfo:
            ingest_binary(data, policy=LENIENT, max_errors=3)
        assert exit_code_for(excinfo.value) == 17

    def test_quarantine_sidecar_rows_match_skips(self, tmp_path):
        data = self._three_bad_markers(tmp_path)
        sidecar = str(tmp_path / "t.quarantine")
        _, report = ingest_binary(data, policy=QUARANTINE,
                                  quarantine_path=sidecar)
        assert report.quarantine_path == sidecar
        rows = read_quarantine(sidecar)
        assert len(rows) == report.skipped == 3
        assert [row["index"] for row in rows] == report.skipped_indices
        assert {row["kind"] for row in rows} == {"format"}
        # Raw bytes survive in the sidecar for post-mortem inspection.
        start = record_start(1)
        assert bytes.fromhex(rows[0]["raw_hex"]) == (
            data[start:start + RECORD_SIZE])
        assert rows[0]["offset"] == start

    def test_quarantine_without_a_file_name_needs_a_path(
            self, tmp_path, monkeypatch):
        # Bytes and file objects without a string name (like one
        # opened from a descriptor) have no file to put the sidecar
        # beside: the run fails before reading instead of writing
        # "<bytes>.quarantine" into the working directory.
        data = self._three_bad_markers(tmp_path)
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        stream, numbered = io.BytesIO(data), io.BytesIO(data)
        numbered.name = 3
        for source in (data, stream, numbered):
            with pytest.raises(ConfigurationError, match="quarantine_path"
                               ) as excinfo:
                ingest_binary(source, policy=QUARANTINE)
            assert exit_code_for(excinfo.value) == 3
        assert stream.tell() == numbered.tell() == 0
        assert os.listdir(workdir) == []

    def test_quarantine_of_a_named_source_defaults_beside_it(
            self, tmp_path, monkeypatch):
        path = tmp_path / "t.rib"
        path.write_bytes(self._three_bad_markers(tmp_path))
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        _, report = ingest_binary(str(path), policy=QUARANTINE)
        assert report.quarantine_path == f"{path}.quarantine"
        os.remove(report.quarantine_path)
        with open(path, "rb") as fh:
            _, report = ingest_binary(fh, policy=QUARANTINE)
        assert report.quarantine_path == f"{path}.quarantine"
        assert len(read_quarantine(report.quarantine_path)) == 3
        assert os.listdir(workdir) == []

    def test_summary_rows_name_records_skips_and_faults(self, tmp_path):
        _, report = ingest_binary(self._three_bad_markers(tmp_path),
                                  policy=LENIENT, label="t.rib")
        assert report.summary_rows() == [
            ["source", "t.rib"],
            ["policy", "lenient"],
            ["records ingested", 47],
            ["records skipped", 3],
            ["faults (checksum)", 1],
            ["faults (format)", 3],
        ]


# ---------------------------------------------------------------------------
# chaos input faults: the lenient-mode contract
# ---------------------------------------------------------------------------

class TestInputFaultChaos:
    def test_corruption_is_deterministic(self, tmp_path):
        clean = rib_bytes(small_records(120), tmp_path)
        plan = InputFaultPlan(seed=3, flip_rate=0.1)
        first = corrupt_binary(clean, plan)
        second = corrupt_binary(clean, plan)
        assert first.data == second.data
        assert first.victims == second.victims
        assert first.victims

    def test_survivors_are_clean_minus_victims(self, tmp_path):
        records = small_records(120)
        clean = rib_bytes(records, tmp_path)
        for seed in (2, 5, 9):
            corruption = corrupt_binary(
                clean, InputFaultPlan(seed=seed, flip_rate=0.1))
            assert corruption.victims  # the plan actually hit something
            faulted, report = ingest_binary(corruption.data,
                                            policy=LENIENT)
            victims = set(corruption.victims)
            assert list(faulted) == [record for index, record
                                     in enumerate(records)
                                     if index not in victims]
            # The skips name exactly the destroyed records; the stale
            # footer digest is a fault, not a skipped record.
            assert report.skipped == len(victims)
            assert set(report.skipped_indices) == victims
            assert report.fault_counts == {"format": len(victims),
                                           "checksum": 1}

    def test_truncation_drops_only_the_torn_record(self, tmp_path):
        records = small_records(120)
        corruption = corrupt_binary(
            rib_bytes(records, tmp_path),
            InputFaultPlan(seed=2, truncate_fraction=0.5))
        faulted, report = ingest_binary(corruption.data, policy=LENIENT)
        assert list(faulted) == records[:60]
        assert corruption.victims == list(range(60, 120))
        # Record 60 is torn; 61-119 never arrived.  The missing footer
        # is a second truncated fault that drops no record.
        assert report.skipped_indices == [60]
        assert report.fault_counts == {"truncated": 2}

    def test_quarantine_results_match_clean_run(self, tmp_path):
        # The full contract: a quarantine-mode run of the corrupted
        # trace simulates exactly like a clean run of clean-minus-
        # victims — every counter, per-class prefetch counts included.
        from repro.runner.job import execute_job, levels_job

        records = small_records(200)
        plan = InputFaultPlan(seed=9, flip_rate=0.08)
        corruption = corrupt_binary(rib_bytes(records, tmp_path), plan)
        faulted, report = ingest_binary(
            corruption.data, name="chaos", policy=QUARANTINE,
            quarantine_path=str(tmp_path / "chaos.quarantine"))
        victims = set(corruption.victims)
        assert set(report.skipped_indices) == victims
        expected = Trace([record for index, record in enumerate(records)
                          if index not in victims], name="chaos")
        clean_result, faulted_result = (
            execute_job(levels_job(trace, "ipcp"))
            for trace in (expected, faulted)
        )
        assert clean_result.l1.pf_issued_by_class  # IPCP did prefetch
        assert faulted_result == clean_result

    def test_binary_corruption_is_detected(self, tmp_path):
        clean = rib_bytes(small_records(80), tmp_path)
        plan = InputFaultPlan(seed=2, flip_rate=0.1)
        corruption = corrupt_binary(clean, plan)
        assert corruption.victims
        _, report = ingest_binary(corruption.data, policy=LENIENT)
        # Every reversed record is caught (marker canary), plus the
        # stale footer digest costs one trailing checksum fault.
        assert report.fault_counts["format"] == len(corruption.victims)
        assert report.fault_counts["checksum"] == 1

    def test_binary_truncation_is_detected(self, tmp_path):
        clean = rib_bytes(small_records(80), tmp_path)
        plan = InputFaultPlan(seed=2, truncate_fraction=0.5)
        corruption = corrupt_binary(clean, plan)
        assert corruption.truncated
        with pytest.raises(TraceTruncatedError):
            ingest_binary(corruption.data)
