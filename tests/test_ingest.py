"""RIB1 ingestion: the reader and the writer.

The contract under test (docs/ingestion.md): ingestion raises one
*typed* error at the first fault, each fault class with its own CLI
exit code (format 14, truncated 15, checksum 16), and a clean file
reads back exactly the records that were written.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    TraceChecksumError,
    TraceFormatError,
    TraceTruncatedError,
    exit_code_for,
)
from repro.ingest import BinaryTraceWriter, ingest_binary, write_binary
from repro.ingest.binary import FOOTER_SIZE, HEADER_SIZE, RECORD_SIZE
from repro.sim.trace import LOAD, STORE

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
        assert list(ingest_binary(path)) == records

    def test_corpus_rib_pins_its_ten_records(self):
        trace = ingest_binary(VALID_RIB)
        assert list(trace) == [
            (STORE if i % 3 == 0 else LOAD,
             WRITE_IP if i % 3 == 0 else READ_IP,
             0x1_0000 + 64 * i, 0)
            for i in range(10)
        ]
        assert trace.name == VALID_RIB

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
        with pytest.raises(TraceFormatError, match="record 3 "):
            ingest_binary(path)

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

    def test_text_file_is_a_format_error(self):
        # A DRAMSim2-style text trace is no RIB1 file, not an empty one.
        text = b"0x10000 P_MEM_RD 10\n0x10040 P_MEM_WR 20\n"
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_binary(text)
        assert exit_code_for(excinfo.value) == 14
        assert "not a RIB1 trace" in str(excinfo.value)

    def test_header_faults_raise(self, tmp_path):
        clean = rib_bytes(small_records(4), tmp_path)
        for data in (b"", clean[:HEADER_SIZE - 1]):
            with pytest.raises(TraceTruncatedError):
                ingest_binary(data)
        wrong_version = clean[:4] + b"\x02" + clean[5:]
        with pytest.raises(TraceFormatError, match="version 2"):
            ingest_binary(wrong_version)

    def test_abandoned_writer_reads_as_truncated(self, tmp_path):
        path = str(tmp_path / "t.rib")
        writer = BinaryTraceWriter(path)
        for record in small_records(10):
            writer.append(record)
        writer.close()  # no finalize: crash surrogate
        with pytest.raises(TraceTruncatedError, match="unfinalized"):
            ingest_binary(path)


# ---------------------------------------------------------------------------
# record and stream faults
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
    """The one policy: the first fault raises its typed error."""

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


# ---------------------------------------------------------------------------
# chaos input faults
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

    def test_binary_corruption_is_detected(self, tmp_path):
        clean = rib_bytes(small_records(80), tmp_path)
        plan = InputFaultPlan(seed=2, flip_rate=0.1)
        corruption = corrupt_binary(clean, plan)
        assert corruption.victims
        # The marker canary catches the first reversed record.
        first = f"record {corruption.victims[0]} "
        with pytest.raises(TraceFormatError, match=first) as excinfo:
            ingest_binary(corruption.data)
        assert exit_code_for(excinfo.value) == 14

    def test_binary_truncation_is_detected(self, tmp_path):
        clean = rib_bytes(small_records(80), tmp_path)
        plan = InputFaultPlan(seed=2, truncate_fraction=0.5)
        corruption = corrupt_binary(clean, plan)
        assert corruption.truncated
        first = f"record {corruption.victims[0]} "
        with pytest.raises(TraceTruncatedError, match=first) as excinfo:
            ingest_binary(corruption.data)
        assert exit_code_for(excinfo.value) == 15
