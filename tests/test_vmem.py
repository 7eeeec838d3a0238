"""Tests for the virtual-memory page mapper."""

from repro.memsys.vmem import VirtualMemory
from repro.params import PAGE_SIZE


class TestTranslation:
    def test_offset_preserved(self):
        vmem = VirtualMemory()
        paddr = vmem.translate(0x1234)
        assert paddr & (PAGE_SIZE - 1) == 0x234

    def test_same_page_same_frame(self):
        vmem = VirtualMemory()
        a = vmem.translate(0x1000)
        b = vmem.translate(0x1FFF)
        assert a >> 12 == b >> 12

    def test_translation_is_stable(self):
        vmem = VirtualMemory()
        assert vmem.translate(0x5000) == vmem.translate(0x5000)

    def test_contiguous_vpages_scattered_ppages(self):
        vmem = VirtualMemory()
        frames = [vmem.translate(i * PAGE_SIZE) >> 12 for i in range(16)]
        deltas = {b - a for a, b in zip(frames, frames[1:])}
        assert deltas != {1}  # physically non-contiguous

    def test_no_frame_collisions(self):
        vmem = VirtualMemory()
        frames = [vmem.translate(i * PAGE_SIZE) >> 12 for i in range(2_000)]
        assert len(set(frames)) == len(frames)


class TestDeterminismAndIsolation:
    def test_same_seed_same_mapping(self):
        a = VirtualMemory(seed=5)
        b = VirtualMemory(seed=5)
        assert a.translate(0x9000) == b.translate(0x9000)

    def test_different_seed_different_mapping(self):
        a = VirtualMemory(seed=5)
        b = VirtualMemory(seed=6)
        assert a.translate(0x9000) != b.translate(0x9000)

    def test_asids_isolate_address_spaces(self):
        core0 = VirtualMemory(seed=1, asid=0)
        core1 = VirtualMemory(seed=1, asid=1)
        assert core0.translate(0x9000) != core1.translate(0x9000)
