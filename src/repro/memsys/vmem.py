"""Virtual memory: deterministic vpage -> ppage mapping.

The paper's L1 IPCP trains on virtual addresses (the L1 is virtually
indexed, physically tagged) while L2/LLC prefetchers such as SPP see
physical addresses.  Virtually-contiguous pages are generally *not*
physically contiguous, which is one reason cross-page pattern learning
at the L2 is hard — so the mapping below deliberately scrambles page
frames (with a splitmix64-style hash) while staying deterministic for
reproducible simulation.
"""

from __future__ import annotations

from repro.params import PAGE_BITS, PAGE_SIZE


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class VirtualMemory:
    """First-touch page allocator with hashed (scrambled) frame numbers.

    Frames are allocated on first touch of a virtual page and are unique
    per :class:`VirtualMemory` instance; two different virtual pages
    never share a frame.  ``asid`` separates address spaces so multicore
    mixes running the same trace do not alias in the shared LLC.
    """

    def __init__(self, seed: int = 1, asid: int = 0) -> None:
        self._seed = seed
        self._asid = asid
        # vpage -> frame; read directly on the hierarchy's load path.
        self.page_table: dict[int, int] = {}
        self._used_frames: set[int] = set()
        self._probe_salt = 0

    def translate(self, vaddr: int) -> int:
        """Translate a virtual byte address to a physical byte address."""
        vpage = vaddr >> PAGE_BITS
        frame = self.page_table.get(vpage)
        if frame is None:
            frame = self.allocate(vpage)
        return (frame << PAGE_BITS) | (vaddr & (PAGE_SIZE - 1))

    def allocate(self, vpage: int) -> int:
        """Map the untouched page ``vpage`` to a fresh frame; return it."""
        key = (self._asid << 48) ^ vpage ^ self._seed
        frame = _splitmix64(key) & ((1 << 34) - 1)  # 16 TB physical space
        while frame in self._used_frames:
            self._probe_salt += 1
            frame = _splitmix64(key + self._probe_salt) & ((1 << 34) - 1)
        self._used_frames.add(frame)
        self.page_table[vpage] = frame
        return frame
