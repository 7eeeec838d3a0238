"""Per-class, epoch-based prefetch-accuracy throttling (Section V).

Each class owns two counters — prefetches filled and prefetch hits —
and a current degree.  Once every 256 per-class prefetch fills the
accuracy over the epoch is computed:

* accuracy > 0.75 (high watermark): degree steps up toward the class's
  default;
* accuracy < 0.40 (low watermark): degree steps down toward 1;
* in between: unchanged.

The throttler also exposes the last measured accuracy so (a) the
bouquet can let lower-priority classes prefetch alongside a
low-accuracy high-priority class, and (b) the L1 only embeds stride
metadata for the L2 when the class is running above 75% accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

EPOCH_FILLS = 256
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.40


@dataclass
class ClassThrottle:
    """Accuracy-driven degree controller for one IPCP class.

    IPCP-I (:class:`repro.frontend.ipcp_i.IpcpIPrefetcher`) calls
    :meth:`on_fill`, :meth:`on_hit` and :attr:`low_accuracy`;
    :class:`repro.core.ipcp_l1.IpcpL1` counts the same epochs inline in
    its feedback hooks, closing each with :meth:`_close_epoch`, and
    reads ``degree`` and ``accuracy`` directly in its priority walk.
    """

    default_degree: int
    degree: int = 0
    epoch_fills: int = 0
    epoch_hits: int = 0
    accuracy: float = 1.0  # optimistic until the first epoch completes

    def __post_init__(self) -> None:
        if self.degree == 0:
            self.degree = self.default_degree

    def on_fill(self) -> None:
        """One of this class's prefetches was filled."""
        self.epoch_fills += 1
        if self.epoch_fills >= EPOCH_FILLS:
            self._close_epoch()

    def on_hit(self) -> None:
        """One of this class's prefetched blocks saw a demand hit."""
        self.epoch_hits += 1

    def _close_epoch(self) -> None:
        self.accuracy = self.epoch_hits / self.epoch_fills
        if self.accuracy > HIGH_WATERMARK:
            self.degree = min(self.default_degree, self.degree + 1)
        elif self.accuracy < LOW_WATERMARK:
            self.degree = max(1, self.degree - 1)
        self.epoch_fills = 0
        self.epoch_hits = 0

    @property
    def low_accuracy(self) -> bool:
        """True when the class is running below the low watermark."""
        return self.accuracy < LOW_WATERMARK
