"""Tests for the per-class accuracy throttler."""

from repro.core.throttle import (
    EPOCH_FILLS,
    ClassThrottle,
    HIGH_WATERMARK,
    LOW_WATERMARK,
)


def run_epoch(throttle: ClassThrottle, accuracy: float) -> None:
    """Feed one full epoch at the given accuracy."""
    hits = int(EPOCH_FILLS * accuracy)
    for i in range(EPOCH_FILLS):
        if i < hits:
            throttle.on_hit()
        throttle.on_fill()


class TestWatermarks:
    def test_paper_watermarks(self):
        assert HIGH_WATERMARK == 0.75
        assert LOW_WATERMARK == 0.40

    def test_epoch_is_256_fills(self):
        assert EPOCH_FILLS == 256


class TestDegreeControl:
    def test_starts_at_default_degree(self):
        assert ClassThrottle(6).degree == 6

    def test_low_accuracy_steps_degree_down(self):
        throttle = ClassThrottle(6)
        run_epoch(throttle, 0.1)
        assert throttle.degree == 5

    def test_degree_floors_at_one(self):
        throttle = ClassThrottle(3)
        for _ in range(10):
            run_epoch(throttle, 0.0)
        assert throttle.degree == 1

    def test_high_accuracy_recovers_toward_default(self):
        throttle = ClassThrottle(6)
        for _ in range(4):
            run_epoch(throttle, 0.1)
        dropped = throttle.degree
        run_epoch(throttle, 0.9)
        assert throttle.degree == dropped + 1

    def test_degree_never_exceeds_default(self):
        throttle = ClassThrottle(3)
        for _ in range(5):
            run_epoch(throttle, 1.0)
        assert throttle.degree == 3

    def test_mid_band_accuracy_leaves_degree_alone(self):
        throttle = ClassThrottle(6)
        run_epoch(throttle, 0.5)  # between 0.40 and 0.75
        assert throttle.degree == 6


class TestAccuracyReporting:
    def test_initial_accuracy_optimistic(self):
        assert ClassThrottle(3).accuracy == 1.0
        assert not ClassThrottle(3).low_accuracy

    def test_accuracy_measured_per_epoch(self):
        throttle = ClassThrottle(3)
        run_epoch(throttle, 0.25)
        assert abs(throttle.accuracy - 0.25) < 0.01
        assert throttle.low_accuracy
        assert throttle.accuracy < HIGH_WATERMARK

    def test_epoch_counters_reset(self):
        throttle = ClassThrottle(3)
        run_epoch(throttle, 0.5)
        assert throttle.epoch_fills == 0
        assert throttle.epoch_hits == 0
