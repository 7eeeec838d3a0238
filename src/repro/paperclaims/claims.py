"""Typed, machine-checkable predicates over measured experiment values.

Every qualitative statement EXPERIMENTS.md makes — "IPCP leads all
rivals", "the gate contains traffic", "bigger tables buy nothing" — is
expressed here as a :class:`Predicate` over a flat ``{key: value}``
dict of measured numbers, grouped into :class:`Claim` objects bound to
the cells (:mod:`repro.paperclaims.cells`) that produce those numbers.
A claim either *holds* or *flips*; there is no prose middle ground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError


def _fmt(value: float) -> str:
    """Fixed-format rendering for verdict messages (3 decimals)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.3f}"
    return str(value)


def _within(label: str, value: float, lo: float | None,
            hi: float | None) -> tuple[bool, str]:
    """The bounds check every band shares: ``lo <= value <= hi``
    (either bound optional; NaN fails any bound), stated with the
    measured value."""
    ok = (lo is None or value >= lo) and (hi is None or value <= hi)
    return ok, (f"{label} = {_fmt(value)} in "
                f"[{'-inf' if lo is None else _fmt(lo)}, "
                f"{'inf' if hi is None else _fmt(hi)}]")


class Predicate:
    """One checkable condition over the measured-values dict.

    Subclasses implement :meth:`check`, returning ``(passed, message)``
    where the message states the comparison with the actual numbers
    filled in — the per-claim verdict report is built from these.
    """

    def check(self, values: dict[str, float]) -> tuple[bool, str]:
        """Evaluate against ``values``; return ``(passed, message)``."""
        raise NotImplementedError

    def _get(self, values: dict[str, float], key: str) -> float:
        try:
            return values[key]
        except KeyError:
            raise ConfigurationError(
                f"predicate reads missing value {key!r}; the claim's "
                f"cells did not produce it"
            ) from None


@dataclass(frozen=True)
class Band(Predicate):
    """``lo <= values[key] <= hi`` (either bound optional; equal bounds
    pin an exact value)."""

    key: str
    lo: float | None = None
    hi: float | None = None

    def check(self, values):
        return _within(self.key, self._get(values, self.key),
                       self.lo, self.hi)


@dataclass(frozen=True)
class Leader(Predicate):
    """``values[key] >= values[rival] - margin`` for every rival."""

    key: str
    rivals: tuple[str, ...]
    margin: float = 0.0

    def check(self, values):
        leader = self._get(values, self.key)
        losers = [
            rival for rival in self.rivals
            if not leader >= self._get(values, rival) - self.margin
        ]
        ok = not losers
        detail = (f"beaten by {', '.join(losers)}" if losers
                  else f"leads {len(self.rivals)} rival(s)")
        return ok, (f"{self.key} ({_fmt(leader)}) leads within "
                    f"{_fmt(self.margin)}: {detail}")


@dataclass(frozen=True)
class DeltaBand(Predicate):
    """``lo <= values[minuend] - values[subtrahend] <= hi`` (``lo=0``
    orders two values)."""

    minuend: str
    subtrahend: str
    lo: float | None = None
    hi: float | None = None

    def check(self, values):
        delta = (self._get(values, self.minuend)
                 - self._get(values, self.subtrahend))
        return _within(f"{self.minuend} - {self.subtrahend}", delta,
                       self.lo, self.hi)


@dataclass(frozen=True)
class RatioBand(Predicate):
    """``lo <= values[numerator] / values[denominator] <= hi``."""

    numerator: str
    denominator: str
    lo: float | None = None
    hi: float | None = None

    def check(self, values):
        denominator = self._get(values, self.denominator)
        if denominator == 0:
            return False, (f"{self.denominator} is zero; "
                           f"{self.numerator}/{self.denominator} undefined")
        ratio = self._get(values, self.numerator) / denominator
        return _within(f"{self.numerator} / {self.denominator}", ratio,
                       self.lo, self.hi)


@dataclass(frozen=True)
class Best(Predicate):
    """``max(values over keys) >= lo`` (at least one point clears it)."""

    value_keys: tuple[str, ...]
    lo: float

    def check(self, values):
        got = {key: self._get(values, key) for key in self.value_keys}
        best_key = max(got, key=got.get)
        ok = got[best_key] >= self.lo
        return ok, (f"best of {len(got)} points is {best_key} = "
                    f"{_fmt(got[best_key])} >= {_fmt(self.lo)}")


@dataclass(frozen=True)
class ScaledLeader(Predicate):
    """``values[key] >= factor * max(values over rivals)``.

    Unlike a per-rival :class:`RatioBand` this stays correct when a
    rival's value is negative (a prefetcher that *hurts* has negative
    gain-per-KB, which would flip a ratio's sign).
    """

    key: str
    rivals: tuple[str, ...]
    factor: float = 1.0

    def check(self, values):
        value = self._get(values, self.key)
        got = {rival: self._get(values, rival) for rival in self.rivals}
        best_rival = max(got, key=got.get)
        ok = value >= self.factor * got[best_rival]
        return ok, (f"{self.key} ({_fmt(value)}) >= {_fmt(self.factor)} x "
                    f"best rival {best_rival} ({_fmt(got[best_rival])})")


@dataclass(frozen=True)
class Spread(Predicate):
    """``max(values over keys) - min(...) <= hi`` (insensitivity)."""

    value_keys: tuple[str, ...]
    hi: float

    def check(self, values):
        got = [self._get(values, key) for key in self.value_keys]
        spread = max(got) - min(got)
        ok = spread <= self.hi
        return ok, (f"spread over {len(got)} points = {_fmt(spread)} "
                    f"<= {_fmt(self.hi)}")


@dataclass(frozen=True)
class Monotonic(Predicate):
    """Values are non-decreasing along ``ordered_keys`` (within
    ``slack``)."""

    ordered_keys: tuple[str, ...]
    slack: float = 0.0

    def check(self, values):
        broken = []
        for left, right in zip(self.ordered_keys, self.ordered_keys[1:]):
            if not (self._get(values, right)
                    >= self._get(values, left) - self.slack):
                broken.append(f"{right} < {left}")
        ok = not broken
        chain = " <= ".join(self.ordered_keys)
        detail = "; ".join(broken) if broken else "holds"
        return ok, f"monotone {chain} (slack {_fmt(self.slack)}): {detail}"


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of evaluating one claim: pass/flip + per-predicate detail."""

    claim_id: str
    passed: bool
    details: tuple[str, ...]

    @property
    def status(self) -> str:
        """Human-readable verdict: ``"holds"`` or ``"FLIPPED"``."""
        return "holds" if self.passed else "FLIPPED"


@dataclass(frozen=True)
class Claim:
    """One EXPERIMENTS.md row as a typed, checkable object.

    ``cells`` holds the cell functions (``ctx -> {key: value}``, see
    :mod:`repro.paperclaims.cells`) whose values the predicates read,
    and only those: :class:`~repro.paperclaims.cells.ClaimEngine`
    checks the claim against the values its own cells returned.
    ``paper`` quotes the paper-side statement the predicates encode.
    """

    id: str
    section: str
    title: str
    paper: str
    cells: tuple[Callable[..., dict[str, float]], ...]
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def evaluate(self, values: dict[str, float]) -> ClaimVerdict:
        """Check every predicate against ``values`` (the values of this
        claim's cells); the claim holds only if all do.  A predicate
        that reads a value the cells did not produce fails, naming the
        missing key."""
        passed = True
        details = []
        for predicate in self.predicates:
            try:
                ok, message = predicate.check(values)
            except ConfigurationError as error:
                ok, message = False, str(error)
            passed = passed and ok
            details.append(("PASS " if ok else "FAIL ") + message)
        return ClaimVerdict(claim_id=self.id, passed=passed,
                            details=tuple(details))
