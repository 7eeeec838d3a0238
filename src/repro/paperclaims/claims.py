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


def _fmt(value: float) -> str:
    """Fixed-format rendering for verdict messages (3 decimals)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.3f}"
    return str(value)


class Predicate:
    """One checkable condition over the measured-values dict.

    Subclasses implement :meth:`check`, returning ``(passed, message)``
    where the message states the comparison with the actual numbers
    filled in — the per-claim verdict report is built from these.
    """

    def keys(self) -> tuple[str, ...]:
        """Every value key this predicate reads (for dependency audit)."""
        raise NotImplementedError

    def check(self, values: dict[str, float]) -> tuple[bool, str]:
        """Evaluate against ``values``; return ``(passed, message)``."""
        raise NotImplementedError

    def _get(self, values: dict[str, float], key: str) -> float:
        try:
            return values[key]
        except KeyError:
            raise KeyError(
                f"predicate reads missing value {key!r}; the claim's "
                f"cells did not produce it"
            ) from None


@dataclass(frozen=True)
class Band(Predicate):
    """``lo <= values[key] <= hi`` (either bound optional)."""

    key: str
    lo: float | None = None
    hi: float | None = None

    def keys(self) -> tuple[str, ...]:
        return (self.key,)

    def check(self, values):
        value = self._get(values, self.key)
        ok = True
        if self.lo is not None and not value >= self.lo:
            ok = False
        if self.hi is not None and not value <= self.hi:
            ok = False
        bounds = (f"{_fmt(self.lo) if self.lo is not None else '-inf'}"
                  f" <= {self.key} <= "
                  f"{_fmt(self.hi) if self.hi is not None else 'inf'}")
        return ok, f"{bounds} (measured {_fmt(value)})"


@dataclass(frozen=True)
class Exact(Predicate):
    """``values[key] == expected`` (within ``tol``; default exact)."""

    key: str
    expected: float
    tol: float = 0.0

    def keys(self) -> tuple[str, ...]:
        return (self.key,)

    def check(self, values):
        value = self._get(values, self.key)
        ok = abs(value - self.expected) <= self.tol
        return ok, (f"{self.key} == {_fmt(self.expected)} "
                    f"(measured {_fmt(value)})")


@dataclass(frozen=True)
class Leader(Predicate):
    """``values[key] >= values[rival] - margin`` for every rival."""

    key: str
    rivals: tuple[str, ...]
    margin: float = 0.0

    def keys(self) -> tuple[str, ...]:
        return (self.key, *self.rivals)

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
class Ordering(Predicate):
    """``values[keys[i]] >= values[keys[i+1]] - slack`` down the list."""

    ordered_keys: tuple[str, ...]
    slack: float = 0.0

    def keys(self) -> tuple[str, ...]:
        return self.ordered_keys

    def check(self, values):
        broken = []
        for left, right in zip(self.ordered_keys, self.ordered_keys[1:]):
            if not (self._get(values, left)
                    >= self._get(values, right) - self.slack):
                broken.append(f"{left} < {right}")
        ok = not broken
        chain = " >= ".join(self.ordered_keys)
        detail = "; ".join(broken) if broken else "holds"
        return ok, f"{chain} (slack {_fmt(self.slack)}): {detail}"


@dataclass(frozen=True)
class DeltaBand(Predicate):
    """``lo <= values[minuend] - values[subtrahend] <= hi``."""

    minuend: str
    subtrahend: str
    lo: float | None = None
    hi: float | None = None

    def keys(self) -> tuple[str, ...]:
        return (self.minuend, self.subtrahend)

    def check(self, values):
        delta = (self._get(values, self.minuend)
                 - self._get(values, self.subtrahend))
        ok = True
        if self.lo is not None and not delta >= self.lo:
            ok = False
        if self.hi is not None and not delta <= self.hi:
            ok = False
        return ok, (f"{self.minuend} - {self.subtrahend} = {_fmt(delta)} "
                    f"in [{_fmt(self.lo) if self.lo is not None else '-inf'}"
                    f", {_fmt(self.hi) if self.hi is not None else 'inf'}]")


@dataclass(frozen=True)
class RatioBand(Predicate):
    """``lo <= values[numerator] / values[denominator] <= hi``."""

    numerator: str
    denominator: str
    lo: float | None = None
    hi: float | None = None

    def keys(self) -> tuple[str, ...]:
        return (self.numerator, self.denominator)

    def check(self, values):
        denominator = self._get(values, self.denominator)
        if denominator == 0:
            return False, (f"{self.denominator} is zero; "
                           f"{self.numerator}/{self.denominator} undefined")
        ratio = self._get(values, self.numerator) / denominator
        ok = True
        if self.lo is not None and not ratio >= self.lo:
            ok = False
        if self.hi is not None and not ratio <= self.hi:
            ok = False
        return ok, (f"{self.numerator} / {self.denominator} = {_fmt(ratio)} "
                    f"in [{_fmt(self.lo) if self.lo is not None else '-inf'}"
                    f", {_fmt(self.hi) if self.hi is not None else 'inf'}]")


@dataclass(frozen=True)
class Best(Predicate):
    """``max(values over keys) >= lo`` (at least one point clears it)."""

    value_keys: tuple[str, ...]
    lo: float

    def keys(self) -> tuple[str, ...]:
        return self.value_keys

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

    def keys(self) -> tuple[str, ...]:
        return (self.key, *self.rivals)

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

    def keys(self) -> tuple[str, ...]:
        return self.value_keys

    def check(self, values):
        got = [self._get(values, key) for key in self.value_keys]
        spread = max(got) - min(got)
        ok = spread <= self.hi
        return ok, (f"spread over {len(got)} points = {_fmt(spread)} "
                    f"<= {_fmt(self.hi)}")


@dataclass(frozen=True)
class Monotonic(Predicate):
    """Values are non-decreasing along ``keys`` (within ``slack``)."""

    ordered_keys: tuple[str, ...]
    slack: float = 0.0

    def keys(self) -> tuple[str, ...]:
        return self.ordered_keys

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

    ``cells`` names the :class:`repro.paperclaims.cells.Cell` ids whose
    values the predicates read; the engine schedules exactly those.
    ``paper`` quotes the paper-side statement the predicates encode.
    """

    id: str
    section: str
    title: str
    paper: str
    cells: tuple[str, ...]
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def evaluate(self, values: dict[str, float]) -> ClaimVerdict:
        """Check every predicate; the claim holds only if all do."""
        passed = True
        details = []
        for predicate in self.predicates:
            ok, message = predicate.check(values)
            passed = passed and ok
            details.append(("PASS " if ok else "FAIL ") + message)
        return ClaimVerdict(claim_id=self.id, passed=passed,
                            details=tuple(details))
