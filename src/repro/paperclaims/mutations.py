"""Seeded core mutations proving the claim harness has teeth.

``repro paper --mutate NAME`` re-runs the requested claims with a
one-line semantic change injected into the IPCP core — the kind of
regression a refactor could plausibly introduce — and CI asserts the
run exits nonzero.  A harness that cannot flip under a known-bad core
is not checking anything.

Each mutation is a field override applied to every
:class:`~repro.core.ipcp_l1.IpcpConfig` an :class:`IpcpL1` is built
with (covering the default config and every registered variant), via a
reversible monkeypatch of ``IpcpL1.__init__``.  Mutated runs force
in-process execution with the cache disabled, so the patch reaches the
simulations and cannot poison the content-addressed result store.
"""

from __future__ import annotations

import contextlib
import dataclasses

from repro.errors import ConfigurationError

#: name -> (IpcpConfig overrides, claims the mutation must flip).
MUTATIONS: dict[str, tuple[dict, tuple[str, ...]]] = {
    # Ship the NL gate always-open: the traffic containment claim dies.
    "nl-ungated": ({"nl_mpki_threshold": 1e9}, ("abl-nl-gate",)),
    # Sever the L1->L2 metadata channel: its measured worth vanishes.
    "no-metadata": ({"send_metadata": False}, ("fig13a-metadata",)),
    # Lose the constant-stride class: the bouquet's backbone claims die.
    "cs-off": ({"enable_cs": False}, ("fig12-class-mix",)),
}


def mutation_names() -> list[str]:
    """Registered mutation names, for CLI help and validation."""
    return sorted(MUTATIONS)


@contextlib.contextmanager
def apply_mutation(name: str):
    """Patch ``IpcpL1`` so every instance gets the mutated config."""
    try:
        overrides, _ = MUTATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mutation {name!r}; known: {mutation_names()}"
        ) from None

    from repro.core.ipcp_l1 import IpcpConfig, IpcpL1

    original_init = IpcpL1.__init__

    def mutated_init(self, config=None):
        config = dataclasses.replace(config or IpcpConfig(), **overrides)
        original_init(self, config)

    IpcpL1.__init__ = mutated_init
    try:
        yield overrides
    finally:
        IpcpL1.__init__ = original_init


def expected_flips(name: str) -> tuple[str, ...]:
    """Claim ids the named mutation is expected to flip (for CI)."""
    try:
        return MUTATIONS[name][1]
    except KeyError:
        raise ConfigurationError(
            f"unknown mutation {name!r}; known: {mutation_names()}"
        ) from None
