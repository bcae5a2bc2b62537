"""Transition-preserving maps between generators.

A morphism is a pair (f, g) of total maps on states and symbols such that
moving first and then projecting agrees with projecting first and then
moving:

    T2(f(x), A x B) = T1(x, f^-1(A) x g^-1(B))

for all states x of the source and all target events A x B.  Verification
checks only singleton rectangles A = {y}, B = {s}: both sides are finitely
additive in (A, B), and the singleton rectangles generate all product
events, so agreement on them implies the identity everywhere.  That lemma
carries the whole module and is tested by exhaustive rectangle enumeration
rather than re-verified per call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .core import ZERO, Distribution, Generator, image, pushforward
from .errors import (
    NotTransitionPreservingError,
    UnknownStateError,
    UnknownSymbolError,
)
from .process import Word, word_distribution

Witness = tuple[str, str, str]


class Morphism:
    """A candidate transition-preserving map between two generators."""

    __slots__ = ("source", "target", "f", "g")

    def __init__(
        self,
        source: Generator,
        target: Generator,
        f: Mapping[str, str],
        g: Mapping[str, str],
    ):
        for x in source.states:
            if x not in f:
                raise ValueError(f"state map not total: missing {x!r}")
            if f[x] not in target.state_index:
                raise UnknownStateError(f"f({x!r}) = {f[x]!r} not a target state")
        for s in source.alphabet:
            if s not in g:
                raise ValueError(f"symbol map not total: missing {s!r}")
            if g[s] not in target.symbol_index:
                raise UnknownSymbolError(f"g({s!r}) = {g[s]!r} not a target symbol")
        self.source = source
        self.target = target
        self.f = {x: f[x] for x in source.states}
        self.g = {s: g[s] for s in source.alphabet}

    def __repr__(self) -> str:
        return f"Morphism({self.source!r} -> {self.target!r})"


def verify(m: Morphism) -> tuple[bool, Witness | None]:
    """Check the commutation identity on all singleton rectangles.

    Returns (True, None) when the morphism is transition preserving, else
    (False, (x, y2, s2)) with the lexicographically first counterexample in
    source-state, target-state, target-symbol index order.  Each source row
    is pushed through (f, g) and compared as a dict with its target row
    (neither keeps a zero), so the cost is O(m1 + sum over x of |row f(x)|).
    """
    src, tgt = m.source, m.target
    for x in src.states:
        pulled = image(src.kernel[x], m.f, m.g)
        fx_row = tgt.kernel[m.f[x]]
        if pulled != fx_row:
            y2, s2 = min(
                (key for key in pulled.keys() | fx_row.keys()
                 if pulled.get(key) != fx_row.get(key)),
                key=lambda e: (tgt.state_index[e[0]], tgt.symbol_index[e[1]]),
            )
            return False, (x, y2, s2)
    return True, None


def relabel_outputs(
    gen: Generator,
    g: Mapping[str, str],
    alphabet: tuple[str, ...] | None = None,
) -> Generator:
    """Push the output alphabet through a symbol map, merging the mass of
    symbols with a common image.  The identity state map together with ``g``
    is a transition-preserving morphism from the input to the result, and
    the result generates the symbol-mapped observed process."""
    for s in gen.alphabet:
        if s not in g:
            raise ValueError(f"symbol map not total: missing {s!r}")
    if alphabet is None:
        seen: dict[str, None] = {}
        for s in gen.alphabet:
            seen.setdefault(g[s])
        alphabet = tuple(seen)
    else:
        missing = [g[s] for s in gen.alphabet if g[s] not in alphabet]
        if missing:
            raise UnknownSymbolError(f"image symbols {missing} not in alphabet")
    same = {x: x for x in gen.states}
    kernel = {x: image(gen.kernel[x], same, g) for x in gen.states}
    return Generator(gen.states, alphabet, kernel)


def check_transport(m: Morphism, mu: Distribution, max_len: int) -> bool:
    """Confirm that a verified morphism transports the observed process.

    For every target word w2 up to ``max_len``, the target process started
    from the pushforward of ``mu`` must give w2 exactly the total mass the
    source process gives to the preimage words of w2.  Raises
    :class:`NotTransitionPreservingError` when the morphism fails
    verification (the identity below has no reason to hold then).
    ``validate`` must be empty on both generators.
    """
    ok, witness = verify(m)
    if not ok:
        raise NotTransitionPreservingError(f"counterexample at {witness}")
    source_table = word_distribution(m.source, mu, max_len)
    target_table = word_distribution(m.target, pushforward(mu, m.f), max_len)
    mapped: dict[Word, Fraction] = {}
    for w1, p in source_table.probs.items():
        w2 = tuple(m.g[s] for s in w1)
        mapped[w2] = mapped.get(w2, ZERO) + p
    return all(
        p2 == mapped.get(w2, ZERO) for w2, p2 in target_table.probs.items()
    )
