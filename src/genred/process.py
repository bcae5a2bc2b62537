"""Observed-process semantics.

A generator together with an initial distribution induces a probability
distribution over output words.  The probability of a word w1..wn is

    sum over state paths x0..xn of  mu(x0) * prod_k T(x_{k-1}, (x_k, wk)),

evaluated here as iterated vector-matrix products with one matrix per output
symbol, M_s[x][y] = T(x, (y, s)), kept as the sparse integer rows of
:func:`genred.core.joint_rows`.  Word enumeration is always
length-lexicographic by symbol index so that emitted tables are canonical.

Only depth-limited truncations of a process are materialized (word tables up
to a fixed length); equality of two processes on ALL finite words is decided
exactly by :func:`equivalent` without enumerating words.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from math import gcd, lcm
from typing import Iterator, Mapping

from .core import ZERO, Distribution, Generator, Partition, Rows, joint_rows
from .errors import (
    AlphabetMismatchError,
    DistributionMismatchError,
    SizeLimitError,
    UnknownSymbolError,
    echo,
)
from .rng import SplitMix64, thresholds

Word = tuple[str, ...]
Vector = dict[int, int]  # sparse integer vector: index -> nonzero entry
Basis = list[tuple[int, Vector]]  # (pivot, primitive vector) in echelon order

DEFAULT_SIZE_LIMIT = 10**6
# The printed table may hold this many characters per allowed entry.
TEXT_PER_ENTRY = 256


@dataclass(frozen=True)
class WordTable:
    """Exact probabilities of every word up to ``max_len``.

    Invariants (guaranteed by construction from a valid generator): the
    empty word has probability one, and for every strictly shorter word w
    the one-symbol extensions of w carry exactly w's probability in total.
    ``probs`` is in length-lexicographic order by symbol index, the order
    in which :func:`word_distribution` builds it.
    """

    max_len: int
    alphabet: tuple[str, ...]
    probs: Mapping[Word, Fraction]

    def __getitem__(self, word: Word) -> Fraction:
        return self.probs[tuple(word)]


def _check_distribution(gen: Generator, mu: Distribution) -> None:
    extra = [x for x in mu.support if x not in gen.state_index]
    if extra:
        raise DistributionMismatchError(
            f"distribution supported on non-states {echo(extra)}"
        )


def _scaled_initial(gen: Generator, mu: Distribution) -> tuple[int, Vector]:
    """``(d, d * mu)`` with the vector sparse and keyed in state index order."""
    weights, d = mu.weights, lcm(*(w.denominator for w in mu.weights.values()))
    return d, {i: int(weights[x] * d) for i, x in enumerate(gen.states) if x in weights}


def word_probability(gen: Generator, mu: Distribution, w: Word) -> Fraction:
    """Probability that the process emits exactly the prefix ``w``.

    Cost O(|Q| + (|w| + 1) * m) for m kernel entries.  The empty word has
    probability one.  ``validate(gen)`` must be empty.
    """
    _check_distribution(gen, mu)
    for s in w:
        if s not in gen.symbol_index:
            raise UnknownSymbolError(f"unknown symbol {s!r}")
    kernel_denom, rows = joint_rows((gen,), backward=False)
    mu_denom, vec = _scaled_initial(gen, mu)
    for s in w:
        vec = _apply(vec, rows[s])
    return Fraction(sum(vec.values()), mu_denom * kernel_denom ** len(w))


def _table_too_large(n_symbols: int, max_len: int, size_limit: int) -> bool:
    """Whether the words up to ``max_len`` number more than ``size_limit``;
    the count stops as soon as it passes the limit."""
    total = power = 1
    for _ in range(max_len):
        if total > size_limit:
            break
        power *= n_symbols
        total += power
    return total > size_limit


def _text_too_large(
    n_symbols: int, max_len: int, width: int, denom: int, kernel_denom: int, limit: int
) -> bool:
    """Whether an upper bound on the characters of the printed table passes
    ``limit``.  A line of length l holds its word (at most l * ``width``
    characters, or the one of the empty word), a space, a slash, a newline
    and a reduced fraction of at most 1 whose denominator divides
    ``denom * kernel_denom**l``.  Digit counts come from bit lengths, so no
    power is built; the sum stops as soon as it passes the limit."""
    bits, step = denom.bit_length(), kernel_denom.bit_length()
    total, lines = 0, 1
    for length in range(max_len + 1):
        digits = (bits + length * step) * 30103 // 100000 + 1  # 0.30103 > log10(2)
        total += lines * (length * width + 2 * digits + 4)
        if total > limit:
            return True
        lines *= n_symbols
    return False


def word_distribution(
    gen: Generator,
    mu: Distribution,
    max_len: int,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> WordTable:
    """Exact table of all word probabilities up to length ``max_len``.

    Raises :class:`SizeLimitError` when the table would exceed
    ``size_limit`` entries (default one million), or when its printed text
    could exceed ``TEXT_PER_ENTRY`` characters per allowed entry; both are
    checked before any vector work.  ``validate(gen)`` must be empty; on
    another kernel the :class:`WordTable` invariants do not hold.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    _check_distribution(gen, mu)
    if _table_too_large(len(gen.alphabet), max_len, size_limit):
        raise SizeLimitError(f"table would hold more than {size_limit} entries")
    kernel_denom, rows = joint_rows((gen,), backward=False)
    denom, vec0 = _scaled_initial(gen, mu)
    width = max(len(s) for s in gen.alphabet) + 1  # a symbol and a separator
    text_limit = size_limit * TEXT_PER_ENTRY
    if _text_too_large(len(gen.alphabet), max_len, width, denom, kernel_denom, text_limit):
        raise SizeLimitError(f"table text could exceed {text_limit} characters")
    probs: dict[Word, Fraction] = {(): Fraction(sum(vec0.values()), denom)}
    level: list[tuple[Word, Vector]] = [((), vec0)]
    for _ in range(max_len):
        denom *= kernel_denom
        next_level: list[tuple[Word, Vector]] = []
        for word, vec in level:
            for s, mat in rows.items():
                extended = word + (s,)
                advanced = _apply(vec, mat) if vec else vec  # zero stays zero
                probs[extended] = Fraction(sum(advanced.values()), denom) if advanced else ZERO
                next_level.append((extended, advanced))
        level = next_level
    return WordTable(max_len=max_len, alphabet=gen.alphabet, probs=probs)


def sample(
    gen: Generator, mu: Distribution, n: int, seed: int
) -> tuple[Word, str]:
    """Draw an initial state from ``mu`` and iterate the kernel ``n`` times,
    returning the emitted word and the final state.  Deterministic given the
    seed (see :mod:`genred.rng` for the exact stream definition).
    ``validate(gen)`` must be empty."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_distribution(gen, mu)
    rng = SplitMix64(seed)
    support = [x for x in gen.states if mu(x) != 0]
    state = rng.choose(support, [mu(x) for x in support])
    emitted: list[str] = []
    cached: dict[str, tuple[list, list[int]]] = {}  # state -> (pairs, thresholds)
    for _ in range(n):
        if state not in cached:
            row = gen.kernel[state]
            cached[state] = (list(row), thresholds(list(row.values())))
        pairs, cum = cached[state]
        state, symbol = pairs[rng.draw(cum)]
        emitted.append(symbol)
    return tuple(emitted), state


def _apply(vec: Vector, rows: Rows) -> Vector:
    out: Vector = {}
    for i, v in vec.items():
        for j, m in rows[i]:
            out[j] = out.get(j, 0) + v * m
    return {j: v for j, v in out.items() if v}


def _insert(basis: Basis, vec: Vector) -> Vector | None:
    """Insert an integer vector into an echelon basis of primitive integer
    vectors, each with a pivot that no later basis vector touches.

    Reduction is fraction-free (``v*b[p] - v[p]*b``) and the result is
    divided by its content gcd, which keeps coefficients small.  Returns the
    residual, now appended to the basis, or None if ``vec`` is in the span.
    """
    for pivot, base in basis:
        c = vec.get(pivot)
        if c:
            g = gcd(base[pivot], c)
            b, c = base[pivot] // g, c // g
            out = {j: v * b for j, v in vec.items()}
            for j, v in base.items():
                out[j] = out.get(j, 0) - c * v
            vec = {j: v for j, v in out.items() if v}
    if not vec:
        return None
    g = gcd(*vec.values())
    vec = {j: v // g for j, v in vec.items()}
    basis.append((next(iter(vec)), vec))
    return vec


def _span(start: Vector, rows: dict[str, Rows]) -> Iterator[tuple[int, Vector]]:
    """Breadth-first closure of ``start`` under the per-symbol maps, yielding
    each new basis vector with its depth; those of depth <= d span the
    images of all words of length <= d.  Children are expanded from the
    residual, which differs from the popped vector only by basis vectors
    whose children are already queued."""
    basis: Basis = []
    queue = deque([(0, start)])
    while queue:
        depth, vec = queue.popleft()
        residual = _insert(basis, vec)
        if residual is not None:
            yield depth, residual
            queue.extend((depth + 1, _apply(residual, mat)) for mat in rows.values())


def _first_difference(
    gen1: Generator, mu1: Distribution, gen2: Generator, mu2: Distribution
) -> tuple[int | None, Vector, dict[str, Rows]]:
    """Check the pair and return the length of the shortest word whose
    probabilities differ (None if none does), the concatenated initial
    vector scaled to integers, and the forward rows.

    The length is the depth of the first basis vector of the forward
    closure on which mass on the first machine minus mass on the second is
    nonzero; pruned vectors inherit a zero value by linearity.
    """
    if set(gen1.alphabet) != set(gen2.alphabet):
        raise AlphabetMismatchError(
            f"alphabets differ: {echo(sorted(gen1.alphabet))} vs {echo(sorted(gen2.alphabet))}"
        )
    _check_distribution(gen1, mu1)
    _check_distribution(gen2, mu2)
    (d1, v1), (d2, v2) = _scaled_initial(gen1, mu1), _scaled_initial(gen2, mu2)
    n1 = len(gen1.states)
    start = {j: w * d2 for j, w in v1.items()} | {n1 + j: w * d1 for j, w in v2.items()}
    _, forward = joint_rows((gen1, gen2), backward=False)
    for depth, vec in _span(start, forward):
        if sum(v if j < n1 else -v for j, v in vec.items()):
            return depth, start, forward
    return None, start, forward


def equivalent(
    gen1: Generator, mu1: Distribution, gen2: Generator, mu2: Distribution
) -> bool:
    """Decide exactly whether the two processes agree on all finite words
    (spanning-basis closure on the joint state space, Tzeng 1992).
    ``validate`` must be empty on both generators."""
    return _first_difference(gen1, mu1, gen2, mu2)[0] is None


def shortest_distinguishing_word(
    gen1: Generator, mu1: Distribution, gen2: Generator, mu2: Distribution
) -> Word | None:
    """The length-lexicographically first shortest word on which the two
    processes disagree, or None when they are equivalent.  Inequivalent
    processes disagree within length |Q1| + |Q2|.  ``validate`` must be
    empty on both generators.

    Polynomial (Kiefer et al., LMCS 2013): the forward closure decides
    equivalence and gives the length L.  With eta the vector giving mass
    on the first machine minus mass on the second, the backward closure of
    eta up to depth L - 1 guides a descent that extends the prefix u by the
    first symbol s for which mu M_us is not annihilated by the closure's
    vectors of depth <= L - |u| - 1; mu M_us annihilates all M_v eta with
    |v| < L - |u| - 1, so this tests the exact layer of words of that length.
    """
    length, vec, forward = _first_difference(gen1, mu1, gen2, mu2)
    if length is None:
        return None
    n1, n = len(gen1.states), len(gen1.states) + len(gen2.states)
    _, back = joint_rows((gen1, gen2), backward=True)
    eta = {j: 1 if j < n1 else -1 for j in range(n)}
    basis = list(takewhile(lambda entry: entry[0] < length, _span(eta, back)))
    word = []
    for depth in reversed(range(length)):
        while basis[-1][0] > depth:
            basis.pop()
        for s, mat in forward.items():
            child = _apply(vec, mat)
            if any(sum(v * b.get(j, 0) for j, v in child.items()) for _, b in basis):
                word.append(s)
                vec = child
                break
    return tuple(word)


def causal_state_partition(gen: Generator) -> Partition:
    """Group states whose point-mass initial distributions generate the same
    observed process; equal to pairwise process-equivalence testing.

    Two states generate the same process iff they agree on the closure of
    the all-ones vector under the transposed per-symbol matrices (the
    vectors of word probabilities seen from each state), so one basis of
    it, whichever, classifies all states at once.  ``validate(gen)`` must
    be empty.
    """
    _, rows = joint_rows((gen,), backward=True)
    basis = [vec for _, vec in _span({i: 1 for i in range(len(gen.states))}, rows)]
    return Partition.grouped(
        gen.states, lambda x: tuple(vec.get(gen.state_index[x], 0) for vec in basis)
    )
