"""Core domain types and constructors.

A generator is a finite Markov transition kernel from an internal state set
Q into pairs (next state, output symbol) over an output alphabet.  All
probabilities are exact rationals (``fractions.Fraction``): partition
refinement and row-equality tests in the reduction algorithms require exact
equality, so no floating point enters the core at any point.

Internal events are represented by partitions of Q: over a finite state set
every sigma-algebra is determined by its atoms, a smaller algebra corresponds
to a coarser partition, and the intersection of algebras corresponds to the
finest common coarsening of their atom partitions.  (The measurability of
``x -> T(x, C)`` is automatic over a finite Q with the full power set of
events, so it is documented here rather than checked anywhere.)

All types are immutable values after construction and all operations are
pure functions; instances can be shared freely across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Mapping, Sequence

from .errors import (
    UnknownStateError,
    UnknownSymbolError,
    echo,
    echo_number,
)

RatLike = Fraction | int | str
Rows = list[list[tuple[int, int]]]  # per-index lists of (index, entry)

ZERO = Fraction(0)
ONE = Fraction(1)

# Fraction("1e-4000000") alone takes seconds: bound the digits of an exponent.
MAX_EXPONENT_DIGITS = 3
# Python's default cap on an int conversion; bounded here so that the
# message is one short line rather than Python's hint with the input echoed.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][+-]?([\d_]*)")
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
# The number language of strings, without its size bounds: ASCII digits,
# an optional "-", no "+", no "_", and no whitespace inside.  Fraction(str)
# accepts more, and what more depends on the Python version.  The groups
# hold the numerator and denominator of an integer or "n/d" string.
_PROB = re.compile(
    r"\s*(?:(-?[0-9]+)(?:/([0-9]+))?|-?[0-9]*\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|-?[0-9]+\.?(?:[eE][+-]?[0-9]+)?)\s*"
)


def oversized(text: str) -> str | None:
    """Why ``text`` is too large to read, or None: an exponent over
    :data:`MAX_EXPONENT_DIGITS` digits, or a run of more than
    :data:`MAX_DIGITS` digits."""
    exponent = _EXPONENT.search(text)
    if exponent and len(exponent.group(1)) > MAX_EXPONENT_DIGITS:
        return f"exponent longer than {MAX_EXPONENT_DIGITS} digits"
    if len(text) > MAX_DIGITS and any(
        len(run) - run.count("_") > MAX_DIGITS for run in _DIGIT_RUN.findall(text)
    ):
        return f"more than {MAX_DIGITS} digits"
    return None


def as_fraction(value: RatLike) -> Fraction:
    """The one reader of exact values: a Fraction as it is, an int, or a
    string in the number language of files and flags ("-3", "1/2", "0.25",
    "25e-2"), the same on every Python version.  A string raises
    ``OverflowError`` if :func:`oversized`, ``ZeroDivisionError`` on a zero
    denominator, ``ValueError`` outside the language.  Floats carry binary
    rounding error and are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        reason = oversized(value)
        if reason is not None:
            raise OverflowError(reason)
        match = _PROB.fullmatch(value)
        if not match:
            raise ValueError("not an integer, n/d or decimal")
        num, den = match.groups()
        if not num:
            return Fraction(value)
        den = int(den) if den else 1
        if not den:
            raise ZeroDivisionError("zero denominator")
        return Fraction(int(num), den)
    if isinstance(value, float):
        raise TypeError(
            f"refusing inexact float {value!r}; pass a string such as {str(value)!r}"
        )
    return Fraction(value)


def _digits(n: int) -> str:
    """Decimal text of ``n``, also past Python's int-to-str digit cap, which
    is process-wide and stays as it is: a longer int is split at a power of
    ten near half its digits."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _digits(-n)
        half = n.bit_length() * 3 // 20  # about half of n's digits
        high, low = divmod(n, 10**half)
        return _digits(high) + _digits(low).zfill(half)


def fraction_str(value: Fraction) -> str:
    """Render a Fraction as "n/d" with the denominator always present,
    exactly, however many digits it has."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # over Python's int-to-str digit cap
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _nonempty_names(names: Sequence[str], kind: str) -> tuple[str, ...]:
    out = tuple(str(n) for n in names)
    if not out:
        raise ValueError(f"{kind} list must not be empty")
    return out


class Generator:
    """A Markov transition kernel ``T(x, (y, s))`` over states and symbols.

    The kernel is stored sparsely: only nonzero entries are kept, so a
    deterministic machine has exactly one entry per row.  Construction checks
    structure only (declared names, exact values); numeric validity (rows
    summing to one, entries in range, name uniqueness) is checked by
    :func:`validate` so that invalid kernels can be loaded and reported.

    Attributes:
        states: ordered state names (canonical order = input order).
        alphabet: ordered output symbol names.
        kernel: per-state mapping ``(next_state, symbol) -> Fraction``, in
            canonical order: by target state index, then symbol index.
    """

    __slots__ = ("states", "alphabet", "kernel", "state_index", "symbol_index")

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        kernel: Mapping[str, Mapping[tuple[str, str], RatLike]],
    ):
        self.states = _nonempty_names(states, "state")
        self.alphabet = _nonempty_names(alphabet, "alphabet")
        self.state_index = {x: i for i, x in enumerate(self.states)}
        self.symbol_index = {s: i for i, s in enumerate(self.alphabet)}
        rows: dict[str, dict[tuple[str, str], Fraction]] = {x: {} for x in self.states}
        for x, row in kernel.items():
            if x not in self.state_index:
                raise UnknownStateError(f"kernel row for undeclared state {x!r}")
            for (y, s), p in row.items():
                if y not in self.state_index:
                    raise UnknownStateError(f"kernel target state {y!r} undeclared")
                if s not in self.symbol_index:
                    raise UnknownSymbolError(f"kernel symbol {s!r} undeclared")
                value = as_fraction(p)
                if value != 0:
                    rows[x][(y, s)] = value
            if len(rows[x]) > 1:  # a row of one entry is already in order
                rows[x] = dict(sorted(rows[x].items(), key=lambda e: (
                    self.state_index[e[0][0]], self.symbol_index[e[0][1]])))
        self.kernel = rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Generator):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.kernel == other.kernel
        )

    __hash__ = None  # type: ignore[assignment]  # mutable mappings inside

    def __repr__(self) -> str:
        return f"Generator(states={list(self.states)}, alphabet={list(self.alphabet)})"


class Distribution:
    """An exact probability distribution over state names.

    Weights must sum to one exactly and lie in [0, 1]; zero weights are
    dropped so that the key set equals the support.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[str, RatLike]):
        cleaned: dict[str, Fraction] = {}
        for x, w in weights.items():
            value = as_fraction(w)
            if value < 0 or value > 1:
                raise ValueError(f"weight of {echo(x)} is {echo_number(value)}, outside [0, 1]")
            if value != 0:
                cleaned[str(x)] = value
        total = sum(cleaned.values(), ZERO)
        if total != 1:
            raise ValueError(f"weights sum to {echo_number(total)}, expected exactly 1")
        self.weights = cleaned

    @classmethod
    def point(cls, x: str) -> "Distribution":
        return cls({x: ONE})

    @classmethod
    def uniform(cls, states: Sequence[str]) -> "Distribution":
        n = len(states)
        if n == 0:
            raise ValueError("cannot build a uniform distribution over no states")
        return cls({x: Fraction(1, n) for x in states})

    def __call__(self, x: str) -> Fraction:
        return self.weights.get(x, ZERO)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.weights == other.weights

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}: {fraction_str(w)}" for x, w in self.weights.items())
        return f"Distribution({{{inner}}})"


class Partition:
    """A partition of a state set in canonical form.

    Blocks are disjoint, nonempty, and cover the state set exactly; each
    block is sorted by state index and blocks are ordered by their smallest
    member's index.  A partition stands for the finite sigma-algebra whose
    atoms are its blocks.
    """

    __slots__ = ("blocks", "_block_of")

    def __init__(self, blocks: Sequence[Sequence[str]], states: Sequence[str]):
        index = {x: i for i, x in enumerate(states)}
        seen: dict[str, int] = {}
        canonical: list[tuple[str, ...]] = []
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x not in index:
                    raise UnknownStateError(f"block member {x!r} not a state")
                if x in seen:
                    raise ValueError(f"state {x!r} appears in more than one block")
                seen[x] = len(canonical)
            canonical.append(tuple(sorted(block, key=lambda x: index[x])))
        if len(seen) != len(index):
            missing = [x for x in states if x not in seen]
            raise ValueError(f"blocks do not cover states; missing {missing}")
        canonical.sort(key=lambda b: index[b[0]])
        self.blocks = tuple(canonical)
        self._block_of = {x: i for i, b in enumerate(self.blocks) for x in b}

    @classmethod
    def grouped(cls, states: Sequence[str], key: Callable[[str], Hashable]) -> "Partition":
        """Classes of equal ``key(x)``: the one grouping loop behind genred's partitions."""
        groups: dict[Hashable, list[str]] = {}
        for x in states:
            groups.setdefault(key(x), []).append(x)
        return cls(list(groups.values()), states)

    @classmethod
    def trivial(cls, states: Sequence[str]) -> "Partition":
        return cls([tuple(states)], states)

    @classmethod
    def singletons(cls, states: Sequence[str]) -> "Partition":
        return cls([(x,) for x in states], states)

    def block_index(self, x: str) -> int:
        try:
            return self._block_of[x]
        except KeyError:
            raise UnknownStateError(f"unknown state {x!r}") from None

    def block_of(self, x: str) -> tuple[str, ...]:
        return self.blocks[self.block_index(x)]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(b) + "}" for b in self.blocks)
        return f"Partition[{inner}]"


class DeterministicGenerator:
    """A deterministic machine: a total successor map ``f`` on states and a
    total observation map ``g`` from states to symbols.  Its kernel form
    moves from ``x`` to ``f(x)`` while emitting ``g(f(x))``."""

    __slots__ = ("states", "alphabet", "f", "g")

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        f: Mapping[str, str],
        g: Mapping[str, str],
    ):
        self.states = _nonempty_names(states, "state")
        self.alphabet = _nonempty_names(alphabet, "alphabet")
        state_set = set(self.states)
        symbol_set = set(self.alphabet)
        for x in self.states:
            if x not in f:
                raise ValueError(f"f is not total: missing {x!r}")
            if x not in g:
                raise ValueError(f"g is not total: missing {x!r}")
            if f[x] not in state_set:
                raise UnknownStateError(f"f({x!r}) = {f[x]!r} is not a state")
            if g[x] not in symbol_set:
                raise UnknownSymbolError(f"g({x!r}) = {g[x]!r} is not a symbol")
        self.f = {x: f[x] for x in self.states}
        self.g = {x: g[x] for x in self.states}

    def __repr__(self) -> str:
        return (
            f"DeterministicGenerator(states={list(self.states)}, "
            f"alphabet={list(self.alphabet)})"
        )


def validate(gen: Generator) -> list[str]:
    """Check the kernel conditions and report every violation.

    Returns a list of human-readable violations (duplicate names, entries
    outside [0, 1], rows not summing to one exactly); the generator is valid
    iff the list is empty.
    """
    report: list[str] = []
    seen: set[str] = set()
    for x in gen.states:
        if x in seen:
            report.append(f"duplicate state name {echo(x, quote=False)}")
        seen.add(x)
    seen.clear()
    for s in gen.alphabet:
        if s in seen:
            report.append(f"duplicate symbol name {echo(s, quote=False)}")
        seen.add(s)
    for x in gen.states:
        for (y, s), p in gen.kernel[x].items():
            if p < 0 or p > 1:
                x_, y_, s_ = (echo(name, quote=False) for name in (x, y, s))
                p_ = echo_number(p, slash=True)
                report.append(f"entry {x_} -> ({y_}, {s_}) = {p_} outside [0, 1]")
        total = sum(gen.kernel[x].values(), ZERO)
        if total != 1:
            report.append(f"row {echo(x, quote=False)} sums to {echo_number(total, slash=True)}")
    return report


def from_deterministic(dg: DeterministicGenerator) -> Generator:
    """Kernel form of a deterministic machine: each row carries a single
    unit entry at (f(x), g(f(x)))."""
    kernel = {x: {(dg.f[x], dg.g[dg.f[x]]): ONE} for x in dg.states}
    return Generator(dg.states, dg.alphabet, kernel)


def image(
    row: Mapping[tuple[str, str], Fraction],
    f: Mapping[str, object],
    g: Mapping[str, str] | None = None,
) -> dict[tuple, Fraction]:
    """Push a kernel row through a state map ``f`` and a symbol map ``g``
    (the identity when None): the mass of ``(f[y], g[s])`` is the total mass
    of its preimage entries.  A zero total is no mass and keeps no key, as
    in a :class:`Generator` row."""
    out: dict[tuple, Fraction] = {}
    for (y, s), p in row.items():
        key = (f[y], s if g is None else g[s])
        out[key] = out[key] + p if key in out else p
    return {key: p for key, p in out.items() if p}


def joint_rows(
    gens: tuple[Generator, ...], backward: bool
) -> tuple[int, dict[str, Rows]]:
    """Sparse per-symbol integer rows of the block-diagonal kernel on the
    concatenated state spaces, over one common denominator D: the one
    integer-scaled form of a kernel.  Returns ``(D, rows)``.  Forward rows
    give ``v M_s`` (``rows[s][i]`` lists ``(j, D*M_s[i][j])``); backward
    rows, the transpose, give ``M_s v``."""
    common = lcm(*(p.denominator for g in gens for row in g.kernel.values()
                   for p in row.values()))
    rows = {s: [[] for _ in range(sum(len(g.states) for g in gens))] for s in gens[0].alphabet}
    offset = 0
    for g in gens:
        for x, row in g.kernel.items():
            for (y, s), p in row.items():
                i, j = offset + g.state_index[x], offset + g.state_index[y]
                if backward:
                    i, j = j, i
                rows[s][i].append((j, p.numerator * (common // p.denominator)))
        offset += len(g.states)
    return common, rows


def pushforward(d: Distribution, f: Mapping[str, str]) -> Distribution:
    """Image of a distribution under a state map: mass of ``y`` is the total
    mass of its preimage.  ``f`` must be defined on the support of ``d``."""
    weights: dict[str, Fraction] = {}
    for x, w in d.weights.items():
        if x not in f:
            raise UnknownStateError(f"state map undefined on support state {x!r}")
        y = f[x]
        weights[y] = weights.get(y, ZERO) + w
    return Distribution(weights)
