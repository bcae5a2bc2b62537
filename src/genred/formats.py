"""On-disk formats: generator JSON, word-table text, DOT.

JSON is the single input format (strict schema, versioned); DOT and the
word-table text are output only.  Probabilities in files are strings,
either "n/d" rationals or decimals; decimals are converted to exact
rationals at parse time ("0.25" becomes 1/4) and emission always uses
"n/d".  With the optional tolerance enabled, a row or initial distribution
whose exact sum lies within the tolerance of one is rescaled exactly to sum
to one; rows further off still fail validation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .core import MAX_DIGITS, ZERO, Distribution, Generator, as_fraction, fraction_str
from .errors import FileFormatError, echo
from .process import Word, WordTable

FORMAT_VERSION = 1


def parse_prob(text: Any) -> Fraction:
    """Exact probability from its file representation, a string read by
    :func:`genred.core.as_fraction`; error messages echo at most 40
    characters of the input."""
    if not isinstance(text, str):
        raise FileFormatError(f"probability must be a string, got {echo(text)}")
    try:
        return as_fraction(text)
    except (ArithmeticError, ValueError) as exc:
        raise FileFormatError(f"bad probability {echo(text)}: {exc}") from None


def load_json(text: str) -> Any:
    """The one reader of JSON text; every failure to decode it is a
    :class:`FileFormatError` with a one-line message."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from None
    except ValueError:  # a JSON number too long for Python's int conversion
        raise FileFormatError(f"invalid JSON: a number over {MAX_DIGITS} digits") from None
    except RecursionError:
        raise FileFormatError("invalid JSON: nested too deeply") from None


def _snap(weights: dict, tolerance: Fraction | None) -> dict:
    """``weights`` rescaled exactly to sum to one when their sum is positive
    and within ``tolerance`` of one; as they are otherwise."""
    if tolerance is None:
        return weights
    total = sum(weights.values(), ZERO)
    if total != 1 and abs(total - 1) <= tolerance and total > 0:
        return {k: p / total for k, p in weights.items()}
    return weights


def _require(cond: bool, message: str, *values: Any) -> None:
    """Raise unless ``cond``; the ``values`` fill the ``{}`` slots of
    ``message`` through :func:`~genred.errors.echo`, only on failure."""
    if not cond:
        raise FileFormatError(message.format(*map(echo, values)))


def _name_list(raw: Any, field: str) -> list[str]:
    _require(isinstance(raw, list) and raw, f"{field} must be a nonempty list")
    _require(all(isinstance(x, str) for x in raw), f"{field} entries must be strings")
    return list(raw)


_TOP_LEVEL_KEYS = {"format_version", "states", "alphabet", "transitions", "initial", "quotient"}


def parse_generator_text(
    text: str, tolerance: Fraction | None = None
) -> tuple[Generator, dict[str, Fraction] | None]:
    """Decode a generator JSON text into a generator and the optional raw
    initial weights.  Structural problems raise :class:`FileFormatError`;
    numeric validity is left to :func:`genred.core.validate` so that broken
    kernels can be loaded and reported."""
    doc = load_json(text)
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    _require(not unknown, "unknown keys {}", sorted(unknown))
    _require(doc.get("format_version") == FORMAT_VERSION,
             f"format_version must be {FORMAT_VERSION}")
    states = _name_list(doc.get("states"), "states")
    alphabet = _name_list(doc.get("alphabet"), "alphabet")
    raw_transitions = doc.get("transitions")
    _require(isinstance(raw_transitions, list), "transitions must be a list")
    kernel: dict[str, dict[tuple[str, str], Fraction]] = {x: {} for x in states}
    symbols = set(alphabet)
    for t in raw_transitions:
        _require(isinstance(t, dict), "each transition must be an object")
        _require(set(t) == {"from", "to", "symbol", "prob"},
                 "transition keys must be from/to/symbol/prob, got {}", sorted(t))
        src, dst, sym = t["from"], t["to"], t["symbol"]
        _require(type(src) is str and type(dst) is str and type(sym) is str,
                 "transition from, to and symbol must be strings")
        _require(src in kernel, "transition from unknown state {}", src)
        _require(dst in kernel, "transition to unknown state {}", dst)
        _require(sym in symbols, "transition on unknown symbol {}", sym)
        key = (dst, sym)
        _require(key not in kernel[src],
                 "duplicate transition {} -> ({}, {})", src, dst, sym)
        kernel[src][key] = parse_prob(t["prob"])
    kernel = {x: _snap(row, tolerance) for x, row in kernel.items()}
    gen = Generator(states, alphabet, kernel)

    initial: dict[str, Fraction] | None = None
    if "initial" in doc:
        raw_initial = doc["initial"]
        _require(isinstance(raw_initial, dict), "initial must be an object")
        initial = {}
        for x, p in raw_initial.items():
            _require(x in kernel, "initial weight for unknown state {}", x)
            initial[x] = parse_prob(p)
        initial = _snap(initial, tolerance)
    return gen, initial


def generator_document(
    gen: Generator,
    initial: Distribution | None = None,
    quotient: Mapping[str, str] | None = None,
) -> dict:
    """Canonical JSON document: transitions ordered by source state index,
    target state index, then symbol index, probabilities as "n/d"."""
    transitions = []
    for x in gen.states:
        for (y, s), p in gen.kernel[x].items():
            transitions.append(
                {"from": x, "to": y, "symbol": s, "prob": fraction_str(p)}
            )
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "states": list(gen.states),
        "alphabet": list(gen.alphabet),
        "transitions": transitions,
    }
    if initial is not None:
        doc["initial"] = {
            x: fraction_str(initial(x)) for x in gen.states if initial(x) != 0
        }
    if quotient is not None:
        doc["quotient"] = dict(quotient)  # insertion order = original state order
    return doc


def dump_generator(
    gen: Generator,
    initial: Distribution | None = None,
    quotient: Mapping[str, str] | None = None,
) -> str:
    return json.dumps(generator_document(gen, initial, quotient), indent=2) + "\n"


def word_separator(alphabet: Sequence[str]) -> str:
    """The string that joins the symbols of a word: none when every
    alphabet symbol is a single character, "," otherwise."""
    return "" if all(len(s) == 1 for s in alphabet) else ","


def word_name(word: Word, alphabet: tuple[str, ...]) -> str:
    """Display form of a word, joined by :func:`word_separator`; the empty
    word renders as an epsilon."""
    return word_separator(alphabet).join(word) if word else "ε"


def dump_word_table(table: WordTable) -> str:
    """One line per word in length-lexicographic order: `<word> <p>/<q>`."""
    sep = word_separator(table.alphabet)
    lines = [
        f"{sep.join(w) if w else 'ε'} {fraction_str(p)}"
        for w, p in table.probs.items()
    ]
    return "\n".join(lines) + "\n"


def dump_dot(gen: Generator) -> str:
    """Graphviz digraph of the transition structure, one edge per kernel
    entry, labeled `s : p/q`."""

    def quote(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph generator {", "  rankdir=LR;"]
    for x in gen.states:
        lines.append(f"  {quote(x)} [shape=circle];")
    for x in gen.states:
        for (y, s), p in gen.kernel[x].items():
            label = f"{s} : {fraction_str(p)}"
            lines.append(f"  {quote(x)} -> {quote(y)} [label={quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
