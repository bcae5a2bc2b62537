"""Command-line front end.

Exit codes: 0 for success (or a positive answer), 1 for a domain-level
negative result or validation failure, 2 for usage or parse errors.  All
commands are deterministic given their flags; `sample` is deterministic
given `--seed`.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .catalog import FIXTURE_NAMES, arc_length_distribution, catalog, rational_rotation
from .core import (
    Distribution,
    Generator,
    as_fraction,
    fraction_str,
    from_deterministic,
    pushforward,
    validate,
)
from .errors import DistributionMismatchError, FileFormatError, GenredError, echo
from .formats import (
    dump_dot,
    dump_generator,
    dump_word_table,
    load_json,
    parse_generator_text,
    parse_prob,
    word_name,
)
from .process import (
    DEFAULT_SIZE_LIMIT,
    _check_distribution,
    causal_state_partition,
    sample,
    shortest_distinguishing_word,
    word_distribution,
    word_probability,
)
from .reduce import event_reduction, minimal_reduction, state_reduction

# A rotation by q/p has up to 2p arcs; `example rotation:1/5999` takes
# about 0.3 s (Python 3.11, one core of a shared VM), 0.02 s of it the arcs.
MAX_ROTATION_DENOMINATOR = 6000


class _CommandFailure(Exception):
    """Abort the running command with a message and exit code."""

    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _tolerance(args: argparse.Namespace) -> Fraction | None:
    raw = getattr(args, "tolerance", None)
    if raw is None:
        return None
    try:
        value = parse_prob(raw)
    except FileFormatError as exc:
        raise _CommandFailure(2, f"--tolerance: {exc}")
    if value < 0:
        raise _CommandFailure(2, "tolerance must be >= 0")
    return value


def _load_generator(path: str, args: argparse.Namespace) -> tuple[Generator, dict | None]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CommandFailure(2, f"cannot read {path}: {exc}")
    try:
        return parse_generator_text(text, _tolerance(args))
    except GenredError as exc:
        raise _CommandFailure(2, f"{path}: {exc}")


def _load_valid_generator(path: str, args: argparse.Namespace) -> tuple[Generator, dict | None]:
    gen, initial = _load_generator(path, args)
    report = validate(gen)
    if report:
        raise _CommandFailure(1, "\n".join(f"{path}: {line}" for line in report))
    return gen, initial


def _resolve_initial(
    gen: Generator, spec: str | None, file_initial: dict | None, path: str
) -> Distribution:
    """Initial distribution precedence: explicit flag, then the file's
    `initial` object, then uniform over all states.  A bad distribution,
    weight on a non-state included, fails with exit 1 under ``path``."""
    try:
        if spec is not None:
            if spec == "uniform":
                return Distribution.uniform(gen.states)
            if spec.lstrip().startswith("{"):
                try:
                    doc = load_json(spec)  # a dict: the text starts with "{"
                except FileFormatError as exc:
                    raise _CommandFailure(2, f"bad initial spec: {exc}")
                mu = Distribution({x: parse_prob(p) for x, p in doc.items()})
                _check_distribution(gen, mu)
                return mu
            if spec in gen.state_index:
                return Distribution.point(spec)
            raise _CommandFailure(
                2, f"bad initial spec {echo(spec)}: not 'uniform', a state, or a JSON object"
            )
        if file_initial is not None:
            return Distribution(file_initial)
        return Distribution.uniform(gen.states)
    except (ValueError, FileFormatError, DistributionMismatchError) as exc:
        raise _CommandFailure(1, f"{path}: bad initial distribution: {exc}")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CommandFailure(2, f"cannot write {out}: {exc}")


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise _CommandFailure(2, f"{flag} must be >= 0, got {value}")
    return value


def _format_partition(blocks) -> str:
    return "\n".join("{" + ",".join(block) + "}" for block in blocks) + "\n"


def _cmd_validate(args: argparse.Namespace) -> int:
    gen, _ = _load_generator(args.path, args)
    report = validate(gen)
    if report:
        for line in report:
            print(line)
        return 1
    print("valid")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    gen, file_initial = _load_valid_generator(args.path, args)
    if args.mode == "event":
        if args.dot:
            raise _CommandFailure(2, "--dot is not available with --mode event")
        erg = event_reduction(gen)
        _write_or_print(_format_partition(erg.partition.blocks), args.out)
        return 0
    if args.mode == "state":
        result = state_reduction(gen)
    else:
        result, _ = minimal_reduction(gen)
    initial = None
    if file_initial is not None:
        mu = _resolve_initial(gen, None, file_initial, args.path)
        initial = pushforward(mu, result.quotient_map)
    _write_or_print(
        dump_generator(result.reduced, initial, result.quotient_map), args.out
    )
    if args.dot:
        _write_or_print(dump_dot(result.reduced), args.dot)
    return 0


def _cmd_words(args: argparse.Namespace) -> int:
    _nonnegative("--max-len", args.max_len)
    limit = _nonnegative("--size-limit", args.size_limit)
    gen, file_initial = _load_valid_generator(args.path, args)
    mu = _resolve_initial(gen, args.initial, file_initial, args.path)
    table = word_distribution(gen, mu, args.max_len, limit)
    sys.stdout.write(dump_word_table(table))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    gen1, init1 = _load_valid_generator(args.path_a, args)
    gen2, init2 = _load_valid_generator(args.path_b, args)
    mu1 = _resolve_initial(gen1, args.muA, init1, args.path_a)
    mu2 = _resolve_initial(gen2, args.muB, init2, args.path_b)
    try:
        witness = shortest_distinguishing_word(gen1, mu1, gen2, mu2)
    except GenredError as exc:
        raise _CommandFailure(2, str(exc))
    if witness is None:
        print("equivalent")
        return 0
    p1 = word_probability(gen1, mu1, witness)
    p2 = word_probability(gen2, mu2, witness)
    print(f"not equivalent: word {word_name(witness, gen1.alphabet)} has probability "
          f"{fraction_str(p1)} vs {fraction_str(p2)}")
    return 1


def _cmd_causal(args: argparse.Namespace) -> int:
    gen, _ = _load_valid_generator(args.path, args)
    sys.stdout.write(_format_partition(causal_state_partition(gen).blocks))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    name = args.name
    if name.startswith("rotation:"):
        spec = name[len("rotation:"):]
        try:
            angle = as_fraction(spec)
        except ArithmeticError as exc:  # oversized, or a zero denominator
            raise _CommandFailure(2, f"bad rotation {echo(name)}: {exc}")
        except ValueError:
            raise _CommandFailure(
                1,
                f"cannot build {echo(name)}: only rational rotations are supported; "
                "an irrational angle keeps infinitely many distinguishable arc "
                "events, so no finite internal-event reduction exists",
            )
        angle %= 1
        if angle.denominator > MAX_ROTATION_DENOMINATOR:
            raise _CommandFailure(
                2,
                f"bad rotation {echo(name)}: denominator over "
                f"{MAX_ROTATION_DENOMINATOR}",
            )
        model, machine = rational_rotation(angle.numerator, angle.denominator)
        gen = from_deterministic(machine)
        sys.stdout.write(dump_generator(gen, arc_length_distribution(model)))
        return 0
    gen, mu = catalog(name)
    sys.stdout.write(dump_generator(gen, mu))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    _nonnegative("--n", args.n)
    gen, file_initial = _load_valid_generator(args.path, args)
    mu = _resolve_initial(gen, args.initial, file_initial, args.path)
    word, _ = sample(gen, mu, args.n, args.seed)
    print(word_name(word, gen.alphabet) if word else "")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genred",
        description="Exact word distributions, equivalence, and minimal "
        "reductions of finite hidden Markov generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tolerance",
            nargs="?",
            const="1/1000000000",
            default=None,
            metavar="EPS",
            help="accept rows whose sum is within EPS of 1 and rescale them "
            "exactly (default EPS when the flag is bare: 1e-9)",
        )

    p = sub.add_parser("validate", help="check the kernel conditions of a file")
    p.add_argument("path")
    add_tolerance(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reduce", help="reduce a generator")
    p.add_argument("path")
    p.add_argument("--mode", choices=("event", "state", "full"), default="full")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument("--dot", help="also write a DOT graph of the reduced generator")
    add_tolerance(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("words", help="print the exact word table")
    p.add_argument("path")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--initial", help="'uniform', a state name, or a JSON object")
    p.add_argument("--size-limit", type=int, default=DEFAULT_SIZE_LIMIT,
                   help=f"word-table entry cap (default {DEFAULT_SIZE_LIMIT})")
    add_tolerance(p)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("equiv", help="decide whether two files generate the same process")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--muA", help="initial distribution spec for the first file")
    p.add_argument("--muB", help="initial distribution spec for the second file")
    add_tolerance(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("causal", help="partition states by the process they generate")
    p.add_argument("path")
    add_tolerance(p)
    p.set_defaults(func=_cmd_causal)

    p = sub.add_parser("example", help="emit a named fixture or rotation:q/p")
    p.add_argument("name", help=f"one of {', '.join(FIXTURE_NAMES)}, or rotation:q/p "
                   f"with p <= {MAX_ROTATION_DENOMINATOR}")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("sample", help="emit a seeded sample run")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial", help="'uniform', a state name, or a JSON object")
    add_tolerance(p)
    p.set_defaults(func=_cmd_sample)
    return parser


# Built once per process: building takes about 25 times as long as a parse.
_PARSER = build_parser()


def run(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _CommandFailure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code
    except GenredError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
