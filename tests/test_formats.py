import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genred import (
    Distribution,
    FileFormatError,
    Generator,
    as_fraction,
    catalog,
    minimal_reduction,
    validate,
    word_distribution,
)
from genred.formats import (
    dump_dot,
    dump_generator,
    dump_word_table,
    generator_document,
    load_json,
    parse_generator_text,
    parse_prob,
)

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "generator.schema.json"


def minimal_doc(**extra):
    doc = {
        "format_version": 1,
        "states": ["q"],
        "alphabet": ["h", "t"],
        "transitions": [
            {"from": "q", "to": "q", "symbol": "h", "prob": "1/2"},
            {"from": "q", "to": "q", "symbol": "t", "prob": "1/2"},
        ],
    }
    doc.update(extra)
    return doc


class TestParsing:
    def test_round_trip_is_identity_on_canonical_files(self):
        gen, mu = catalog("golden-mean")
        text = dump_generator(gen, mu)
        gen2, initial = parse_generator_text(text)
        assert gen2 == gen
        assert dump_generator(gen2, Distribution(initial)) == text

    def test_decimal_probs_convert_exactly(self):
        doc = minimal_doc(
            transitions=[
                {"from": "q", "to": "q", "symbol": "h", "prob": "0.25"},
                {"from": "q", "to": "q", "symbol": "t", "prob": "0.75"},
            ]
        )
        gen, _ = parse_generator_text(json.dumps(doc))
        assert gen.kernel["q"][("q", "h")] == Fraction(1, 4)
        assert gen.kernel["q"][("q", "t")] == Fraction(3, 4)

    def test_emission_always_uses_rationals(self):
        doc = minimal_doc(
            transitions=[
                {"from": "q", "to": "q", "symbol": "h", "prob": "0.5"},
                {"from": "q", "to": "q", "symbol": "t", "prob": "0.5"},
            ]
        )
        gen, _ = parse_generator_text(json.dumps(doc))
        assert '"prob": "1/2"' in dump_generator(gen)

    def test_numeric_probs_rejected(self):
        doc = minimal_doc(
            transitions=[{"from": "q", "to": "q", "symbol": "h", "prob": 0.5}]
        )
        with pytest.raises(FileFormatError):
            parse_generator_text(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(FileFormatError):
            parse_generator_text("{not json")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"format_version": 2},
            {"states": []},
            {"alphabet": "ab"},
            {"transitions": {"from": "q"}},
            {"extra_key": 1},
        ],
    )
    def test_schema_violations_rejected(self, mutation):
        doc = minimal_doc(**mutation)
        with pytest.raises(FileFormatError):
            parse_generator_text(json.dumps(doc))

    def test_unknown_names_in_transitions_rejected(self):
        for bad in (
            {"from": "zz", "to": "q", "symbol": "h", "prob": "1/2"},
            {"from": "q", "to": "zz", "symbol": "h", "prob": "1/2"},
            {"from": "q", "to": "q", "symbol": "zz", "prob": "1/2"},
        ):
            doc = minimal_doc(transitions=[bad])
            with pytest.raises(FileFormatError):
                parse_generator_text(json.dumps(doc))

    def test_duplicate_transition_rejected(self):
        doc = minimal_doc()
        doc["transitions"].append(dict(doc["transitions"][0]))
        with pytest.raises(FileFormatError):
            parse_generator_text(json.dumps(doc))

    def test_initial_weights_for_unknown_state_rejected(self):
        doc = minimal_doc(initial={"zz": "1/1"})
        with pytest.raises(FileFormatError):
            parse_generator_text(json.dumps(doc))

    def test_quotient_key_is_tolerated(self):
        gen, mu = catalog("golden-mean-redundant")
        result, _ = minimal_reduction(gen)
        text = dump_generator(result.reduced, quotient=result.quotient_map)
        gen2, _ = parse_generator_text(text)
        assert gen2 == result.reduced

    def test_long_exponents_rejected(self):
        assert parse_prob("1e-999") == Fraction(1, 10**999)
        assert parse_prob("2.5E+3") == 2500
        for text in ("1e-1000", "1e-4000000", "0.5e0001", "1E+99999"):
            with pytest.raises(FileFormatError, match="exponent longer than 3 digits"):
                parse_prob(text)

    def test_long_exponent_in_file_rejected(self):
        doc = minimal_doc(
            transitions=[{"from": "q", "to": "q", "symbol": "h", "prob": "1e-4000000"}]
        )
        with pytest.raises(FileFormatError, match="exponent"):
            parse_generator_text(json.dumps(doc))
        doc = minimal_doc(initial={"q": "1e-99999"})
        with pytest.raises(FileFormatError, match="exponent"):
            parse_generator_text(json.dumps(doc))

    def test_long_mantissa_is_one_short_line(self):
        assert parse_prob("0." + "0" * 4299 + "1") == Fraction(1, 10**4300)
        for text in ("0." + "0" * 5000 + "1", "1" * 4301 + "/2", "1_" * 4301 + "1"):
            with pytest.raises(FileFormatError, match="more than 4300 digits") as info:
                parse_prob(text)
            message = str(info.value)
            assert len(message) < 100 and "\n" not in message
            assert "set_int_max_str_digits" not in message
        with pytest.raises(FileFormatError) as info:
            parse_prob("x" * 5000)
        assert len(str(info.value)) < 100

    def test_long_mantissa_in_file_rejected(self):
        doc = minimal_doc(initial={"q": "0." + "0" * 5000 + "1"})
        with pytest.raises(FileFormatError, match="more than 4300 digits"):
            parse_generator_text(json.dumps(doc))
        text = json.dumps(minimal_doc()).replace('"1/2"', "1" + "0" * 5000, 1)
        with pytest.raises(FileFormatError, match="invalid JSON"):
            parse_generator_text(text)

    @pytest.mark.parametrize("field", ["from", "to", "symbol"])
    def test_non_string_transition_field_rejected(self, field):
        for value in (["q"], {"q": "q"}, 1):
            doc = minimal_doc()
            doc["transitions"][0][field] = value
            with pytest.raises(FileFormatError, match="must be strings"):
                parse_generator_text(json.dumps(doc))

    def test_deep_nesting_is_invalid_json(self):
        for text in ("[" * 200_000, '{"a": ' * 200_000):
            with pytest.raises(FileFormatError, match="invalid JSON") as info:
                parse_generator_text(text)
            assert len(str(info.value)) < 100

    def test_parse_prob_forms(self):
        assert parse_prob("1/2") == Fraction(1, 2)
        assert parse_prob("0.125") == Fraction(1, 8)
        assert parse_prob("1") == Fraction(1)
        with pytest.raises(FileFormatError):
            parse_prob("1/0")
        with pytest.raises(FileFormatError):
            parse_prob("h")


def _read(reader, text):
    try:
        return reader(text)
    except (ArithmeticError, ValueError, FileFormatError):
        return None


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789/.eE-+_ ", max_size=12))
def test_one_reader_for_files_and_the_library(text):
    value = _read(as_fraction, text)
    assert value == _read(parse_prob, text)
    if value is not None:  # the language is inside Python's own
        assert value == Fraction(text)


def test_load_json_reads_every_json_text():
    assert load_json('{"a": ["1/2"]}') == {"a": ["1/2"]}
    for text, reason in (("{oops", "invalid JSON: Expecting"),
                         ("[" * 200_000, "nested too deeply"),
                         ("[1" + "0" * 5000 + "]", "a number over 4300 digits")):
        with pytest.raises(FileFormatError, match=reason):
            load_json(text)


class TestTolerance:
    def test_near_one_rows_snap_exactly(self):
        third = "0.333333333"  # sums to 0.999999999, off by 1e-9
        doc = minimal_doc(
            states=["q"],
            alphabet=["a", "b", "c"],
            transitions=[
                {"from": "q", "to": "q", "symbol": s, "prob": third}
                for s in ("a", "b", "c")
            ],
        )
        text = json.dumps(doc)
        gen_raw, _ = parse_generator_text(text)
        assert validate(gen_raw) != []
        gen_snapped, _ = parse_generator_text(text, tolerance=Fraction(1, 10**9))
        assert validate(gen_snapped) == []
        assert gen_snapped.kernel["q"][("q", "a")] == Fraction(1, 3)

    def test_rows_outside_tolerance_still_fail(self):
        doc = minimal_doc(
            transitions=[{"from": "q", "to": "q", "symbol": "h", "prob": "0.9"}]
        )
        gen, _ = parse_generator_text(json.dumps(doc), tolerance=Fraction(1, 10**9))
        assert validate(gen) != []

    def test_initial_snaps_too(self):
        doc = minimal_doc(initial={"q": "0.999999999"})
        _, initial = parse_generator_text(json.dumps(doc), tolerance=Fraction(1, 10**9))
        assert initial == {"q": Fraction(1)}


class TestTextOutputs:
    def test_word_table_lines(self):
        gen, mu = catalog("randomness-2")
        table = word_distribution(gen, mu, 2)
        text = dump_word_table(table)
        assert text.splitlines() == [
            "ε 1/1",
            "a 1/2",
            "b 1/2",
            "aa 1/4",
            "ab 1/4",
            "ba 1/4",
            "bb 1/4",
        ]

    def test_multichar_symbols_join_with_commas(self):
        gen = Generator(
            ["q"], ["lo", "hi"],
            {"q": {("q", "lo"): Fraction(1, 2), ("q", "hi"): Fraction(1, 2)}},
        )
        table = word_distribution(gen, Distribution.point("q"), 2)
        text = dump_word_table(table)
        assert "lo,hi 1/4" in text.splitlines()

    def test_dot_output(self):
        gen, _ = catalog("golden-mean")
        dot = dump_dot(gen)
        assert dot.startswith("digraph generator {")
        assert '"A" -> "A" [label="0 : 1/2"];' in dot
        assert '"B" -> "A" [label="0 : 1/1"];' in dot
        assert dot.rstrip().endswith("}")

    def test_dot_quotes_special_names(self):
        gen = Generator(
            ['st"ate'], ["a"], {'st"ate': {('st"ate', "a"): 1}}
        )
        dot = dump_dot(gen)
        assert '"st\\"ate"' in dot


class TestJsonSchema:
    def test_emitted_documents_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for name in ("randomness-2", "rotation-p3", "golden-mean-redundant"):
            gen, mu = catalog(name)
            jsonschema.validate(generator_document(gen, mu), schema)
        gen, _ = catalog("golden-mean-redundant")
        result, _ = minimal_reduction(gen)
        jsonschema.validate(
            generator_document(result.reduced, quotient=result.quotient_map), schema
        )

    def test_schema_rejects_float_probs(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        doc = minimal_doc(
            transitions=[{"from": "q", "to": "q", "symbol": "h", "prob": 0.5}]
        )
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    def test_schema_bounds_exponents_like_the_parser(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        longest, too_long = "0." + "0" * 4299 + "1", "0." + "0" * 4300 + "1"
        for prob, ok in (("1e-999", True), (".5E+3", True), ("1e-1000", False),
                         ("0.5e0001", False), ("1.e99999", False),
                         (longest, True), (too_long, False),
                         (" -1/2 ", True), ("1.", True), ("1_0/2_0", False),
                         ("0.1_5", False), ("1e1_0", False), ("+1/2", False),
                         ("1 / 2", False), ("1/ 2", False), ("١/٢", False)):
            doc = minimal_doc(initial={"q": prob})
            if ok:
                jsonschema.validate(doc, schema)
                parse_prob(prob)
            else:
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(doc, schema)
                with pytest.raises(FileFormatError):
                    parse_prob(prob)
