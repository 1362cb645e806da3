import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitransform import (
    ContractViolationError,
    EvaluationError,
    ParseError,
    canonical,
    evaluate,
    evaluate_array,
    parse,
)


class TestGrammarBasics:
    def test_gaussian_at_zero(self):
        assert evaluate(parse("exp(-x^2/2)"), 0.0) == 1.0

    def test_sine_of_pi_multiple(self):
        assert evaluate(parse("sin(pi*x)"), 0.5) == pytest.approx(1.0)

    def test_polynomial(self):
        assert evaluate(parse("x^2+3*x+1"), 2.0) == 11.0

    def test_two_variable_expression(self):
        assert evaluate(parse("x*exp(-t)"), 2.0, t=0.0) == 2.0

    def test_named_constants(self):
        assert evaluate(parse("pi"), 0.0) == math.pi
        assert evaluate(parse("e"), 0.0) == math.e

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3"), 0.0) == 1e-3
        assert evaluate(parse("2.5e2"), 0.0) == 250.0

    def test_whitespace_insignificant(self):
        a = parse(" 1 +  2 * x ")
        b = parse("1+2*x")
        assert a == b


class TestPrecedence:
    def test_multiplication_before_addition(self):
        assert evaluate(parse("2+3*4"), 0.0) == 14.0

    def test_unary_minus_below_power(self):
        assert evaluate(parse("-x^2"), 3.0) == -9.0
        assert evaluate(parse("(-x)^2"), 3.0) == 9.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_left_associative_subtraction(self):
        assert evaluate(parse("10-4-3"), 0.0) == 3.0

    def test_left_associative_division(self):
        assert evaluate(parse("24/4/2"), 0.0) == 3.0

    def test_unary_minus_above_multiplication(self):
        # -x*y groups as (-x)*y; value identical, grouping visible in the tree
        tree = parse("-x*2")
        assert tree == parse("(-x)*2")

    def test_twenty_randomized_cases_match_reference(self):
        rng = random.Random(20240817)

        def build(depth):
            # (text, python_text) pairs with identical structure
            choice = rng.randrange(6 if depth > 0 else 2)
            if choice == 0:
                v = round(rng.uniform(0.5, 4.0), 3)
                return str(v), str(v)
            if choice == 1:
                return "x", "x"
            if choice == 2:
                a, pa = build(depth - 1)
                b, pb = build(depth - 1)
                op = rng.choice(["+", "-", "*"])
                return f"{a}{op}{b}", f"{pa}{op}{pb}"
            if choice == 3:
                a, pa = build(depth - 1)
                b, pb = build(depth - 1)
                return f"({a})/({b}+9)", f"({pa})/({pb}+9)"
            if choice == 4:
                a, pa = build(depth - 1)
                exponent = rng.choice(["2", "3", "-1"])
                return f"({a}+5)^{exponent}", f"({pa}+5)**({exponent})"
            a, pa = build(depth - 1)
            fn = rng.choice(["sin", "cos", "exp"])
            return f"{fn}({a})", f"math.{fn}({pa})"

        for case in range(20):
            text, py_text = build(3)
            x = round(rng.uniform(0.1, 2.0), 4)
            expected = eval(py_text, {"math": math, "x": x})
            got = evaluate(parse(text), x)
            assert got == pytest.approx(expected, rel=1e-12), (case, text)


class TestParseErrors:
    def test_unknown_function_at_offset_zero(self):
        with pytest.raises(ParseError) as info:
            parse("foo(x)")
        assert info.value.position == 0

    def test_unknown_identifier_offset(self):
        with pytest.raises(ParseError) as info:
            parse("2*omega")
        assert info.value.position == 2

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError) as info:
            parse("sin(x")
        assert info.value.position == 5
        with pytest.raises(ParseError):
            parse("(x+1))")

    def test_empty_argument(self):
        with pytest.raises(ParseError):
            parse("sin()")
        with pytest.raises(ParseError):
            parse("()")

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("2^x")
        with pytest.raises(ParseError):
            parse("x^(t+1)")

    def test_constant_exponent_subtree_folds(self):
        assert parse("2^3^2") == parse("2^9")
        assert evaluate(parse("x^(1+1)"), 3.0) == 9.0

    @pytest.mark.parametrize("text, inner", [("x^(2^2000)", "2^2000"), ("x^(0^(-1))", "0^(-1)")])
    def test_folded_exponent_fails_like_a_run_time_evaluation(self, text, inner):
        message = f"power produced a non-finite value in '{inner}'"
        with pytest.raises(EvaluationError) as info:
            evaluate(parse(inner), 0.0)
        assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"exponent does not evaluate: {message} (at offset 1)"

    def test_function_application_requires_parens(self):
        with pytest.raises(ParseError):
            parse("sin x")

    @pytest.mark.parametrize(
        "text",
        ["1+", "*3", "2**3", "1..2", "x y", "exp", "3/(", ")x(", "x^", "@", "1,2"],
    )
    def test_malformed_inputs_raise_positioned_errors(self, text):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert 0 <= info.value.position <= len(text)

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("sin()", "empty argument to sin", 4),
            ("()", "empty parentheses", 1),
            ("(x+1", "unbalanced parentheses", 4),
            ("sin(x", "unbalanced parentheses", 5),
            ("(x))", "unexpected trailing input ')'", 3),
            ("2^x", "exponent must be a constant", 1),
            ("x^(t+1)", "exponent must be a constant", 1),
        ],
    )
    def test_bracket_and_exponent_messages(self, text, message, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at offset {offset})"
        assert info.value.position == offset


class TestEvaluationErrors:
    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(EvaluationError, match="1/x"):
            evaluate(parse("1/x"), 0.0)

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("log(x)"), -1.0)
        with pytest.raises(EvaluationError):
            evaluate(parse("log(x)"), 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(x)"), -4.0)

    def test_noninteger_power_needs_positive_base(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("x^0.5"), -2.0)
        assert evaluate(parse("x^0.5"), 4.0) == pytest.approx(2.0)
        assert evaluate(parse("x^3"), -2.0) == -8.0

    def test_missing_t(self):
        with pytest.raises(ContractViolationError):
            evaluate(parse("x*exp(-t)"), 1.0)

    def test_overflow_reported(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(x)"), 1e6)

    @pytest.mark.parametrize(
        "text, x, inner",
        [("1e308*x", 10.0, "1e+308*x"), ("1e300/x", 1e-10, "1e+300/x"),
         ("x+1e308", 1e308, "x+1e+308"), ("x-1e308", -1e308, "x-1e+308")],
    )
    def test_arithmetic_overflow_names_subexpression(self, text, x, inner):
        with pytest.raises(EvaluationError) as info:
            evaluate(parse(text), x)
        assert str(info.value) == f"overflow in '{inner}'"


class TestArrayEvaluation:
    def test_matches_scalar_path(self):
        ast = parse("exp(-x^2/2)*sin(pi*x)+x/3")
        xs = np.linspace(-2.0, 2.0, 41)
        batch = evaluate_array(ast, xs)
        singles = np.array([math.exp(-x * x / 2) * math.sin(math.pi * x) + x / 3 for x in xs])
        np.testing.assert_allclose(batch, singles, atol=1e-15)

    def test_two_variable_broadcast(self):
        ast = parse("x*exp(-t)")
        xs = np.array([[1.0], [2.0]])
        ts = np.array([[0.0, 1.0]])
        out = evaluate_array(ast, xs, ts)
        assert out.shape == (2, 2)
        assert out[1, 0] == pytest.approx(2.0)
        assert out[0, 1] == pytest.approx(math.exp(-1.0))

    def test_constant_expression_broadcasts(self):
        out = evaluate_array(parse("2"), np.linspace(0, 1, 5))
        assert out.shape == (5,)
        assert np.all(out == 2.0)

    def test_sqrt_and_log_inside_their_domain(self):
        xs = np.array([0.25, 1.0, 4.0, 9.0])
        np.testing.assert_array_equal(evaluate_array(parse("sqrt(x)"), xs), np.sqrt(xs))
        np.testing.assert_array_equal(evaluate_array(parse("log(x)"), xs), np.log(xs))

    def test_domain_errors_not_silent(self):
        xs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(EvaluationError):
            evaluate_array(parse("1/x"), xs)
        with pytest.raises(EvaluationError):
            evaluate_array(parse("sqrt(x)"), xs)

    def test_overflow_on_one_point_raises(self):
        with pytest.raises(EvaluationError, match=r"overflow in 'x\*x'"):
            evaluate_array(parse("x*x"), np.array([1.0, 1e200, 2.0]))


# strategy for random trees used by the printer round-trip property
_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.5, allow_nan=False).map(
        lambda v: str(round(v, 3))
    ),
    st.sampled_from(["x", "t", "pi", "e"]),
)


def _expr_strategy():
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda triple: f"({triple[1]}){triple[0]}({triple[2]})"
            ),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
                lambda pair: f"{pair[0]}({pair[1]})"
            ),
            children.map(lambda body: f"-({body})"),
            st.tuples(children, st.sampled_from(["2", "3", "0.5", "-1"])).map(
                lambda pair: f"({pair[0]})^{pair[1]}"
            ),
        ),
        max_leaves=12,
    )


class TestCanonicalPrinter:
    @settings(max_examples=120, deadline=None)
    @given(_expr_strategy())
    def test_parse_print_parse_is_stable(self, text):
        try:
            tree = parse(text)
        except ParseError:
            # randomly composed text can hit the constant-exponent rule
            return
        assert parse(canonical(tree)) == tree

    def test_printer_examples(self):
        assert canonical(parse("2 + 3*4")) == "2+3*4"
        assert canonical(parse("(2+3)*4")) == "(2+3)*4"
        assert canonical(parse("-x^2")) == "-x^2"
        assert canonical(parse("x^(-2)")) == "x^(-2)"
        assert canonical(parse("exp(-(x^2)/2)")) == "exp(-x^2/2)"


# The characters the lexer gives a meaning to, and a few it refuses.
_ALPHABET = "0123456789.eE+-*/^() \t\nxtpisncoqrabslg_@,é²"


class TestLexicalRules:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(max_size=16), st.text(st.sampled_from(_ALPHABET), max_size=18)))
    def test_parse_returns_a_tree_or_a_positioned_parse_error(self, text):
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("  @", "unexpected character '@'", 2),
            ("1e", "unexpected trailing input 'e'", 1),
            ("1e+", "unexpected trailing input 'e'", 1),
            ("1..2", "malformed number '1..2'", 0),
            (".", "malformed number '.'", 0),
            ("_a", "unknown identifier '_a'", 0),
            ("é", "unknown identifier 'é'", 0),
            ("1e999", "number '1e999' overflows a float", 0),
            ("x^(1e999-1e999)", "number '1e999' overflows a float", 3),
            ("x^sin(1e999)", "number '1e999' overflows a float", 6),
            ("x^(1e308*10)", "exponent does not evaluate: overflow in '1e+308*10'", 1),
            ("x^(sin(1)*1e308*1e10)",
             "exponent does not evaluate: overflow in 'sin(1)*1e+308*10000000000'", 1),
        ],
    )
    def test_message_and_offset(self, text, message, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"{message} (at offset {offset})"
        assert info.value.position == offset

    def test_whitespace_between_tokens(self):
        assert parse("sin (x)") == parse("sin(x)")
        assert parse("x\t+\n1") == parse("x+1")
