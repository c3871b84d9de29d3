import math

import numpy as np
import pytest

from resolvent_kit.errors import PotentialSyntaxError
from resolvent_kit.potential import Bin, Exp, Neg, Num, Var, parse_potential


class TestEvaluation:
    def test_barrier_potential(self):
        v = parse_potential("7.5*r^2*exp(-r)")
        assert v(1.0) == pytest.approx(7.5 * math.exp(-1.0))
        assert v(2.0) == pytest.approx(7.5 * 4.0 * math.exp(-2.0))

    def test_two_gaussian_potential(self):
        v = parse_potential("5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)")
        assert v(3.5) == pytest.approx(5.0 - 8.0 * math.exp(-(3.5**2) / 5.0))

    def test_vectorized(self):
        v = parse_potential("r^2 - 1/r")
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(v(r), r**2 - 1.0 / r)

    def test_precedence(self):
        assert parse_potential("2+3*4")(1.0) == pytest.approx(14.0)
        assert parse_potential("2*3^2")(1.0) == pytest.approx(18.0)
        assert parse_potential("-r^2")(3.0) == pytest.approx(-9.0)
        assert parse_potential("(-r)^2")(3.0) == pytest.approx(9.0)
        assert parse_potential("2^3^2")(1.0) == pytest.approx(512.0)
        assert parse_potential("8/4/2")(1.0) == pytest.approx(1.0)
        assert parse_potential("2-3-4")(1.0) == pytest.approx(-5.0)

    def test_unary_minus_chains(self):
        assert parse_potential("--r")(2.0) == pytest.approx(2.0)
        assert parse_potential("2*-r")(3.0) == pytest.approx(-6.0)

    def test_scientific_notation(self):
        assert parse_potential("1.5e-2*r")(2.0) == pytest.approx(0.03)
        assert parse_potential("2E3")(1.0) == pytest.approx(2000.0)


class TestRoundTrip:
    CORPUS = [
        "7.5*r^2*exp(-r)",
        "5*exp(-(r-3.5)^2/4) - 8*exp(-r^2/5)",
        "1 + (2 + 3)",
        "1 + 2 + 3",
        "a".replace("a", "r"),
        "2-3-4",
        "8/4/2",
        "2^3^2",
        "(2^3)^2",
        "-(r + 1)",
        "-r^2",
        "(-r)^2",
        "2*-r",
        "exp(exp(-r))",
        "1/(1 + r^2)",
        "1.5e-2*r - 0.25",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse(self, text):
        tree = parse_potential(text)
        printed = tree.to_text()
        assert parse_potential(printed) == tree

    @pytest.mark.parametrize("text", CORPUS)
    def test_printed_form_evaluates_identically(self, text):
        tree = parse_potential(text)
        again = parse_potential(tree.to_text())
        for r in (0.3, 1.0, 4.7):
            assert again(r) == pytest.approx(tree(r), rel=1e-15)


def reference_eval(node, r):
    """``node`` at the array r with every constant a full float64 array of
    r's shape, as the tree evaluated before its constants were scalars."""
    if isinstance(node, Num):
        return np.broadcast_to(np.float64(node.value), r.shape).copy()
    if isinstance(node, Var):
        return np.asarray(r, dtype=float)
    if isinstance(node, Neg):
        return -reference_eval(node.operand, r)
    if isinstance(node, Exp):
        return np.exp(reference_eval(node.arg, r))
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
    return ops[node.op](reference_eval(node.lhs, r), reference_eval(node.rhs, r))


class TestEvaluationBits:
    # numpy's power squares a scalar or stride-0 exponent of 2 and takes
    # the square root of one of 0.5, which rounds differently from its
    # general loop: every case with such an exponent (r^2 inside the
    # corpus too) catches an exponent passed as a broadcast view
    EXTRA = ["3", "(r-3.5)^2", "2^r", "r^0.5", "r^-1.5", "(2)^-r^2", "exp(2)*r"]

    @pytest.mark.parametrize("text", EXTRA + TestRoundTrip.CORPUS)
    def test_same_bits_as_full_array_constants(self, text):
        r = np.geomspace(1e-6, 200.0, 5001)
        tree = parse_potential(text)
        got = tree(r)
        want = reference_eval(tree, r)
        assert got.dtype == np.float64 and got.shape == r.shape
        assert got.tobytes() == want.tobytes()


class TestTreeShape:
    def test_structure(self):
        tree = parse_potential("2*r + 1")
        assert tree == Bin("+", Bin("*", Num(2.0), Var()), Num(1.0))

    def test_exp_node(self):
        assert parse_potential("exp(-r)") == Exp(Neg(Var()))


class TestErrors:
    def test_unclosed_call_position(self):
        with pytest.raises(PotentialSyntaxError) as err:
            parse_potential("exp(")
        assert err.value.column == 5
        assert err.value.line == 1

    def test_unknown_identifier(self):
        with pytest.raises(PotentialSyntaxError, match="unknown identifier"):
            parse_potential("2*x")

    def test_unbalanced_parens(self):
        with pytest.raises(PotentialSyntaxError, match="expected"):
            parse_potential("(1 + r")

    def test_empty_input(self):
        with pytest.raises(PotentialSyntaxError, match="empty"):
            parse_potential("   ")

    def test_trailing_garbage(self):
        with pytest.raises(PotentialSyntaxError, match="end of input"):
            parse_potential("1 + r) * 2")

    def test_bad_character(self):
        with pytest.raises(PotentialSyntaxError, match="unexpected character"):
            parse_potential("r & 2")

    def test_positions_across_lines(self):
        with pytest.raises(PotentialSyntaxError) as err:
            parse_potential("1 +\n  $")
        assert err.value.line == 2
        assert err.value.column == 3
