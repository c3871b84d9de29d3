"""Parser and evaluator for short-range radial potential expressions.

Grammar (number literals, the radial variable ``r``, ``+ - * / ^``, unary
minus, ``exp(...)``, parentheses)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | 'r' | 'exp' '(' expr ')' | '(' expr ')'

Parsing yields an immutable expression tree; evaluation is pure and works
elementwise on numpy arrays. ``parse_potential(expr.to_text())`` returns
a tree equal to ``expr``.

``expr(r)`` has the shape of r. Inside the tree a subexpression free of
r is a float64 scalar, and only the root broadcasts a constant result to
r's shape; + - * / and exp give the same bits on a scalar as on a full
array. The operands of ``^`` are the exception: each is a full float64
array of r's shape, because numpy's ``power`` takes a fast path for a
scalar or stride-0 exponent (a square for 2, a square root for 0.5) that
rounds differently from its general loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PotentialSyntaxError


class PotentialExpr:
    """Base class of expression-tree nodes."""

    def __call__(self, r):
        value = self._eval(r)
        return _full(value, r) if np.ndim(r) else value

    def _eval(self, r):
        """The value at r: a float64 scalar where it does not depend on r."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    # Lower number binds looser; used to parenthesize children on output.
    _PREC = 0


@dataclass(frozen=True)
class Num(PotentialExpr):
    value: float
    _PREC = 9

    def _eval(self, r):
        return np.float64(self.value)

    def to_text(self) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e16:
            return repr(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Var(PotentialExpr):
    _PREC = 9

    def _eval(self, r):
        return np.asarray(r, dtype=float) if np.ndim(r) else float(r)

    def to_text(self) -> str:
        return "r"


@dataclass(frozen=True)
class Neg(PotentialExpr):
    operand: PotentialExpr
    _PREC = 3

    def _eval(self, r):
        return -self.operand._eval(r)

    def to_text(self) -> str:
        inner = self.operand.to_text()
        if self.operand._PREC < Neg._PREC:
            inner = f"({inner})"
        return f"-{inner}"


def _full(value, r):
    """``value`` as a full float64 array of r's shape, unless it already
    is an array (one that depends on r has that shape)."""
    return np.full(np.shape(r), value) if np.ndim(value) == 0 else value


_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


@dataclass(frozen=True)
class Bin(PotentialExpr):
    op: str
    lhs: PotentialExpr
    rhs: PotentialExpr

    @property
    def _PREC(self):  # type: ignore[override]
        return _BIN_PREC[self.op]

    def _eval(self, r):
        a = self.lhs._eval(r)
        b = self.rhs._eval(r)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        if np.ndim(r):
            a, b = _full(a, r), _full(b, r)
        return np.power(a, b)

    def to_text(self) -> str:
        p = self._PREC
        lt = self.lhs.to_text()
        rt = self.rhs.to_text()
        # Wrap whichever side would re-parse into a different tree: for the
        # left-associative ops that is an equal-precedence right child, for
        # '^' (right-associative) an equal-precedence left child.
        if self.op == "^":
            if self.lhs._PREC <= p:
                lt = f"({lt})"
            if self.rhs._PREC < p:
                rt = f"({rt})"
        else:
            if self.lhs._PREC < p:
                lt = f"({lt})"
            if self.rhs._PREC <= p:
                rt = f"({rt})"
        return f"{lt} {self.op} {rt}" if self.op in "+-" else f"{lt}{self.op}{rt}"


@dataclass(frozen=True)
class Exp(PotentialExpr):
    arg: PotentialExpr
    _PREC = 9

    def _eval(self, r):
        return np.exp(self.arg._eval(r))

    def to_text(self) -> str:
        return f"exp({self.arg.to_text()})"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise PotentialSyntaxError(f"malformed number {lit!r}", line, start_col)
            tokens.append(_Token("num", lit, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise PotentialSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.take()
        raise PotentialSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.line,
            tok.column,
            expected=repr(op),
        )

    def parse_expr(self) -> PotentialExpr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> PotentialExpr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> PotentialExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> PotentialExpr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            return Bin("^", base, self.parse_factor())
        return base

    def parse_atom(self) -> PotentialExpr:
        tok = self.take()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "r":
                return Var()
            if tok.text == "exp":
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Exp(arg)
            raise PotentialSyntaxError(f"unknown identifier {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise PotentialSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.line,
            tok.column,
            expected="a number, 'r', 'exp(', or '('",
        )


def parse_potential(text: str) -> PotentialExpr:
    """Parse a potential expression; raises PotentialSyntaxError with
    line/column on malformed input."""
    if not text or not text.strip():
        raise PotentialSyntaxError("empty input", 1, 1)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise PotentialSyntaxError(f"unexpected {tail.text!r}", tail.line, tail.column, expected="end of input")
    return node
