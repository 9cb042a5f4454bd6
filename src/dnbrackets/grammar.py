"""Expression parser for coordinates and jet variables.

Grammar (whitespace insignificant):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' INT)?
    base   := INT | VAR | '(' expr ')'
    VAR    := 'u' INDEX ('_' ORDER)?
    INT    := [0-9]+

so u3 is the coordinate u^3 and u3_2 is the jet variable u^{3,2} (an order
of 0 also means the plain coordinate).  Rationals are spelled with '/',
which the left-associative term rule evaluates identically to a fraction
literal.  Division requires the divisor to be free of jet variables.
"""

from __future__ import annotations

import re

from .diffpoly import DiffPoly
from .errors import ParseError
from .scalar import Scalar, _printed_bits, _term_count

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<var>u(?P<index>\d+)(?:_(?P<order>\d+))?)
      | (?P<int>\d+)
      | (?P<op>[-+*/^()])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("var") is not None:
            start = m.start("var")
            index = int(m.group("index"))
            if index < 1:
                raise ParseError("coordinate index must be >= 1", start)
            order = m.group("order")
            tokens.append(("var", (index, int(order) if order else 0), start))
        elif m.group("int") is not None:
            if len(m.group("int")) > MAX_DIGITS:
                raise ParseError(f"integer too large: over {MAX_DIGITS} digits", m.start("int"))
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


# A power of a sum may have at most this many products in its expansion
# (_power_terms).  Every expression in the worked examples has at most 6,
# and (1 + u1)^255, at the bound, parses in a fifth of a second.
MAX_POWER_TERMS = 256

# A product or quotient of two factors may have at most this many products
# of their terms (_size of one times _size of the other).  Every expression
# in the worked examples and tests has at most 12, and (1 + u1)^255 *
# (1 + u1)^15, at the bound, parses in about 0.3 s.  Without the bound each
# further factor of (1 + u1)^255 * (1 + u1)^255 * ... multiplies the time.
MAX_PRODUCT_TERMS = 4096


# An integer may have at most this many decimal digits: a literal, and each one
# the value of a '+', '-', '*', '/' or '^' prints.  The worked examples and
# tests use at most 3 digits; Python refuses to print more than 4300.
MAX_DIGITS = 1000


def _bound_digits(value: DiffPoly, pos: int, e: int = 1) -> None:
    """Raise a ParseError at pos if an integer that value prints may have over MAX_DIGITS digits,
    or, for e > 1, one that value^e prints surely has: a b-bit integer has at most
    b log10(2) + 1 digits, and its e-th power at least (b - 1) e log10(2) + 1."""
    bits = max(map(_printed_bits, value.terms.values()), default=1)
    if (bits if e == 1 else (bits - 1) * e) * 30103 // 100000 + 1 > MAX_DIGITS:
        raise ParseError(f"integer too large: over {MAX_DIGITS} digits", pos)


def _size(value: DiffPoly) -> int:
    """The number of terms the size bounds count.

    Every term of every coefficient's numerator and denominator counts, less
    one per jet monomial, so that a quotient of monomials, whose power is
    exponent multiplication, has size 1.
    """
    return sum(_term_count(c) - 1 for c in value.terms.values())


def _power_terms(value: DiffPoly, e: int) -> int:
    """C(t + e - 1, e), the number of products in the expansion of a t-term sum to the e.

    t is _size(value).  The count is only computed until it passes
    MAX_POWER_TERMS: C(m, i) grows with i for 2i <= m.
    """
    t = _size(value)
    count = 1
    for i in range(1, min(t - 1, e) + 1):
        count = count * (t + e - i) // i
        if count > MAX_POWER_TERMS:
            break
    return count


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self):
        return self.tokens[self.at]

    def advance(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> DiffPoly:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return value

    def expr(self) -> DiffPoly:
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.advance()
        value = self.term()
        if negate:
            value = -value
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
                _bound_digits(value, pos)
            else:
                return value

    def term(self) -> DiffPoly:
        value = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if _size(value) * _size(rhs) > MAX_PRODUCT_TERMS:
                    raise ParseError(f"product too large: over {MAX_PRODUCT_TERMS} products", pos)
                if val == "/":
                    if not rhs.is_scalar():
                        raise ParseError("cannot divide by a jet expression", pos)
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    rhs = Scalar.one() / rhs.to_scalar()
                value = value * rhs
                _bound_digits(value, pos)
            else:
                return value

    def factor(self) -> DiffPoly:
        value = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, e, pos = self.peek()
            if kind != "int":
                raise ParseError("expected an integer exponent", pos)
            self.advance()
            if _power_terms(value, e) > MAX_POWER_TERMS:
                raise ParseError(f"power too large: over {MAX_POWER_TERMS} products", pos)
            _bound_digits(value, pos, e)
            value = value**e
            _bound_digits(value, pos)
        return value

    def base(self) -> DiffPoly:
        kind, val, pos = self.advance()
        if kind == "int":
            return DiffPoly.from_fraction(val)
        if kind == "var":
            index, order = val
            return DiffPoly.jet(index, order)
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a number, variable, or parenthesis", pos)


def parse_expression(text: str) -> DiffPoly:
    """Parse text into a DiffPoly (jet variables allowed, thetas are not)."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:  # parentheses nested deeper than the interpreter's stack allows
        raise ParseError("parentheses nested too deeply", parser.peek()[2]) from None


def parse_scalar(text: str) -> Scalar:
    """Parse text into a Scalar; jet variables of positive order are rejected."""
    value = parse_expression(text)
    if not value.is_scalar():
        raise ParseError("jet variables are not allowed here", 0)
    return value.to_scalar()
