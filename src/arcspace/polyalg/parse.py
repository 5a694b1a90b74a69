"""Polynomial expression parser and canonical printer.

Grammar: signed integer or rational "p/q" literals, identifiers naming
declared variables, operators + - * ^ and parentheses; ^ takes a nonnegative
integer literal.  An integer literal is a run of the ASCII digits 0-9 only:
other characters that ``str.isdigit`` accepts, such as a superscript 2, are
unexpected characters.  Parsing is total on valid input and reports the character
offset on invalid input.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NegativeExponentError, ParseError, UnknownVariableError
from .orders import GREVLEX, MonomialOrder
from .poly import Poly, monomial_degree
from .varset import VarSet

_OPS = set("+-*^()")
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS or ch == "/":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, varset: VarSet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.varset = varset

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return p

    def expr(self) -> Poly:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        total = self.term().scale(sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                nxt = self.term()
                total = total + nxt if val == "+" else total - nxt
            else:
                return total

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, at = self.peek()
            if kind == "op" and val == "-":
                raise NegativeExponentError(at)
            if kind != "int":
                raise ParseError("expected a nonnegative integer exponent", at)
            self.advance()
            p = p ** int(val)
        return p

    def atom(self) -> Poly:
        kind, val, at = self.advance()
        if kind == "int":
            num = int(val)
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.advance()
                k2, v2, at2 = self.peek()
                if k2 != "int":
                    raise ParseError("expected an integer denominator", at2)
                self.advance()
                if int(v2) == 0:
                    raise ParseError("zero denominator", at2)
                return Poly.const(self.varset, Fraction(num, int(v2)))
            return Poly.const(self.varset, num)
        if kind == "ident":
            if val not in self.varset:
                raise UnknownVariableError(val, at)
            return Poly.variable(self.varset, val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", at)


def parse_poly(text: str, varset: VarSet) -> Poly:
    """Parse an expression into the canonical sparse polynomial."""
    return _Parser(text, varset).parse()


def _monomial_string(mono, varset: VarSet) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(varset[i].name)
        elif e > 1:
            parts.append(f"{varset[i].name}^{e}")
    return "*".join(parts)


def poly_to_string(f: Poly, order: MonomialOrder = GREVLEX) -> str:
    """Serialize in canonical order (descending under the given order).

    Rationals print as "p/q" (or "p"); the output re-parses to an equal Poly.
    """
    if f.is_zero():
        return "0"
    out = []
    for mono in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[mono]
        mstr = _monomial_string(mono, f.varset) if monomial_degree(mono) else ""
        mag = abs(c)
        if not mstr:
            body = str(mag)
        elif mag == 1:
            body = mstr
        else:
            body = f"{mag}*{mstr}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)
