"""Textual divisor-class expressions.

Grammar (whitespace-insensitive)::

    expr  := ['-'] term (('+' | '-') term)*
    term  := '0' | [INT '*'] atom
    atom  := 'K' | 's0'..'s3' | 'r0'..'r3'
           | 'e' '*' '(' pull ')'
           | '(' expr ')'
    pull  := ['-'] pterm (('+' | '-') pterm)*
    pterm := '0' | [INT '*'] patom
    patom := 'Co' | 'So' | '(' pull ')'

INT is an unsigned decimal literal, a run of at most 4300 decimal digits
(the interpreter's int-string limit); all signs come from the
separators, with a single unary minus allowed on the first term of any
(sub)sum.
``e*(a*Co + b*So)`` contributes a*C + b*F; Co and So are only legal
inside that wrapper.  The bare literal ``0`` denotes the zero class so
that every formatted class parses back.

``format`` emits the canonical form: the e*() wrapper first (omitted
when c = f = 0, with Co before So inside), then s0..s3, then r0..r3,
unit coefficients left implicit, zero terms dropped, and ``0`` for the
zero class.  ``parse(format(D)) == D`` for every class D.  The terms
are written by vectors.signed_terms, as the catalog guard's are.
"""

from .errors import BareSectionSymbol, ExprSyntaxError, UnknownSymbol
from .lattice import C, F, R, S, DivisorClass, _make, canonical_class
from .vectors import signed_terms


def _terms(cls: DivisorClass) -> tuple[tuple[int, int], ...]:
    """The nonzero (index, coefficient) pairs of cls.coefficients()."""
    return tuple((i, x) for i, x in enumerate(cls.coefficients()) if x)


_ATOMS = {"K": _terms(canonical_class())}
for _i in range(4):
    _ATOMS[f"s{_i}"] = _terms(S[_i])
    _ATOMS[f"r{_i}"] = _terms(R[_i])
_PULL_ATOMS = {"Co": _terms(C), "So": _terms(F)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tokens, kind "int" | "word" | "op" | "end".

    An op token's text is one of + - * ( ), which no other token's text
    is, so the parser tests op tokens by their text alone."""
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("word", text[i:j], i))
            i = j
        elif ch in "+-*()":
            toks.append(("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent that adds m times each atom's coefficients into
    one list of the ten (c, f, s0..s3, r0..r3), where m is the signed
    product of the multipliers and unary minuses around the atom."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.coefs = [0] * 10

    def expect_op(self, op: str) -> None:
        tok = self.toks[self.i]
        if tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}", tok[2])
        self.i += 1

    def add(self, terms: tuple[tuple[int, int], ...], m: int) -> None:
        coefs = self.coefs
        for i, x in terms:
            coefs[i] += m * x

    # the top-level and pullback sub-grammars differ only in atom set
    def parse_sum(self, pulled: bool, m: int) -> None:
        if self.toks[self.i][1] == "-":
            self.i += 1
            self.parse_term(pulled, -m)
        else:
            self.parse_term(pulled, m)
        while True:
            op = self.toks[self.i][1]
            if op == "+":
                self.i += 1
                self.parse_term(pulled, m)
            elif op == "-":
                self.i += 1
                self.parse_term(pulled, -m)
            else:
                return

    def parse_term(self, pulled: bool, m: int) -> None:
        kind, text, pos = self.toks[self.i]
        if kind == "int":
            nxt = self.toks[self.i + 1]
            if nxt[1] == "*":
                self.i += 2
                self.parse_atom(pulled, m * _literal(text, pos))
                return
            if text == "0":
                self.i += 1
                return
            raise ExprSyntaxError(
                "integer literal must be followed by '*' and an atom",
                nxt[2])
        self.parse_atom(pulled, m)

    def parse_atom(self, pulled: bool, m: int) -> None:
        kind, text, pos = self.toks[self.i]
        if text == "(":
            self.i += 1
            self.parse_sum(pulled, m)
            self.expect_op(")")
            return
        if kind != "word":
            raise ExprSyntaxError("expected a symbol or '('", pos)
        if pulled:
            if text in _PULL_ATOMS:
                self.i += 1
                self.add(_PULL_ATOMS[text], m)
                return
            raise ExprSyntaxError(
                f"only Co and So may appear inside e*(...), got {text!r}",
                pos)
        if text == "e":
            self.i += 1
            self.expect_op("*")
            self.expect_op("(")
            self.parse_sum(True, m)
            self.expect_op(")")
            return
        if text in _ATOMS:
            self.i += 1
            self.add(_ATOMS[text], m)
            return
        if text in _PULL_ATOMS:
            raise BareSectionSymbol(f"{text} is only valid inside e*(...)",
                                    pos)
        raise UnknownSymbol(f"unknown symbol {text!r}", pos)


def _literal(text: str, pos: int) -> int:
    """The value of an INT token; int() refuses a literal longer than
    the interpreter's int-string limit (4300 digits by default)."""
    try:
        return int(text)
    except ValueError:
        raise ExprSyntaxError(
            f"integer literal of {len(text)} digits is too long",
            pos) from None


def parse(text: str) -> DivisorClass:
    if not isinstance(text, str):
        raise TypeError(f"parse takes a str, got {type(text).__name__}")
    parser = _Parser(text)
    parser.parse_sum(False, 1)
    kind, tail, pos = parser.toks[parser.i]
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {tail!r}", pos)
    x = parser.coefs
    return _make(x[0], x[1], (x[2], x[3], x[4], x[5]),
                 (x[6], x[7], x[8], x[9]))


# the symbols of the s and r coefficients, in format's order
_SECTION_SYMBOLS = ("s0", "s1", "s2", "s3", "r0", "r1", "r2", "r3")


def format(dclass: DivisorClass) -> str:
    if not isinstance(dclass, DivisorClass):
        raise TypeError(
            f"format takes a DivisorClass, got {type(dclass).__name__}")
    pull = signed_terms("", ((dclass.c, "Co"), (dclass.f, "So")))
    return signed_terms(f"e*({pull})" if pull else "",
                        zip((*dclass.s, *dclass.r), _SECTION_SYMBOLS)) or "0"
