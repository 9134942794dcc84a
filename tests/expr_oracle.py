"""Reference parser and formatter for ``osculant.expr``.

The parser was the library's before it learned to accumulate
coefficients: tokens are objects, and the recursive descent builds a
``DivisorClass`` for every atom, multiple and partial sum.  The tests
keep it as an independent oracle.  It scans INT runs with
``str.isdigit`` and calls ``int`` unguarded, so a non-decimal digit such
as '\u00b2' in a multiplier, or a literal longer than the interpreter's
int-string limit, makes it raise a bare ``ValueError``.

The formatter was the library's before it rendered in one pass: it
lists (coefficient, symbol) pairs, joins the pullback's pairs into an
``e*(...)`` term of coefficient 1, and joins that with the s and r
pairs (_join).
"""

from osculant.errors import BareSectionSymbol, ExprSyntaxError, UnknownSymbol
from osculant.lattice import C, F, R, S, ZERO, DivisorClass, canonical_class

_ATOMS = {"K": canonical_class()}
for _i in range(4):
    _ATOMS[f"s{_i}"] = S[_i]
    _ATOMS[f"r{_i}"] = R[_i]
_PULL_ATOMS = {"Co": C, "So": F}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind       # "int" | "word" | "op" | "end"
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("word", text[i:j], i))
            i = j
        elif ch in "+-*()":
            toks.append(_Token("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        return self.take()

    # the top-level and pullback sub-grammars differ only in atom set
    def parse_sum(self, pulled: bool) -> DivisorClass:
        total = ZERO
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            total = total - self.parse_term(pulled)
        else:
            total = total + self.parse_term(pulled)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                part = self.parse_term(pulled)
                total = total + part if tok.text == "+" else total - part
            else:
                return total

    def parse_term(self, pulled: bool) -> DivisorClass:
        tok = self.peek()
        if tok.kind == "int":
            nxt = self.toks[self.i + 1]
            if nxt.kind == "op" and nxt.text == "*":
                self.take()
                self.take()
                return int(tok.text) * self.parse_atom(pulled)
            if tok.text == "0":
                self.take()
                return ZERO
            raise ExprSyntaxError(
                "integer literal must be followed by '*' and an atom",
                nxt.pos)
        return self.parse_atom(pulled)

    def parse_atom(self, pulled: bool) -> DivisorClass:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.take()
            inner = self.parse_sum(pulled)
            self.expect_op(")")
            return inner
        if tok.kind != "word":
            raise ExprSyntaxError("expected a symbol or '('", tok.pos)
        if pulled:
            if tok.text in _PULL_ATOMS:
                self.take()
                return _PULL_ATOMS[tok.text]
            raise ExprSyntaxError(
                f"only Co and So may appear inside e*(...), got {tok.text!r}",
                tok.pos)
        if tok.text == "e":
            self.take()
            self.expect_op("*")
            self.expect_op("(")
            inner = self.parse_sum(pulled=True)
            self.expect_op(")")
            return inner
        if tok.text in _ATOMS:
            self.take()
            return _ATOMS[tok.text]
        if tok.text in _PULL_ATOMS:
            raise BareSectionSymbol(
                f"{tok.text} is only valid inside e*(...)", tok.pos)
        raise UnknownSymbol(f"unknown symbol {tok.text!r}", tok.pos)


def parse(text: str) -> DivisorClass:
    parser = _Parser(text)
    result = parser.parse_sum(pulled=False)
    tail = parser.peek()
    if tail.kind != "end":
        raise ExprSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return result


def _join(parts: list[tuple[int, str]]) -> str:
    """Render (coefficient, symbol) pairs, skipping zeros."""
    pieces = []
    for coef, sym in parts:
        if coef == 0:
            continue
        mag = abs(coef)
        body = sym if mag == 1 else f"{mag}*{sym}"
        if not pieces:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(pieces)


def format(dclass: DivisorClass) -> str:
    parts: list[tuple[int, str]] = []
    pull = _join([(dclass.c, "Co"), (dclass.f, "So")])
    if pull:
        parts.append((1, f"e*({pull})"))
    parts += [(dclass.s[i], f"s{i}") for i in range(4)]
    parts += [(dclass.r[i], f"r{i}") for i in range(4)]
    return _join(parts) or "0"
