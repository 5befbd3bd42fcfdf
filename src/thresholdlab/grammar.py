"""Textual grammar for structure expressions.

    expr := "kofn(" INT "," INT ")" | "series(" INT ")" | "parallel(" INT ")"
          | "consec(" INT "," INT ["," ("circular"|"linear")] ")"
          | "prod(" expr "," expr ")"
          | "explicit(" INT ";" BITSTRING ("," BITSTRING)* ")"

``series(n)`` is ``kofn(1,n)`` and ``parallel(n)`` is ``kofn(n,n)``.
Whitespace is insignificant.  A BITSTRING is n characters of 0/1, one per
coordinate.  ``prod`` nests at most ``MAX_DEPTH`` deep, which keeps the
recursive-descent parser well inside the interpreter's recursion limit; a
parsed product is a flat stage chain, so nothing after parsing recurses
per level.  ``format_expr`` writes a chain right-nested.  Parse errors
carry the byte offset of the offending character.
"""

from __future__ import annotations

from .structures import (
    Consecutive,
    Explicit,
    KOutOfN,
    Product,
    StructureError,
    StructureExpr,
)


MAX_DEPTH = 256


class ParseError(ValueError):
    """Malformed expression text; ``offset`` points at the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise ParseError(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise ParseError(f"expected a name, found {found!r}", start)
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise ParseError(f"expected an integer, found {found!r}", start)
        return int(self.text[start : self.pos])

    def bitstring(self, n: int) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "01":
            self.pos += 1
        s = self.text[start : self.pos]
        if len(s) != n:
            raise ParseError(f"expected {n} bits, found {len(s)}", start)
        return s

    def expr(self) -> StructureExpr:
        start = self.pos
        name = self.word()
        self.expect("(")
        try:
            if name == "kofn":
                k = self.integer()
                self.expect(",")
                n = self.integer()
                out = KOutOfN(k, n)
            elif name == "series":
                out = KOutOfN(1, self.integer())
            elif name == "parallel":
                n = self.integer()
                out = KOutOfN(n, n)
            elif name == "consec":
                k = self.integer()
                self.expect(",")
                n = self.integer()
                topology = "circular"
                if self.peek() == ",":
                    self.expect(",")
                    word_start = self.pos
                    topology = self.word()
                    if topology not in ("circular", "linear"):
                        raise ParseError(
                            f"expected 'circular' or 'linear', found {topology!r}",
                            word_start,
                        )
                out = Consecutive(k, n, topology)
            elif name == "prod":
                if self.depth == MAX_DEPTH:
                    raise ParseError(f"prod nested deeper than {MAX_DEPTH}", start)
                self.depth += 1
                a = self.expr()
                self.expect(",")
                b = self.expr()
                self.depth -= 1
                out = Product(a, b)
            elif name == "explicit":
                n = self.integer()
                self.expect(";")
                members = [self.bitstring(n)]
                while self.peek() == ",":
                    self.expect(",")
                    members.append(self.bitstring(n))
                out = Explicit(n, frozenset(members))
            else:
                raise ParseError(f"unknown structure {name!r}", start)
        except StructureError as exc:
            raise ParseError(str(exc), start) from exc
        self.expect(")")
        return out


def parse_expr(text: str) -> StructureExpr:
    """Parse an expression; raises ParseError with a byte offset on failure."""
    p = _Parser(text)
    out = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"trailing input {text[p.pos:]!r}", p.pos)
    return out


def format_expr(expr: StructureExpr) -> str:
    """Canonical text for a structure; reparsing yields an equal structure."""
    if isinstance(expr, KOutOfN):
        if expr.k == 1 and expr.n > 1:
            return f"series({expr.n})"
        if expr.k == expr.n and expr.n > 1:
            return f"parallel({expr.n})"
        return f"kofn({expr.k},{expr.n})"
    if isinstance(expr, Consecutive):
        return f"consec({expr.k},{expr.n},{expr.topology})"
    if isinstance(expr, Product):
        *inner, text = map(format_expr, expr.stages)
        for stage_text in reversed(inner):
            text = f"prod({stage_text},{text})"
        return text
    if isinstance(expr, Explicit):
        bits = sorted("".join(map(str, m)) for m in expr.members)
        return f"explicit({expr.n};{','.join(bits)})"
    raise TypeError(f"cannot format {expr!r}")
