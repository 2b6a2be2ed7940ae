"""Formulas, sequents, and their plain-text notation.

Operators: ``&`` meet, ``|`` join, ``.`` product, ``\\`` and ``/`` residuals,
postfix ``*`` star, constants ``0`` and ``1``, turnstile ``|-``.  Precedence,
tightest first: ``*``, ``.``, ``&``/``|``, ``\\``/``/``.  Product associates
to the left, mixed ``&``/``|`` chains associate to the left, residuals are
non-associative and need parentheses when chained.  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable


class Formula:
    """Base class of formula nodes.  All nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Zero(Formula):
    pass


@dataclass(frozen=True)
class One(Formula):
    pass


@dataclass(frozen=True)
class Meet(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Join(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Prod(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class LRes(Formula):
    """Left residual, written ``left \\ right``."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class RRes(Formula):
    """Right residual, written ``left / right``."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Star(Formula):
    body: Formula


_BINARY = (Meet, Join, Prod, LRes, RRes)


def variables(f: Formula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, _BINARY):
        return variables(f.left) | variables(f.right)
    if isinstance(f, Star):
        return variables(f.body)
    return set()


@dataclass(frozen=True)
class Sequent:
    """A sequent ``antecedent |- succedent``.

    Occurrence positions run over -1, 0, ..., width-1; position -1 is the
    succedent, the rest index the antecedent left to right.
    """

    antecedent: tuple[Formula, ...]
    succedent: Formula

    @property
    def width(self) -> int:
        return len(self.antecedent)

    def formula_at(self, pos: int) -> Formula:
        if pos == -1:
            return self.succedent
        if 0 <= pos < len(self.antecedent):
            return self.antecedent[pos]
        raise PositionError(f"position {pos} out of range for sequent of width {self.width}")

    def positions(self) -> range:
        """Antecedent positions only (the left-hand side)."""
        return range(len(self.antecedent))

    def __str__(self) -> str:
        return print_sequent(self)


class PositionError(ValueError):
    pass


def power_seq(alpha: Formula, n: int) -> tuple[Formula, ...]:
    """The sequence of n copies of alpha (n = 0 gives the empty sequence)."""
    if n < 0:
        raise ValueError("power requires n >= 0")
    return (alpha,) * n


def power_formula(alpha: Formula, n: int) -> Formula:
    """The n-th power as a single formula: right-nested with a trailing 1.

    power_formula(a, 0) = 1 and power_formula(a, n) = a . power_formula(a, n-1),
    so every positive power splits as alpha times the next smaller power.
    """
    if n < 0:
        raise ValueError("power requires n >= 0")
    out: Formula = One()
    for _ in range(n):
        out = Prod(alpha, out)
    return out


# ---------------------------------------------------------------------------
# Tokenizer


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_SYMBOLS = (
    ("|-", "TURNSTILE"),
    ("&", "AND"),
    ("|", "OR"),
    (".", "DOT"),
    ("\\", "BSLASH"),
    ("/", "SLASH"),
    ("*", "STAR"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    (",", "COMMA"),
    ("0", "ZERO"),
    ("1", "ONE"),
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(kind, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one function per precedence level)


class _Parser:
    def __init__(self, tokens: list[_Token], atom_hook: Callable[[str], Formula]):
        self.tokens = tokens
        self.pos = 0
        self.atom_hook = atom_hook

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col, expected)
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        left = self.sum()
        tok = self.peek()
        if tok.kind == "BSLASH":
            self.pos += 1
            return LRes(left, self.sum())
        if tok.kind == "SLASH":
            self.pos += 1
            return RRes(left, self.sum())
        return left

    def sum(self) -> Formula:
        out = self.prod()
        while self.peek().kind in ("AND", "OR"):
            op = self.peek().kind
            self.pos += 1
            right = self.prod()
            out = Meet(out, right) if op == "AND" else Join(out, right)
        return out

    def prod(self) -> Formula:
        out = self.star()
        while self.peek().kind == "DOT":
            self.pos += 1
            out = Prod(out, self.star())
        return out

    def star(self) -> Formula:
        out = self.atom()
        while self.peek().kind == "STAR":
            self.pos += 1
            out = Star(out)
        return out

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.pos += 1
            return self.atom_hook(tok.text)
        if tok.kind == "ZERO":
            self.pos += 1
            return Zero()
        if tok.kind == "ONE":
            self.pos += 1
            return One()
        if tok.kind == "LPAREN":
            self.pos += 1
            inner = self.formula()
            self.take("RPAREN", (")",))
            return inner
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col,
            ("identifier", "0", "1", "("),
        )

    def sequent(self) -> Sequent:
        antecedent: list[Formula] = []
        if self.peek().kind != "TURNSTILE":
            antecedent.append(self.formula())
            while self.peek().kind == "COMMA":
                self.pos += 1
                antecedent.append(self.formula())
        self.take("TURNSTILE", ("|-",))
        succedent = self.formula()
        return Sequent(tuple(antecedent), succedent)


def parse_formula(text: str, atom_hook: Callable[[str], Formula] = Var) -> Formula:
    p = _Parser(_tokenize(text), atom_hook)
    out = p.formula()
    p.take("EOF", ("end of input",))
    return out


def parse_sequent(text: str, atom_hook: Callable[[str], Formula] = Var) -> Sequent:
    p = _Parser(_tokenize(text), atom_hook)
    out = p.sequent()
    p.take("EOF", ("end of input",))
    return out


def parse_sequent_file(text: str) -> list[Sequent]:
    """One sequent per non-empty line; ``#`` comments ignored."""
    out = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            out.append(parse_sequent(stripped))
    return out


# ---------------------------------------------------------------------------
# Printer.  Levels match the grammar: residual 0, sum 1, product 2, star 3,
# atom 4.  A child is parenthesized when its level is below what the slot
# requires.

_LEVEL_RES, _LEVEL_SUM, _LEVEL_PROD, _LEVEL_STAR, _LEVEL_ATOM = range(5)


def _level(f: Formula) -> int:
    if isinstance(f, (LRes, RRes)):
        return _LEVEL_RES
    if isinstance(f, (Meet, Join)):
        return _LEVEL_SUM
    if isinstance(f, Prod):
        return _LEVEL_PROD
    if isinstance(f, Star):
        return _LEVEL_STAR
    return _LEVEL_ATOM


def _print(f: Formula, min_level: int) -> str:
    if isinstance(f, Var):
        body = f.name
    elif isinstance(f, Zero):
        body = "0"
    elif isinstance(f, One):
        body = "1"
    elif isinstance(f, Star):
        body = _print(f.body, _LEVEL_STAR) + "*"
    elif isinstance(f, Prod):
        body = _print(f.left, _LEVEL_PROD) + " . " + _print(f.right, _LEVEL_STAR)
    elif isinstance(f, (Meet, Join)):
        op = " & " if isinstance(f, Meet) else " | "
        body = _print(f.left, _LEVEL_SUM) + op + _print(f.right, _LEVEL_PROD)
    elif isinstance(f, LRes):
        body = _print(f.left, _LEVEL_PROD) + " \\ " + _print(f.right, _LEVEL_PROD)
    elif isinstance(f, RRes):
        body = _print(f.left, _LEVEL_PROD) + " / " + _print(f.right, _LEVEL_PROD)
    else:
        raise TypeError(f"not a printable formula: {f!r}")
    if _level(f) < min_level:
        return "(" + body + ")"
    return body


def print_formula(f: Formula) -> str:
    return _print(f, _LEVEL_RES)


def print_sequent(s: Sequent) -> str:
    if not s.antecedent:
        return "|- " + print_formula(s.succedent)
    lhs = ", ".join(print_formula(f) for f in s.antecedent)
    return lhs + " |- " + print_formula(s.succedent)
