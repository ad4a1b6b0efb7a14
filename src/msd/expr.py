"""Coefficient expression language: parsing, evaluation, serialization.

Matrix entries of the models are small closed-form expressions in the time
variable ``t`` and named parameters (plus state names like ``u1`` for
perturbation formulas). The grammar is deliberately tiny:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
There is no implicit multiplication; adjacency is a syntax error. The only
recognized functions are sin, cos, tan, exp, log, sqrt, abs.

Evaluation is vectorized: ``t`` (or any bound name) may be a numpy array.
Domain violations (log of a nonpositive value, sqrt of a negative, division
by zero, fractional power of a negative base, overflow to non-finite) raise
:class:`DomainError` naming the offending subexpression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

# Precedence levels used by the parser and the serializer.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Malformed source text. ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundNameError(ExprError):
    """A parameter appears in the expression but not in the environment."""

    def __init__(self, name: str):
        super().__init__(f"unbound parameter '{name}'")
        self.name = name


class DomainError(ExprError):
    """Evaluation left the domain (or overflowed) inside ``subexpr``."""

    def __init__(self, subexpr: "Expr", detail: str):
        super().__init__(f"domain error in '{serialize(subexpr)}': {detail}")
        self.subexpr = subexpr
        self.detail = detail


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


Expr = Num | Name | Call | Neg | Bin


# ---------------------------------------------------------------------------
# Tokenizer


_SYMBOLS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, offset) triples. Kinds: num, name, sym, end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append(("sym", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
                else:
                    raise ParseError("malformed exponent in number", i)
            tokens.append(("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent following the grammar above)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, value, offset = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected '{sym}'", offset)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "*/":
                self.advance()
                node = Bin(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "sym" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", offset)
                self.advance()
                arg = self.expr()
                self.expect_sym(")")
                return Call(value, arg)
            return Name(value)
        if kind == "sym" and value == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected {value!r}", offset)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Serialization. Emits the minimal-parenthesis canonical form; spaces around
# + and - only, so gallery-style strings reparse byte-identically.


def _format_number(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ExprError("cannot serialize a non-finite literal")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _prec(node: Expr) -> int:
    match node:
        case Bin(op="+") | Bin(op="-"):
            return _PREC_ADD
        case Bin(op="*") | Bin(op="/"):
            return _PREC_MUL
        case Neg():
            return _PREC_NEG
        case Bin(op="^"):
            return _PREC_POW
        case _:
            return _PREC_ATOM


def serialize(node: Expr) -> str:
    """Render the tree as source text; ``parse(serialize(x)) == x``."""
    match node:
        case Num(value):
            if value < 0:
                # Negative literals only arise from programmatic trees.
                return f"(-{_format_number(-value)})"
            return _format_number(value)
        case Name(ident):
            return ident
        case Call(func, arg):
            return f"{func}({serialize(arg)})"
        case Neg(arg):
            inner = serialize(arg)
            if _prec(arg) < _PREC_POW:
                inner = f"({inner})"
            return f"-{inner}"
        case Bin("^", lhs, rhs):
            left = serialize(lhs)
            if _prec(lhs) <= _PREC_POW:
                left = f"({left})"
            right = serialize(rhs)
            if _prec(rhs) < _PREC_NEG:  # anything but ^, unary -, atoms
                right = f"({right})"
            return f"{left}^{right}"
        case Bin(op, lhs, rhs):
            my = _PREC_ADD if op in "+-" else _PREC_MUL
            left = serialize(lhs)
            if _prec(lhs) < my:
                left = f"({left})"
            right = serialize(rhs)
            if _prec(rhs) <= my:
                right = f"({right})"
            gap = " " if op in "+-" else ""
            return f"{left}{gap}{op}{gap}{right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation


def _check_finite(node: Expr, value):
    if not np.all(np.isfinite(value)):
        raise DomainError(node, "non-finite result")
    return value


def _eval(node: Expr, env: dict) -> float | np.ndarray:
    match node:
        case Num(value):
            return value
        case Name(ident):
            try:
                return env[ident]
            except KeyError:
                raise UnboundNameError(ident) from None
        case Call(func, arg):
            x = _eval(arg, env)
            if func == "log" and np.any(np.asarray(x) <= 0.0):
                raise DomainError(node, "log of a nonpositive value")
            if func == "sqrt" and np.any(np.asarray(x) < 0.0):
                raise DomainError(node, "sqrt of a negative value")
            with np.errstate(all="ignore"):
                return _check_finite(node, FUNCTIONS[func](x))
        case Neg(arg):
            return -_eval(arg, env)
        case Bin(op, lhs, rhs):
            a = _eval(lhs, env)
            b = _eval(rhs, env)
            if op == "+":
                return _check_finite(node, np.add(a, b))
            if op == "-":
                return _check_finite(node, np.subtract(a, b))
            if op == "*":
                return _check_finite(node, np.multiply(a, b))
            if op == "/":
                if np.any(np.asarray(b) == 0.0):
                    raise DomainError(node, "division by zero")
                return _check_finite(node, np.divide(a, b))
            if op == "^":
                a_arr = np.asarray(a, dtype=float)
                b_arr = np.asarray(b, dtype=float)
                if np.any(a_arr < 0.0) and np.any(b_arr != np.floor(b_arr)):
                    raise DomainError(node, "fractional power of a negative base")
                if np.any((a_arr == 0.0) & (b_arr < 0.0)):
                    raise DomainError(node, "zero raised to a negative power")
                with np.errstate(all="ignore"):
                    return _check_finite(node, np.power(a, b))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Expr, t, params: dict | None = None) -> float | np.ndarray:
    """Evaluate at time ``t`` (scalar or array) with ``params`` bound."""
    env = dict(params) if params else {}
    env["t"] = t
    out = _eval(node, env)
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def evaluate_env(node: Expr, env: dict) -> float | np.ndarray:
    """Evaluate with an explicit environment (for state-dependent formulas)."""
    out = _eval(node, env)
    if isinstance(out, np.ndarray):
        return out
    return float(out)


# ---------------------------------------------------------------------------
# Tree utilities used by the model layer


def free_names(node: Expr) -> set[str]:
    """All identifiers in the tree, including ``t``."""
    match node:
        case Num():
            return set()
        case Name(ident):
            return {ident}
        case Call(_, arg) | Neg(arg):
            return free_names(arg)
        case Bin(_, lhs, rhs):
            return free_names(lhs) | free_names(rhs)
    raise TypeError(f"not an expression node: {node!r}")


def is_zero(node: Expr) -> bool:
    return isinstance(node, Num) and node.value == 0.0


ZERO = Num(0.0)
ONE = Num(1.0)


def add(a: Expr, b: Expr) -> Expr:
    """Symbolic sum with trivial-zero folding."""
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    return Bin("-", a, b)


def neg(a: Expr) -> Expr:
    if is_zero(a):
        return ZERO
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    """Symbolic product with zero/one folding."""
    if is_zero(a) or is_zero(b):
        return ZERO
    if isinstance(a, Num) and a.value == 1.0:
        return b
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Bin("*", a, b)
