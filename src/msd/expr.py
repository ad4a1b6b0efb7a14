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

Every evaluation compiles the tree into a closure over numpy ufuncs, with
the parameters folded into the subtrees that do not depend on ``t`` or the
state. A caller that evaluates one tree many times, such as a stepper that
applies a perturbation map at each step, compiles it once with the private
``_compile`` and calls the closure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .numerics import MsdError

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


class ExprError(MsdError):
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
# Number literals take ASCII digits only: str.isdigit also accepts digits such
# as superscripts, which float() rejects.
_DIGITS = frozenset("0123456789")


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
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in _DIGITS:
                    i = j
                    while i < n and text[i] in _DIGITS:
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
            number = float(value)
            if math.isinf(number):
                raise ParseError("number literal overflows float64", offset)
            return Num(number)
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
# Evaluation. A tree is compiled into a function of (t, u) in which the free
# names are ``t`` and the state components ``u<k>`` = ``u[k - 1]``. Every
# subtree free of them is folded with the parameters when the tree is
# compiled, and a folded exponent decides there which checks on the base can
# fire. A fold that fails becomes a function that fails when called, so each
# node still makes the ufunc calls and checks of a left-to-right walk of the
# tree, and raises the same error at the same point of it.


def _check_finite(node: Expr, value):
    if not np.all(np.isfinite(value)):
        raise DomainError(node, "non-finite result")
    return value


class _Const:
    """A folded subtree's value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _fold(op, *values):
    try:
        return _Const(op(*values))
    except ExprError:
        return lambda t, u: op(*values)


def _unary(op, arg):
    if isinstance(arg, _Const):
        return _fold(op, arg.value)
    return lambda t, u: op(arg(t, u))


def _binary(op, lhs, rhs):
    if isinstance(lhs, _Const):
        a = lhs.value
        if isinstance(rhs, _Const):
            return _fold(op, a, rhs.value)
        return lambda t, u: op(a, rhs(t, u))
    if isinstance(rhs, _Const):
        b = rhs.value
        return lambda t, u: op(lhs(t, u), b)
    return lambda t, u: op(lhs(t, u), rhs(t, u))


def _checked(node: Expr, ufunc, finite: bool, quiet: bool = False):
    """``ufunc`` followed by the node's non-finite check, under
    ``np.errstate(all="ignore")`` when ``quiet``; without ``finite``, the
    bare ufunc."""
    if not finite:
        return ufunc
    if not quiet:
        return lambda *args: _check_finite(node, ufunc(*args))

    def call(*args):
        with np.errstate(all="ignore"):
            return _check_finite(node, ufunc(*args))
    return call


def _call_op(node: Call, finite: bool):
    func, ufunc = node.func, _checked(node, FUNCTIONS[node.func], finite, quiet=True)

    def call(x):
        if func == "log" and np.any(np.asarray(x) <= 0.0):
            raise DomainError(node, "log of a nonpositive value")
        if func == "sqrt" and np.any(np.asarray(x) < 0.0):
            raise DomainError(node, "sqrt of a negative value")
        return ufunc(x)
    return call


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _arithmetic_op(node: Bin, finite: bool):
    ufunc = _checked(node, _ARITHMETIC[node.op], finite)
    if node.op != "/":
        return ufunc

    def divide(a, b):
        if np.any(np.asarray(b) == 0.0):
            raise DomainError(node, "division by zero")
        return ufunc(a, b)
    return divide


def _power_op(node: Bin, finite: bool):
    power = _checked(node, np.power, finite, quiet=True)

    def checked(a, b):
        a_arr = np.asarray(a, dtype=float)
        b_arr = np.asarray(b, dtype=float)
        if np.any(a_arr < 0.0) and np.any(b_arr != np.floor(b_arr)):
            raise DomainError(node, "fractional power of a negative base")
        if np.any((a_arr == 0.0) & (b_arr < 0.0)):
            raise DomainError(node, "zero raised to a negative power")
        return power(a, b)
    return checked


def _fixed_power_op(node: Bin, b, finite: bool):
    """a -> a^b for a folded scalar exponent b, with only the base checks
    that b lets fire."""
    power = _checked(node, np.power, finite, quiet=True)
    b_arr = np.asarray(b, dtype=float)
    fractional = bool(b_arr != np.floor(b_arr))
    negative = bool(b_arr < 0.0)
    if not (fractional or negative):
        return lambda a: power(a, b)

    def checked(a):
        a_arr = np.asarray(a, dtype=float)
        if fractional and np.any(a_arr < 0.0):
            raise DomainError(node, "fractional power of a negative base")
        if negative and np.any(a_arr == 0.0):
            raise DomainError(node, "zero raised to a negative power")
        return power(a, b)
    return checked


def _code(node: Expr, params: dict, free: frozenset, finite: bool):
    """The subtree folded to a :class:`_Const`, or a function of (t, u)."""
    match node:
        case Num(value):
            return _Const(value)
        case Name(ident):
            if ident == "t" and ident in free:
                return lambda t, u: t
            if ident in free:
                k = int(ident[1:]) - 1
                return lambda t, u: u[k]
            if ident in params:
                return _Const(params[ident])

            def unbound(t, u):
                raise UnboundNameError(ident)
            return unbound
        case Call(_, arg):
            return _unary(_call_op(node, finite), _code(arg, params, free, finite))
        case Neg(arg):
            return _unary(operator.neg, _code(arg, params, free, finite))
        case Bin(op, lhs, rhs):
            lhs = _code(lhs, params, free, finite)
            rhs = _code(rhs, params, free, finite)
            if op == "^" and isinstance(rhs, _Const) and np.ndim(rhs.value) == 0:
                return _unary(_fixed_power_op(node, rhs.value, finite), lhs)
            if op == "^":
                return _binary(_power_op(node, finite), lhs, rhs)
            return _binary(_arithmetic_op(node, finite), lhs, rhs)
    raise TypeError(f"not an expression node: {node!r}")


def _compile(node: Expr, params: dict, free=("t",), finite: bool = True):
    """``node`` as a function ``(t, u) -> value``.

    ``free`` lists the names left unbound: ``"t"`` binds the argument ``t``
    and ``"u<k>"`` binds ``u[k - 1]``; every other name takes its value from
    ``params``. With ``finite`` off, a non-finite result is returned rather
    than raised as a :class:`DomainError` (the other domain checks stay), and
    no node sets ``np.errstate``: the caller chooses what overflow reports.
    """
    code = _code(node, params, frozenset(free), finite)
    if isinstance(code, _Const):
        value = code.value
        return lambda t, u: value
    return code


def _as_result(out) -> float | np.ndarray:
    return out if isinstance(out, np.ndarray) else float(out)


def evaluate(node: Expr, t, params: dict | None = None) -> float | np.ndarray:
    """Evaluate at time ``t`` (scalar or array) with ``params`` bound."""
    return _as_result(_compile(node, params or {})(t, ()))


def evaluate_env(node: Expr, env: dict) -> float | np.ndarray:
    """Evaluate with an explicit environment (for state-dependent formulas)."""
    return _as_result(_compile(node, env, free=())(None, ()))


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
