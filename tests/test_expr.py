"""Expression language: parsing, precedence, round-trips, evaluation."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msd import expr
from msd.expr import Bin, Call, Name, Neg, Num
from tree_walk import walk


def ev(text, t=1.0, **params):
    return expr.evaluate(expr.parse(text), t, params)


# ---------------------------------------------------------------------------
# Precedence and shape


def test_power_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0


def test_power_is_right_associative():
    assert ev("2^0.5^2") == pytest.approx(2.0 ** (0.5 ** 2), rel=1e-15)
    assert ev("2^-3") == 0.125


def test_left_associative_chains():
    assert ev("10 - 4 - 3") == 3.0
    assert ev("24 / 4 / 2") == 3.0


def test_unary_minus_in_products():
    tree = expr.parse("-a*b")
    assert tree == Bin("*", Neg(Name("a")), Name("b"))
    assert expr.evaluate(tree, 0.0, {"a": 2.0, "b": 3.0}) == -6.0


def test_no_implicit_multiplication():
    with pytest.raises(expr.ParseError) as info:
        expr.parse("sin t")
    assert info.value.offset == 4
    with pytest.raises(expr.ParseError) as info:
        expr.parse("3 5")
    assert info.value.offset == 2


def test_parse_error_offsets():
    with pytest.raises(expr.ParseError) as info:
        expr.parse("sin(")
    assert info.value.offset == 4
    with pytest.raises(expr.ParseError) as info:
        expr.parse("(a + b")
    assert info.value.offset == 6
    with pytest.raises(expr.ParseError):
        expr.parse("")


def test_unknown_function_rejected():
    with pytest.raises(expr.ParseError, match="unknown function 'sinh'"):
        expr.parse("sinh(t)")


# ---------------------------------------------------------------------------
# Evaluation oracle: the time-varying drift entry used throughout the
# model gallery, pinned at a point where sin(log t) = 1 exactly.


def test_gallery_drift_entry_value():
    tree = expr.parse("-a - b*(sin(log(t)) + cos(log(t)))")
    value = expr.evaluate(tree, math.exp(math.pi / 2), {"a": 1.0, "b": 2.0})
    assert value == pytest.approx(-3.0, abs=1e-12)


def test_unbound_parameter_is_named():
    with pytest.raises(expr.UnboundNameError, match="'b'"):
        ev("a + b", a=1.0)


@pytest.mark.parametrize(
    "text,detail",
    [
        ("log(t - 5)", "log of a nonpositive value"),
        ("sqrt(0 - t)", "sqrt of a negative value"),
        ("1/(t - 1)", "division by zero"),
        ("(-2)^0.5", "fractional power of a negative base"),
        ("0^-1", "zero raised to a negative power"),
        ("exp(exp(exp(t + 100)))", "non-finite result"),
    ],
)
def test_domain_errors(text, detail):
    with pytest.raises(expr.DomainError, match=detail):
        ev(text)


def test_domain_error_names_subexpression():
    with pytest.raises(expr.DomainError) as info:
        ev("1 + log(0 - t)")
    assert expr.serialize(info.value.subexpr) == "log(0 - t)"


# ---------------------------------------------------------------------------
# Serialization round-trips


@pytest.mark.parametrize(
    "text",
    [
        "-a - b*(sin(log(t)) + cos(log(t)))",
        "-a + b*(sin(log(t)) + cos(log(t)))",
        "1/(lambda + 1)",
        "u1^(lambda + 1)",
        "a - (b - c)",
        "a - b - c",
        "-(a*b)",
        "(a^b)^c",
        "a^b^c",
        "2^-3",
        "-a^2",
        "0.5",
        "1e-05",
    ],
)
def test_serialize_is_stable(text):
    tree = expr.parse(text)
    rendered = expr.serialize(tree)
    assert rendered == text
    assert expr.parse(rendered) == tree


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.sampled_from(["t", "a", "b", "x_1"]).map(Name),
)


def _wrap(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda v: Bin(v[0], v[1], v[2])
        ),
        st.tuples(children, st.floats(min_value=0.0, max_value=4.0, allow_nan=False)).map(
            lambda v: Bin("^", v[0], Num(v[1]))
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(sorted(expr.FUNCTIONS)), children).map(
            lambda v: Call(v[0], v[1])
        ),
    )


_trees = st.recursive(_leaf, _wrap, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_parse_serialize_roundtrip(tree):
    assert expr.parse(expr.serialize(tree)) == tree


# ---------------------------------------------------------------------------
# Agreement with an independent evaluator: transpile the canonical form to
# Python source (only ^ -> **) and let the interpreter compute it.


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Num(round(rng.uniform(0.0, 8.0), 4))
        return Name(rng.choice(["t", "p", "q"]))
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        fn = rng.choice(["sin", "cos", "tan", "abs"])
        return Call(fn, _random_tree(rng, depth - 1))
    if kind == 2:
        # Keep log/sqrt/exp arguments safely inside their domains.
        inner = Call("abs", _random_tree(rng, depth - 1))
        fn = rng.choice(["log", "sqrt"])
        return Call(fn, Bin("+", inner, Num(1.0)))
    if kind == 3:
        safe = Bin("+", Call("abs", _random_tree(rng, depth - 1)), Num(0.5))
        return Bin("/", _random_tree(rng, depth - 1), safe)
    if kind == 4:
        base = Bin("+", Call("abs", _random_tree(rng, depth - 1)), Num(0.25))
        return Bin("^", base, Num(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])))
    op = rng.choice(["+", "-", "*"])
    return Bin(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


_PY_ENV = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}


def test_agrees_with_python_eval_on_random_trees():
    rng = random.Random(20240817)
    checked = 0
    while checked < 10_000:
        tree = _random_tree(rng, depth=4)
        source = expr.serialize(tree)
        env = {"t": rng.uniform(0.1, 10.0), "p": rng.uniform(-3.0, 3.0),
               "q": rng.uniform(-3.0, 3.0)}
        try:
            reference = eval(source.replace("^", "**"), {"__builtins__": {}}, {**_PY_ENV, **env})
        except OverflowError:
            continue
        if not math.isfinite(reference) or abs(reference) > 1e300:
            continue
        ours = expr.evaluate(tree, env["t"], {"p": env["p"], "q": env["q"]})
        assert ours == pytest.approx(reference, rel=1e-14, abs=1e-12), source
        checked += 1


# ---------------------------------------------------------------------------
# The compiled evaluator against the frozen tree walk: the same bits, and the
# same error at the same node.


def _outcome(evaluate):
    try:
        return evaluate(), None
    except expr.ExprError as exc:
        return None, (type(exc), str(exc))


def _assert_same(ours, reference, source):
    (value, error), (ref_value, ref_error) = ours, reference
    assert error == ref_error, source
    if error is None:
        value, ref_value = np.asarray(value), np.asarray(ref_value, dtype=float)
        assert value.shape == ref_value.shape, source
        assert value.tobytes() == ref_value.tobytes(), source


def _wild_tree(rng, depth):
    """Unguarded trees over t, parameters and state names: domain errors,
    folded parameter subtrees and constant exponents all occur."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.35:
            return Num(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 1e200]))
        return Name(rng.choice(["t", "p", "q", "u1", "u2", "u1", "u2"]))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(_wild_tree(rng, depth - 1))
    if kind == 1:
        return Call(rng.choice(sorted(expr.FUNCTIONS)), _wild_tree(rng, depth - 1))
    if kind == 2:
        exponent = rng.choice([Num(rng.choice([2.0, 3.0, 0.5, 1.5])), Name("p"),
                               Neg(Num(2.0)), Neg(Name("q")),
                               Bin("+", Name("p"), Num(1.0)), _wild_tree(rng, depth - 1)])
        return Bin("^", _wild_tree(rng, depth - 1), exponent)
    return Bin(rng.choice("+-*/"), _wild_tree(rng, depth - 1), _wild_tree(rng, depth - 1))


def _state_rows(rng):
    rows = rng.choice([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0], size=(2, 5))
    if rng.random() < 0.5:
        rows = np.abs(rows) + 0.25          # every base positive
    return rows


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_compiled_equals_the_tree_walk_on_random_trees():
    rng = random.Random(20261018)
    nprng = np.random.default_rng(20261018)
    errors = 0
    for _ in range(4000):
        tree = _random_tree(rng, depth=4) if rng.random() < 0.3 else _wild_tree(rng, 4)
        source = expr.serialize(tree)
        t = rng.choice([rng.uniform(0.1, 10.0), np.linspace(0.1, 3.0, 5)])
        params = {"p": rng.choice([2.0, -1.0, 0.5, rng.uniform(-3.0, 3.0)]),
                  "q": rng.choice([1.0, 3.0, rng.uniform(-3.0, 3.0)])}
        rows = _state_rows(nprng)
        env = {**params, "t": t, "u1": rows[0], "u2": rows[1]}
        reference = _outcome(lambda: walk(tree, env))
        errors += reference[1] is not None
        _assert_same(_outcome(lambda: expr.evaluate_env(tree, env)), reference, source)
        if "u1" not in source and "u2" not in source:
            _assert_same(_outcome(lambda: expr.evaluate(tree, t, params)), reference, source)
        compiled = expr._compile(tree, params, ("t", "u1", "u2"))
        _assert_same(_outcome(lambda: compiled(t, rows)), reference, source)
        # Without the finite check a run that did not overflow is unchanged.
        loose = expr._compile(tree, params, ("t", "u1", "u2"), finite=False)
        with np.errstate(all="ignore"):
            outcome = _outcome(lambda: loose(t, rows))
        if reference[1] is None or "non-finite" not in reference[1][1]:
            _assert_same(outcome, reference, source)
        else:
            assert outcome[1] is None or "non-finite" not in outcome[1][1], source
    assert 400 < errors < 3600


@pytest.mark.parametrize("text", ["u1^(p + 1)", "u1^p", "u1^-p", "u1^(p - q)", "(u1*q)^(p/2)",
                                  "t^(p*q)", "(p - 1)^u1", "u1^(p^q)", "u1^(log(q) - 1)"])
@pytest.mark.parametrize("p", [1.0, 2.0, 0.5, -2.0, -0.5, 0.0])
def test_folded_exponents_keep_the_walks_checks(text, p):
    # The exponent folds to a constant, so the base checks it cannot trigger
    # are dropped when the tree is compiled; those it can still fire alike.
    tree = expr.parse(text)
    params = {"p": p, "q": 3.0}
    compiled = expr._compile(tree, params, ("t", "u1"))
    for u1 in ([1.5, 0.25, 2.0], [-1.5, 0.25, 2.0], [0.0, 0.25, 2.0], [-1.5, 0.0, 2.0]):
        rows = np.array([u1])
        reference = _outcome(lambda: walk(tree, {**params, "t": 1.5, "u1": rows[0]}))
        _assert_same(_outcome(lambda: compiled(1.5, rows)), reference, f"{text} at {u1}")


def test_errors_are_raised_where_the_walk_meets_them():
    # The right-hand subtree folds (and fails) when the tree is compiled, but
    # the walk fails in the left one first.
    tree = expr.parse("log(t - 5) + sqrt(0 - p)")
    with pytest.raises(expr.DomainError, match="log of a nonpositive value"):
        expr.evaluate(tree, 1.0, {"p": 1.0})
    with pytest.raises(expr.DomainError, match="sqrt of a negative value"):
        expr.evaluate(tree, 6.0, {"p": 1.0})
    with pytest.raises(expr.UnboundNameError, match="'p'"):
        expr.evaluate(expr.parse("p + t/0"), 1.0)
    with pytest.raises(expr.DomainError, match="division by zero"):
        expr.evaluate(expr.parse("t/0 + p"), 1.0)


def test_a_compiled_tree_folds_its_parameters_once(monkeypatch):
    calls = []
    original = np.add

    def counted(a, b, *args, **kwargs):
        calls.append(np.ndim(a) + np.ndim(b))
        return original(a, b, *args, **kwargs)

    monkeypatch.setitem(expr._ARITHMETIC, "+", counted)
    compiled = expr._compile(expr.parse("u1^(lambda + 1)"), {"lambda": 1.0}, ("t", "u1"))
    rows = np.array([[0.5, -2.0, 3.0]])
    for _ in range(5):
        assert np.array_equal(compiled(0.0, rows), rows[0] ** 2.0)
    assert calls == [0]


def test_vectorized_matches_scalar():
    tree = expr.parse("t^2*sin(t) - 3/(abs(t) + 1) + a")
    ts = np.linspace(0.1, 7.0, 23)
    vec = expr.evaluate(tree, ts, {"a": 0.7})
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(expr.evaluate(tree, float(t), {"a": 0.7}), rel=1e-15)


# ---------------------------------------------------------------------------
# Combinators used to build adjoint systems


def test_combinators_fold_trivial_cases():
    a, b = Name("a"), Name("b")
    assert expr.add(expr.ZERO, a) is a
    assert expr.mul(expr.ZERO, a) == expr.ZERO
    assert expr.mul(expr.ONE, b) is b
    assert expr.sub(a, expr.ZERO) is a
    assert expr.neg(expr.neg(a)) is a
    combined = expr.sub(expr.mul(a, b), expr.ZERO)
    assert expr.serialize(combined) == "a*b"
