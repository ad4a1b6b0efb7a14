"""Reference evaluators for the tests: the recursive tree walk that
``msd.expr`` evaluated with before it compiled trees, and the perturbation
map built on it, kept frozen here so that bit-for-bit checks of the compiled
routes do not run the code they check."""

import numpy as np

from msd.expr import FUNCTIONS, Bin, Call, DomainError, Name, Neg, Num, UnboundNameError


def _check_finite(node, value):
    if not np.all(np.isfinite(value)):
        raise DomainError(node, "non-finite result")
    return value


def walk(node, env: dict):
    """Evaluate ``node`` with every name bound in ``env``, node by node."""
    match node:
        case Num(value):
            return value
        case Name(ident):
            try:
                return env[ident]
            except KeyError:
                raise UnboundNameError(ident) from None
        case Call(func, arg):
            x = walk(arg, env)
            if func == "log" and np.any(np.asarray(x) <= 0.0):
                raise DomainError(node, "log of a nonpositive value")
            if func == "sqrt" and np.any(np.asarray(x) < 0.0):
                raise DomainError(node, "sqrt of a negative value")
            with np.errstate(all="ignore"):
                return _check_finite(node, FUNCTIONS[func](x))
        case Neg(arg):
            return -walk(arg, env)
        case Bin(op, lhs, rhs):
            a = walk(lhs, env)
            b = walk(rhs, env)
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


def apply_map(spec, params: dict, t, u: np.ndarray) -> np.ndarray:
    """One perturbation map at the paths-first states u [..., n]."""
    if spec.kind == "zero":
        return np.zeros_like(u)
    if spec.kind == "power_clipped":
        norms = np.linalg.norm(u, axis=-1, keepdims=True)
        return spec.coef * u * np.minimum(norms, spec.clip) ** (spec.power - 1.0)
    env = dict(params)
    env["t"] = t
    for i in range(u.shape[-1]):
        env[f"u{i + 1}"] = u[..., i]
    cols = [np.broadcast_to(np.asarray(walk(e, env), dtype=float), u.shape[:-1])
            for e in spec.entries]
    return np.stack(cols, axis=-1)
