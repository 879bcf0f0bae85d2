"""Scalar expression parsing and second-order forward-mode differentiation.

Expressions are written over declared coordinate variables (``x1..x4``, with
``x``/``y``/``z`` accepted as aliases for the first three) or over ``Q`` for
density laws, plus named parameters bound at evaluation time.  Evaluation
produces value, gradient and Hessian simultaneously via hyper-dual ("jet")
arithmetic, either at a single point or vectorized over a batch of points.
Domain failures (``log`` of a nonpositive number, division by zero, ``abs``
differentiated at zero, ...) mark the affected points undefined instead of
raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

FUNCTIONS = ("neg", "sin", "cos", "exp", "log", "sqrt", "abs")

# x/y/z are interchangeable with the numbered coordinate names.
ALIASES = {"x": "x1", "y": "x2", "z": "x3"}


class ExpressionError(ValueError):
    """Parse/validation failure; ``offset`` is the byte position of the error."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # one of FUNCTIONS
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Param, Unary, Binary]


@dataclass(frozen=True)
class Expression:
    """A parsed expression bound to an ordered variable list."""

    root: Node
    variables: tuple[str, ...]
    parameters: tuple[str, ...] = ()

    def __str__(self) -> str:
        return to_string(self)


class JetBatch:
    """Jets over N points: val (N,), grad (N,m), hess (N,m,m), bad (N,)."""

    __slots__ = ("val", "grad", "hess", "bad")

    def __init__(self, val, grad, hess, bad):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.bad = bad


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            off = len(text) - len(stripped)
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r}", off)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser: ^ (right assoc) > unary minus > * / > + -."""

    def __init__(self, text: str, variables: Sequence[str], parameters: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, off = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.sum()
        kind, value, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {value!r}", off)
        return node

    def sum(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Binary(value, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Binary(value, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, value, off = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS or value == "neg":
                    raise ExpressionError(f"unknown function {value!r}", off)
                self.advance()
                ck, cv, coff = self.peek()
                if ck == "op" and cv == ")":
                    raise ExpressionError("empty function argument", coff)
                arg = self.sum()
                self.expect_op(")")
                return Unary(value, arg)
            return self.resolve_name(value, off)
        if kind == "op" and value == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}" if value else "unexpected end of input", off)

    def resolve_name(self, name: str, off: int) -> Node:
        canonical = ALIASES.get(name, name)
        if name in self.variables:
            return Var(self.variables.index(name), name)
        if canonical in self.variables:
            return Var(self.variables.index(canonical), canonical)
        if name in self.parameters:
            return Param(name)
        raise ExpressionError(f"unknown identifier {name!r}", off)


def parse(text: str, variables: Sequence[str], parameters: Sequence[str] = ()) -> Expression:
    """Parse ``text`` over the declared variables/parameters or raise ExpressionError."""
    root = _Parser(text, variables, parameters).parse()
    return Expression(root, tuple(variables), tuple(parameters))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _emit(node: Node, parent_prec: int) -> str:
    if isinstance(node, Const):
        text = repr(node.value)
        return f"({text})" if node.value < 0 and parent_prec > 1 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _emit(node.arg, _PRECEDENCE["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return f"{node.op}({_emit(node.arg, 0)})"
    prec = _PRECEDENCE[node.op]
    # Emit non-associative operands one level tighter so evaluation order survives.
    left = _emit(node.left, prec if node.op != "^" else prec + 1)
    right = _emit(node.right, prec + 1 if node.op in "-/" else prec)
    text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    return f"({text})" if prec < parent_prec else text


def to_string(e: Expression) -> str:
    """Pretty-print; re-parsing the result evaluates identically."""
    return _emit(e.root, 0)


def substitute(e: Expression, name: str, replacement: Expression) -> Expression:
    """Replace every reference to variable ``name`` with ``replacement``'s tree."""

    def walk(node: Node) -> Node:
        if isinstance(node, Var) and node.name == name:
            return replacement.root
        if isinstance(node, Unary):
            return Unary(node.op, walk(node.arg))
        if isinstance(node, Binary):
            return Binary(node.op, walk(node.left), walk(node.right))
        return node

    params = tuple(dict.fromkeys(e.parameters + replacement.parameters))
    return Expression(walk(e.root), replacement.variables, params)


def _contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Unary):
        return _contains_var(node.arg)
    if isinstance(node, Binary):
        return _contains_var(node.left) or _contains_var(node.right)
    return False


def _const_batch(n: int, m: int, value) -> JetBatch:
    return JetBatch(
        np.full(n, value, dtype=float),
        np.zeros((n, m)),
        np.zeros((n, m, m)),
        np.zeros(n, dtype=bool),
    )


def _outer_sym(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    return ga[:, :, None] * gb[:, None, :] + gb[:, :, None] * ga[:, None, :]


def _chain(u: JetBatch, val, d1, d2, bad_extra=None) -> JetBatch:
    grad = d1[:, None] * u.grad
    hess = d1[:, None, None] * u.hess + d2[:, None, None] * (u.grad[:, :, None] * u.grad[:, None, :])
    bad = u.bad.copy()
    if bad_extra is not None:
        bad |= bad_extra
    return JetBatch(val, grad, hess, bad)


def _eval(node: Node, pts: np.ndarray, params: Mapping[str, float]) -> JetBatch:
    n, m = pts.shape
    if isinstance(node, Const):
        return _const_batch(n, m, node.value)
    if isinstance(node, Param):
        if node.name not in params:
            raise KeyError(f"unbound parameter {node.name!r}")
        return _const_batch(n, m, float(params[node.name]))
    if isinstance(node, Var):
        out = _const_batch(n, m, 0.0)
        out.val = pts[:, node.index].astype(float, copy=True)
        out.grad[:, node.index] = 1.0
        return out
    if isinstance(node, Unary):
        u = _eval(node.arg, pts, params)
        if node.op == "neg":
            return JetBatch(-u.val, -u.grad, -u.hess, u.bad)
        if node.op == "sin":
            return _chain(u, np.sin(u.val), np.cos(u.val), -np.sin(u.val))
        if node.op == "cos":
            return _chain(u, np.cos(u.val), -np.sin(u.val), -np.cos(u.val))
        if node.op == "exp":
            ev = np.exp(u.val)
            return _chain(u, ev, ev, ev)
        if node.op == "log":
            bad = u.val <= 0.0
            return _chain(u, np.log(u.val), 1.0 / u.val, -1.0 / u.val**2, bad)
        if node.op == "sqrt":
            bad = u.val < 0.0
            # sqrt(0) is fine only where the argument is locally constant.
            at_zero = u.val == 0.0
            moving = np.abs(u.grad).sum(axis=1) + np.abs(u.hess).sum(axis=(1, 2)) > 0.0
            bad = bad | (at_zero & moving)
            sv = np.sqrt(np.where(u.val < 0, np.nan, u.val))
            d1 = 0.5 / sv
            d2 = -0.25 / (sv * u.val)
            out = _chain(u, sv, d1, d2, bad)
            if np.any(at_zero & ~moving):
                idx = at_zero & ~moving
                out.grad[idx] = 0.0
                out.hess[idx] = 0.0
            return out
        if node.op == "abs":
            bad = u.val == 0.0
            s = np.sign(u.val)
            return _chain(u, np.abs(u.val), s, np.zeros(n), bad)
        raise AssertionError(node.op)
    # Binary
    a = _eval(node.left, pts, params)
    if node.op == "^":
        return _pow(a, node, pts, params)
    b = _eval(node.right, pts, params)
    bad = a.bad | b.bad
    if node.op == "+":
        return JetBatch(a.val + b.val, a.grad + b.grad, a.hess + b.hess, bad)
    if node.op == "-":
        return JetBatch(a.val - b.val, a.grad - b.grad, a.hess - b.hess, bad)
    if node.op == "*":
        val = a.val * b.val
        grad = a.val[:, None] * b.grad + b.val[:, None] * a.grad
        hess = a.val[:, None, None] * b.hess + b.val[:, None, None] * a.hess + _outer_sym(a.grad, b.grad)
        return JetBatch(val, grad, hess, bad)
    if node.op == "/":
        bad = bad | (b.val == 0.0)
        val = a.val / b.val
        grad = (a.grad - val[:, None] * b.grad) / b.val[:, None]
        hess = (a.hess - val[:, None, None] * b.hess - _outer_sym(grad, b.grad)) / b.val[:, None, None]
        return JetBatch(val, grad, hess, bad)
    raise AssertionError(node.op)


def _pow(a: JetBatch, node: Binary, pts: np.ndarray, params: Mapping[str, float]) -> JetBatch:
    b = _eval(node.right, pts, params)
    if not _contains_var(node.right):
        # Constant exponent: power rule covers negative bases for integer p.
        p = b.val
        p0 = p.flat[0] if p.size else 0.0
        if p0 == 0.0:
            out = _const_batch(*pts.shape, 1.0)
            out.bad |= a.bad
            return out
        if p0 == 1.0:
            return a
        integral = float(p0).is_integer()
        bad = a.bad.copy()
        if not integral:
            bad |= a.val < 0.0
        val = np.power(np.abs(a.val), p) if integral else np.power(np.where(a.val < 0, np.nan, a.val), p)
        if integral:
            val = val * np.where((a.val < 0) & (int(p0) % 2 == 1), -1.0, 1.0)
        at_zero = a.val == 0.0
        if np.any(at_zero):
            bad |= at_zero & (p <= 0)
            if p0 < 2.0 and p0 != 1.0 and p0 > 0:
                moving = np.abs(a.grad).sum(axis=1) + np.abs(a.hess).sum(axis=(1, 2)) > 0.0
                bad |= at_zero & moving
        with np.errstate(all="ignore"):
            d1 = p * _signed_pow(a.val, p - 1.0, integral)
            d2 = p * (p - 1.0) * _signed_pow(a.val, p - 2.0, integral)
            d1 = np.where(at_zero & (p >= 2.0), 0.0, d1)
            d2 = np.where(at_zero & (p >= 3.0), 0.0, d2)
            d2 = np.where(at_zero & (p == 2.0), 2.0, d2)
        return _chain(a, val, d1, d2, bad)
    # Variable exponent: a^b = exp(b log a), requires a > 0.
    bad = a.bad | b.bad | (a.val <= 0.0)
    with np.errstate(all="ignore"):
        la = np.log(np.where(a.val <= 0, np.nan, a.val))
        val = np.exp(b.val * la)
        ga = a.grad / a.val[:, None]
        gl = b.grad * la[:, None] + b.val[:, None] * ga
        hl = (
            b.hess * la[:, None, None]
            + _outer_sym(b.grad, ga)
            + b.val[:, None, None] * (a.hess / a.val[:, None, None] - ga[:, :, None] * ga[:, None, :])
        )
        grad = val[:, None] * gl
        hess = val[:, None, None] * (hl + gl[:, :, None] * gl[:, None, :])
    return JetBatch(val, grad, hess, bad)


def _signed_pow(base: np.ndarray, p: np.ndarray, integral: bool) -> np.ndarray:
    if not integral:
        return np.power(np.where(base < 0, np.nan, base), p)
    mag = np.power(np.abs(base), p)
    odd = np.mod(np.abs(p), 2.0) == 1.0
    return mag * np.where((base < 0) & odd, -1.0, 1.0)


def eval_jets(e: Expression, points: np.ndarray, params: Optional[Mapping[str, float]] = None) -> JetBatch:
    """Evaluate value/gradient/Hessian over an (N, m) batch of points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(e.variables):
        raise ValueError(f"expected points of shape (N, {len(e.variables)})")
    with np.errstate(all="ignore"):
        out = _eval(e.root, pts, params or {})
        out.bad = out.bad | ~np.isfinite(out.val)
        out.bad |= ~np.isfinite(out.grad).all(axis=1)
        out.bad |= ~np.isfinite(out.hess).all(axis=(1, 2))
    return out


def eval_values(e: Expression, points: np.ndarray, params: Optional[Mapping[str, float]] = None) -> np.ndarray:
    """Values only (NaN where undefined); cheaper interface for plotting/quadrature."""
    jets = eval_jets(e, points, params)
    return np.where(jets.bad, np.nan, jets.val)
