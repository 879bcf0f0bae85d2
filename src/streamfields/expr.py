"""Scalar expression parsing and forward-mode differentiation up to second order.

Expressions are written over declared coordinate variables (``x1..x4``, with
``x``/``y``/``z`` accepted as aliases for the first three) or over ``Q`` for
density laws, plus named parameters bound at evaluation time.  ``parse``
refuses expressions nested deeper than ``MAX_DEPTH`` levels.

``eval_jets`` lowers an expression once to a flat tape with one entry per
distinct ``(op, child entries)``, so a repeated subexpression is computed
once.  A passive entry, one with no variable below it, is evaluated once per
call and sliced per block; every other entry runs over blocks of
``BLOCK_ROWS`` points, and its slot is freed after its last reader on the
tape.  A constant exponent of 0 or 1 makes no ``pow`` call (the results are
exact: 1, and the base).  Each entry holds a hyper-dual ("jet") value for the
block, stored component-major: value (B,), gradient (m, B) and the upper
triangle of the symmetric Hessian (m(m+1)/2, B), the last two only up to
the ``order`` the caller asks for (None above it; truncated Taylor
propagation).  A ``JetBatch`` keeps the
same layout over all N points, row-major per component: each block's rows
are copied into its rows, and the point-major ``grad`` view and dense
``hess`` are there for the callers that read them.  Every rule keeps the
terms of the hyper-dual formula and their order, so a point's jet does not
depend on the block it falls in (only the sign of a NaN may, as in any
numpy loop).  No rule reads a part above the one it computes, so the value
at any order, and the gradient at order 1 wherever order 1 is defined, are
bit for bit those of order 2.

Domain failures mark the affected points undefined instead of raising.  A
point is undefined when a part the order computes is not finite, or when
  - (every order) ``log`` has a nonpositive argument, ``sqrt`` a negative
    one, ``/`` a zero divisor, ``a^b`` with variables in b a nonpositive
    base, a non-integral constant power a negative base, or a power p <= 0
    a zero base;
  - (order >= 1) ``abs`` has a zero argument;
  - (order 1) ``sqrt`` or a constant power 0 < p < 2 has a zero argument:
    whether the argument moves there takes its Hessian to tell;
  - (order 2) ``sqrt`` or a constant power 0 < p < 2 has a zero argument
    whose gradient or Hessian is not zero.
So order 0 is defined wherever order 1 is, and order 1 where order 2 is,
except at a zero under a root (which a caller can re-evaluate at order 2);
order 2 is defined where order 1 is, except where only its Hessian is not
finite.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

FUNCTIONS = ("neg", "sin", "cos", "exp", "log", "sqrt", "abs")

# x/y/z are interchangeable with the numbered coordinate names.
ALIASES = {"x": "x1", "y": "x2", "z": "x3"}

# Deepest expression parse accepts: tree levels, and open parentheses, calls,
# unary minuses and exponents.  Keeps every recursive walk of a tree (the
# parser, to_string, substitute, dataclass equality) far inside Python's
# recursion limit.
MAX_DEPTH = 100

# Points per pass through the tape: one block's jets stay in cache.
BLOCK_ROWS = 2**13


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

    @cached_property
    def _tape(self) -> list:
        return _lower(self.root)


def tri_row(i: int, j: int, m: int) -> int:
    """Row of Hessian entry (i, j) among the m(m+1)/2 packed upper-triangle
    rows: (0, 0), (0, 1), ..., (0, m-1), (1, 1), ..., (m-1, m-1)."""
    i, j = min(i, j), max(i, j)
    return i * m - i * (i - 1) // 2 + j - i


class JetBatch:
    """Jets over N points, component-major: val (N,), gradient rows
    grad_rows (m, N), packed upper-triangle Hessian rows hess_rows
    (m(m+1)/2, N, in tri_row order) and bad (N,); a part above the order the
    batch was built at is None.  ``grad`` is the (N, m) view of the rows;
    ``hess`` is the dense (N, m, m) stack, built on read."""

    __slots__ = ("val", "grad_rows", "hess_rows", "bad")

    def __init__(self, val, grad_rows, hess_rows, bad):
        self.val = val
        self.grad_rows = grad_rows
        self.hess_rows = hess_rows
        self.bad = bad

    @property
    def order(self) -> int:
        return 0 if self.grad_rows is None else 1 if self.hess_rows is None else 2

    def _needs(self, what: str, order: int) -> None:
        if self.order < order:
            raise ValueError(f"{what} needs jets of order {order}; this batch was built at order "
                             f"{self.order}")

    @property
    def grad(self) -> np.ndarray:
        self._needs("grad", 1)
        return self.grad_rows.T

    @property
    def hess(self) -> np.ndarray:
        self._needs("hess", 2)
        m = self.grad_rows.shape[0]
        packed = [[tri_row(i, j, m) for j in range(m)] for i in range(m)]
        return self.hess_rows[packed].transpose(2, 0, 1)


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
    """Recursive-descent parser: ^ (right assoc) > unary minus > * / > + -.

    Each rule returns ``(node, depth)``.  ``nesting`` counts the open
    parentheses, calls, unary minuses and exponents on the way down, so the
    parser's own recursion stops at MAX_DEPTH as well as the tree's depth.
    """

    def __init__(self, text: str, variables: Sequence[str], parameters: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        self.nesting = 0

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

    @staticmethod
    def bounded(depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return depth

    def parse(self) -> Node:
        node, _ = self.sum()
        kind, value, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {value!r}", off)
        return node

    def sum(self) -> tuple[Node, int]:
        node, depth = self.term()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right, rdepth = self.term()
                node, depth = Binary(value, node, right), self.bounded(1 + max(depth, rdepth), off)
            else:
                return node, depth

    def term(self) -> tuple[Node, int]:
        node, depth = self.factor()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right, rdepth = self.factor()
                node, depth = Binary(value, node, right), self.bounded(1 + max(depth, rdepth), off)
            else:
                return node, depth

    def factor(self) -> tuple[Node, int]:
        kind, value, off = self.peek()
        self.nesting = self.bounded(self.nesting + 1, off)
        if kind == "op" and value == "-":
            self.advance()
            arg, depth = self.factor()
            node, depth = Unary("neg", arg), self.bounded(depth + 1, off)
        else:
            node, depth = self.power()
        self.nesting -= 1
        return node, depth

    def power(self) -> tuple[Node, int]:
        base, depth = self.atom()
        kind, value, off = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent, edepth = self.factor()
            return Binary("^", base, exponent), self.bounded(1 + max(depth, edepth), off)
        return base, depth

    def atom(self) -> tuple[Node, int]:
        kind, value, off = self.advance()
        if kind == "num":
            return Const(float(value)), 1
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in FUNCTIONS or value == "neg":
                    raise ExpressionError(f"unknown function {value!r}", off)
                self.advance()
                ck, cv, coff = self.peek()
                if ck == "op" and cv == ")":
                    raise ExpressionError("empty function argument", coff)
                arg, depth = self.sum()
                self.expect_op(")")
                return Unary(value, arg), self.bounded(depth + 1, off)
            return self.resolve_name(value, off), 1
        if kind == "op" and value == "(":
            inner = self.sum()
            self.expect_op(")")
            return inner
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
        text = repr(node.value) if node.value != math.inf else "1e999"
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
    # Emit the operand on the side the parser does not group one level tighter,
    # so the tree survives: floating-point + and * are not associative either.
    left = _emit(node.left, prec if node.op != "^" else prec + 1)
    right = _emit(node.right, prec + 1 if node.op != "^" else prec)
    text = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    return f"({text})" if prec < parent_prec else text


def to_string(e: Expression) -> str:
    """Pretty-print.  Re-parsing the text of a tree that `parse` made gives the
    same tree.  No text parses to a negative `Const`: one built in code comes
    back as ``neg(...)``, whose derivatives may carry -0.0 where it had 0.0."""
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


def _lower(root: Node) -> list:
    """Post-order tape of ``root``: one ``(op, a, b)`` entry per distinct op
    and child entries, children first and the root last.  A leaf carries its
    constant's bits, variable index or parameter name in ``a``.  The walk
    keeps its own stack and keys nodes by identity, so neither the walk nor
    the hashing recurses through the tree."""
    code: list = []
    varying: list = []
    entry: dict = {}
    done: dict = {}
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        if not ready and isinstance(node, (Unary, Binary)):
            stack.append((node, True))
            children = (node.arg,) if isinstance(node, Unary) else (node.right, node.left)
            stack += [(child, False) for child in children]
            continue
        if isinstance(node, Const):
            # by bit pattern, so 0.0 and -0.0 stay two entries
            op, var = ("const", struct.pack("<d", node.value), None), False
        elif isinstance(node, Var):
            op, var = ("var", node.index, None), True
        elif isinstance(node, Param):
            op, var = ("param", node.name, None), False
        elif isinstance(node, Unary):
            a = done[id(node.arg)]
            op, var = (node.op, a, None), varying[a]
        else:
            a, b = done[id(node.left)], done[id(node.right)]
            name = node.op if node.op != "^" else ("pow_var" if varying[b] else "pow_const")
            op, var = (name, a, b), varying[a] or varying[b]
        if op not in entry:
            entry[op] = len(code)
            code.append(op)
            varying.append(var)
        done[id(node)] = entry[op]
    return code


def _passive_jets(code: list, params: Mapping[str, float], rows: int, m: int, order: int) -> dict:
    """Jets over ``rows`` points of every passive entry, one with no variable
    below it, and the derivative parts of the variables, whose values are
    filled in per block.  A passive entry is the same at every point, so it is
    evaluated once per call and sliced per block: the same ufuncs on the same
    inputs, elementwise, so no bit changes.  Parameters are looked up in tape
    order.  The parts above ``order`` are None."""
    zero_grad = np.zeros((m, rows)) if order >= 1 else None
    zero_tri = np.zeros((m * (m + 1) // 2, rows)) if order >= 2 else None
    ok = np.zeros(rows, dtype=bool)
    jets, variables = {}, {}
    for i, (op, a, b) in enumerate(code):
        if op == "const":
            jets[i] = (np.full(rows, struct.unpack("<d", a)[0]), zero_grad, zero_tri, ok)
        elif op == "param":
            if a not in params:
                raise KeyError(f"unbound parameter {a!r}")
            jets[i] = (np.full(rows, float(params[a])), zero_grad, zero_tri, ok)
        elif op == "var":
            unit = None
            if order >= 1:
                unit = np.zeros((m, rows))
                unit[a] = 1.0
            variables[i] = (None, unit, zero_tri, ok)
        elif a in jets and (b is None or b in jets):
            jets[i] = _unary(op, jets[a]) if b is None else _binary(op, jets[a], jets[b])
    return {**jets, **variables}


def _tri(ga, gb):
    """Upper triangle of the outer product ga_i gb_j, row by row."""
    m = ga.shape[0]
    out = np.empty((m * (m + 1) // 2, ga.shape[1]))
    k = 0
    for i in range(m):
        np.multiply(ga[i], gb[i:], out=out[k:k + m - i])
        k += m - i
    return out


def _outer(ga, gb):
    """Upper triangle of ga gb^T + gb ga^T."""
    out = _tri(ga, gb)
    out += _tri(gb, ga)
    return out


def _through(u, val, d1, d2, bad):
    """Jet of f(u) from f(u) and the callables d1() = f'(u) and d2() = f''(u),
    each called only if u carries the derivative part that reads it."""
    g, h = u[1], u[2]
    bad = u[3] if bad is None else u[3] | bad
    if g is None:
        return val, None, None, bad
    f1 = d1()
    if h is None:
        return val, f1 * g, None, bad
    gg = _tri(g, g)
    np.multiply(d2(), gg, out=gg)
    hess = f1 * h
    hess += gg
    return val, f1 * g, hess, bad


def _moving(u):
    """Points where any first or second derivative of u is nonzero (and none is NaN)."""
    return np.abs(u[1]).sum(axis=0) + np.abs(u[2]).sum(axis=0) > 0.0


def _at_zero_bad(u, at_zero):
    """Where a zero of u makes a root-like f(u) (sqrt, or a power 0 < p < 2)
    undefined at the jet's order.  Such an f is differentiable at 0 only
    where u is locally constant, which takes u's Hessian to tell: order 2
    refuses the zeros where u moves, order 1 every zero, order 0 none."""
    if u[1] is None:
        return np.zeros(at_zero.shape, dtype=bool)
    return at_zero if u[2] is None else at_zero & _moving(u)


def _unary(op: str, u):
    v = u[0]
    if op == "neg":
        return -v, *(None if x is None else -x for x in u[1:3]), u[3]
    if op == "sin":
        sv = np.sin(v)
        return _through(u, sv, lambda: np.cos(v), lambda: -sv, None)
    if op == "cos":
        cv = np.cos(v)
        return _through(u, cv, lambda: -np.sin(v), lambda: -cv, None)
    if op == "exp":
        ev = np.exp(v)
        return _through(u, ev, lambda: ev, lambda: ev, None)
    if op == "log":
        return _through(u, np.log(v), lambda: 1.0 / v, lambda: -1.0 / v**2, v <= 0.0)
    if op == "sqrt":
        at_zero = v == 0.0
        refused = _at_zero_bad(u, at_zero)
        sv = np.sqrt(np.where(v < 0, np.nan, v))
        out = _through(u, sv, lambda: 0.5 / sv, lambda: -0.25 / (sv * v), (v < 0.0) | refused)
        if u[2] is not None:
            still = at_zero & ~refused
            if np.any(still):
                out[1][:, still] = 0.0
                out[2][:, still] = 0.0
        return out
    if op == "abs":
        bad = v == 0.0 if u[1] is not None else None
        return _through(u, np.abs(v), lambda: np.sign(v), lambda: np.zeros(v.shape[0]), bad)
    raise AssertionError(op)


def _binary(op: str, a, b):
    if op == "pow_const":
        return _pow_const(a, b[0])
    av, ag, ah, ak = a
    bv, bg, bh, bk = b
    bad = ak | bk
    if op in "+-":
        f = np.add if op == "+" else np.subtract
        return f(av, bv), *(None if x is None else f(x, y) for x, y in ((ag, bg), (ah, bh))), bad
    if op == "*":
        val = av * bv
        if ag is None:
            return val, None, None, bad
        grad = av * bg
        grad += bv * ag
        if ah is None:
            return val, grad, None, bad
        hess = av * bh
        hess += bv * ah
        hess += _outer(ag, bg)
        return val, grad, hess, bad
    if op == "/":
        bad |= bv == 0.0
        val = av / bv
        if ag is None:
            return val, None, None, bad
        grad = val * bg
        np.subtract(ag, grad, out=grad)
        grad /= bv
        if ah is None:
            return val, grad, None, bad
        hess = val * bh
        np.subtract(ah, hess, out=hess)
        hess -= _outer(grad, bg)
        hess /= bv
        return val, grad, hess, bad
    if op == "pow_var":
        # a^b = exp(b log a), requires a > 0.
        bad |= av <= 0.0
        la = np.log(np.where(av <= 0, np.nan, av))
        val = np.exp(bv * la)
        if ag is None:
            return val, None, None, bad
        ga = ag / av
        gl = bg * la + bv * ga
        if ah is None:
            return val, val * gl, None, bad
        hl = bh * la + _outer(bg, ga) + bv * (ah / av - _tri(ga, ga))
        return val, val * gl, val * (hl + _tri(gl, gl)), bad
    raise AssertionError(op)


def _pow_const(a, p):
    """a^p for an exponent without variables (``p`` is its full array, one
    value throughout): the power rule, with negative bases allowed for
    integral p.  The factors p and p(p-1) multiply as the Python floats p0 and
    p0(p0-1), the same IEEE products as the arrays', and an exponent array is
    built only for a pow call.  Sign flips are applied only for odd powers and
    the at-zero fixes only where a is zero; a factor of 1.0 or a select of
    nothing changes no bit, so skipping them is exact."""
    av, ag, ah, ak = a
    p0 = float(p[0])
    if p0 == 0.0:
        return (np.full(av.shape[0], 1.0), *(None if x is None else np.zeros(x.shape) for x in (ag, ah)),
                ak)
    if p0 == 1.0:
        return a
    integral = p0.is_integer()
    bad = ak.copy()
    if not integral:
        bad |= av < 0.0
    at_zero = av == 0.0
    if np.any(at_zero):
        if p0 <= 0:
            bad |= at_zero
        elif p0 < 2.0:
            bad |= _at_zero_bad(a, at_zero)

    def d1():
        d = _signed_pow(av, None, p0 - 1.0, integral)
        d *= p0
        if p0 >= 2.0:
            d[at_zero] = 0.0
        return d

    def d2():
        d = _signed_pow(av, None, p0 - 2.0, integral)
        d *= p0 * (p0 - 1.0)
        if p0 >= 3.0:
            d[at_zero] = 0.0
        elif p0 == 2.0:
            d[at_zero] = 2.0
        return d

    return _through(a, _signed_pow(av, p, p0, integral), d1, d2, bad)


def _signed_pow(base: np.ndarray, p: Optional[np.ndarray], p0: float, integral: bool) -> np.ndarray:
    """base^p0, NaN for negative base unless p0 is integral, negative for odd
    p0 and negative base.  ``p`` is the exponent array np.power reads (p0
    throughout), or None to have it built only where pow is called.  pow(x, 0)
    is 1 for every x, NaN included, and pow(|x|, 1) is |x|, so those two make
    no pow call; a higher power does, since pow(x, 2) and x*x can differ in
    the last bit.  The sign of an odd power is a masked in-place negation."""
    def exponent():
        return np.full(base.shape, p0) if p is None else p

    if not integral:
        return np.power(np.where(base < 0, np.nan, base), exponent())
    if p0 == 0.0:
        return np.ones(base.shape)
    mag = np.abs(base) if p0 == 1.0 else np.power(np.abs(base), exponent())
    if abs(p0) % 2.0 == 1.0:
        np.negative(mag, out=mag, where=base < 0)
    return mag


def _last_readers(code: list) -> list:
    """For each step i of the tape, the entries whose last reader is step i:
    their slots can be released once step i has run.  The root has no reader
    and is never released."""
    last = {}
    for i, (op, a, b) in enumerate(code):
        if op not in ("const", "param", "var"):
            last[a] = i
            if b is not None:
                last[b] = i
    release: list = [[] for _ in code]
    for entry, i in last.items():
        release[i].append(entry)
    return release


def _run(code: list, passive: dict, pts: np.ndarray, release: list) -> tuple:
    """Jet of the tape's root over one block of points.  No op writes into
    its input slots, so the passive jets serve every block; a slot is dropped
    after its last reader (``release``, from _last_readers), so only the live
    entries' jets are held."""
    rows = pts.shape[0]
    slots: list = [None] * len(code)
    for i, (op, a, b) in enumerate(code):
        if i in passive:
            val, grad, tri, ok = passive[i]
            val = pts[:, a].copy() if op == "var" else val[:rows]
            slots[i] = (val, *(None if x is None else x[:, :rows] for x in (grad, tri)), ok[:rows])
        elif b is None:
            slots[i] = _unary(op, slots[a])
        else:
            slots[i] = _binary(op, slots[a], slots[b])
        for entry in release[i]:
            slots[entry] = None
    return slots[-1]


def eval_jets(e: Expression, points: np.ndarray, params: Optional[Mapping[str, float]] = None,
              order: int = 2) -> JetBatch:
    """Evaluate the value, and up to ``order`` (0, 1 or 2) the gradient and
    Hessian, over an (N, m) batch of points.  Each block's component rows are
    copied into the batch's rows as they are; the parts above ``order`` are
    None."""
    if order not in (0, 1, 2):
        raise ValueError(f"jet order must be 0, 1 or 2, got {order!r}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(e.variables):
        raise ValueError(f"expected points of shape (N, {len(e.variables)})")
    n, m = pts.shape
    rows = max(1, min(n, BLOCK_ROWS))
    out = JetBatch(np.empty(n), np.empty((m, n)) if order >= 1 else None,
                   np.empty((m * (m + 1) // 2, n)) if order >= 2 else None, np.empty(n, dtype=bool))
    release = _last_readers(e._tape)
    with np.errstate(all="ignore"):
        passive = _passive_jets(e._tape, params or {}, rows, m, order)
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            val, grad, tri, bad = _run(e._tape, passive, pts[block], release)
            out.val[block] = val
            bad = bad | ~np.isfinite(val)
            if grad is not None:
                out.grad_rows[:, block] = grad
                bad |= ~np.isfinite(grad).all(axis=0)
            if tri is not None:
                out.hess_rows[:, block] = tri
                # IEEE + and * commute, so the triangle is finite iff the full Hessian is.
                bad |= ~np.isfinite(tri).all(axis=0)
            out.bad[block] = bad
    return out


def eval_values(e: Expression, points: np.ndarray, params: Optional[Mapping[str, float]] = None) -> np.ndarray:
    """Values only (NaN where undefined), from an order-0 pass."""
    jets = eval_jets(e, points, params, order=0)
    return np.where(jets.bad, np.nan, jets.val)
