"""One-variable expression DSL for warping functions and t-potentials.

Grammar (recursive descent, '^' right-associative):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := number | 't' | 'pi' | 'e' | fn '(' expr ')' | '(' expr ')'

The only variable is ``t``.  Exponents must be constant subtrees (no ``t``),
and a subtree without ``t`` must have a finite real value (``1/0`` does not
parse); a non-integer exponent needs a positive base at evaluation time.
Evaluation is polymorphic over floats and scalar jets
(:class:`~warpcheck.jets.JetTensor` of shape ``()``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .jets import JetTensor

__all__ = [
    "ExprAst",
    "ParseError",
    "FUNCTIONS",
    "parse",
    "unparse",
    "eval_expr",
]

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt")

_MATH_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax error with byte offset and the token set that was expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class NamedConst:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Const, Var, NamedConst, Neg, BinOp, Call]


# -- tokenizer ------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'eof'
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"unexpected token {tok.text or '<end>'!r}", tok.offset, (op,))

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset, ("+", "-", "*", "/", "^", "<end>"))
        return node

    def real(self, node: ExprAst, start: int) -> ExprAst:
        """``node``, unless it is free of t without a finite real value: then its source from ``start`` is quoted."""
        if not _depends_on_t(node):
            try:
                value = eval_expr(node, None)
            except (ArithmeticError, ValueError):  # 1/0, 10^400, log(-1)
                value = math.nan
            if not (isinstance(value, float) and math.isfinite(value)):  # (-2)^0.5 is complex
                raise ParseError(f"{self.src[start : self.peek().offset].strip()!r} has no finite real value", start)
        return node

    def expr(self) -> ExprAst:
        start = self.peek().offset
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = self.real(BinOp(op, node, self.term()), start)
        return node

    def term(self) -> ExprAst:
        start = self.peek().offset
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = self.real(BinOp(op, node, self.factor()), start)
        return node

    def factor(self) -> ExprAst:
        start = self.peek().offset
        base = self.unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.next()
            exponent = self.factor()  # right-associative
            if _depends_on_t(exponent):
                raise ParseError("exponent must be a constant expression", tok.offset)
            return self.real(BinOp("^", base, exponent), start)
        return base

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.unary())
        return self.primary()

    def primary(self) -> ExprAst:
        tok = self.next()
        if tok.kind == "num":
            return self.real(Const(float(tok.text)), tok.offset)  # 1e400 is inf
        if tok.kind == "ident":
            if tok.text == "t":
                return Var()
            if tok.text in _NAMED_CONSTANTS:
                return NamedConst(tok.text)
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return self.real(Call(tok.text, arg), tok.offset)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset, ("t", "pi", "e") + FUNCTIONS)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"unexpected token {tok.text or '<end>'!r}",
            tok.offset,
            ("number", "t", "pi", "e", "function", "("),
        )


def _depends_on_t(node: ExprAst) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Const, NamedConst)):
        return False
    if isinstance(node, Neg):
        return _depends_on_t(node.arg)
    if isinstance(node, BinOp):
        return _depends_on_t(node.left) or _depends_on_t(node.right)
    if isinstance(node, Call):
        return _depends_on_t(node.arg)
    raise TypeError(f"not an AST node: {node!r}")


def parse(src: str) -> ExprAst:
    """Parse a one-variable expression into an AST."""
    if not isinstance(src, str):
        raise ParseError(f"expected an expression string, got {type(src).__name__}", 0)
    return _Parser(src).parse()


# -- unparse ---------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _unparse(node: ExprAst, parent_prec: int = 0) -> str:
    if isinstance(node, Const):
        v = node.value
        s = repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)
        return s
    if isinstance(node, Var):
        return "t"
    if isinstance(node, NamedConst):
        return node.name
    if isinstance(node, Neg):
        inner = _unparse(node.arg, 4)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 1 else s
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            s = f"{_unparse(node.left, prec + 1)}^{_unparse(node.right, prec)}"
        else:
            # left-assoc: right child needs one more level for '-' and '/'
            rp = prec + 1 if node.op in "-/" else prec
            s = f"{_unparse(node.left, prec)}{node.op}{_unparse(node.right, rp)}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(node, Call):
        return f"{node.fn}({_unparse(node.arg, 0)})"
    raise TypeError(f"not an AST node: {node!r}")


def unparse(node: ExprAst) -> str:
    """Render an AST back to source text; parse(unparse(x)) == x structurally."""
    return _unparse(node)


# -- evaluation -------------------------------------------------------------


def eval_expr(node: ExprAst, t):
    """Evaluate at ``t``, which may be a float or a scalar jet (any num_vars/order)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, NamedConst):
        return _NAMED_CONSTANTS[node.name]
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -eval_expr(node.arg, t)
    if isinstance(node, BinOp):
        if node.op == "^":
            # the parser keeps t out of exponents, so this is a float
            return eval_expr(node.left, t) ** eval_expr(node.right, t)
        lhs = eval_expr(node.left, t)
        rhs = eval_expr(node.right, t)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(node, Call):
        arg = eval_expr(node.arg, t)
        if isinstance(arg, JetTensor):
            return arg.elem(node.fn)
        return _MATH_FN[node.fn](arg)
    raise TypeError(f"not an AST node: {node!r}")

