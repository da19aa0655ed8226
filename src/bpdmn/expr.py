"""Small expression language for gateway guards and data-mapping copy rules.

Grammar::

    expr := or
    or   := and ('or' and)*
    and  := cmp ('and' cmp)*
    cmp  := term (relop term)?
    term := path | literal | 'not' term | '(' expr ')'

Paths are dot-qualified identifiers (``input.cardNumber``), string literals
are single-quoted, numbers are decimal, booleans are ``true``/``false``.
Comparisons with a null operand evaluate to false; a null operand in a
boolean connective is treated as false as well, so guards over optional
inputs never crash a run.
"""

from __future__ import annotations

from dataclasses import dataclass

Value = str | int | float | bool | None

# unicode spellings accepted on input, printed as ASCII
_RELOP_ALIASES = {"≠": "!=", "≤": "<=", "≥": ">="}

_KEYWORDS = {"and", "or", "not", "true", "false"}


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundPathError(ExprError):
    def __init__(self, path: str) -> None:
        super().__init__(f"unbound path: {path}")
        self.path = path


class ExprTypeError(ExprError):
    pass


@dataclass(frozen=True)
class Ref:
    path: tuple[str, ...]

    @property
    def dotted(self) -> str:
        return ".".join(self.path)


@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Cmp:
    op: str  # "=", "!=", "<", "<=", ">" or ">="
    left: Expression
    right: Expression


@dataclass(frozen=True)
class BoolOp:
    op: str  # 'and' | 'or'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Not:
    operand: Expression


Expression = Ref | Lit | Cmp | BoolOp | Not


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident', 'path', 'number', 'string', 'op', 'lparen', 'rparen', 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _RELOP_ALIASES:
            tokens.append(_Token("op", _RELOP_ALIASES[c], i))
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("!=", "<=", ">="):
            tokens.append(_Token("op", two, i))
            i += 2
            continue
        if c in "=<>":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
            continue
        if c == "'":
            j = i + 1
            parts: list[str] = []
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ("'", "\\"):
                    parts.append(text[j + 1])
                    j += 2
                elif text[j] == "'":
                    break
                else:
                    parts.append(text[j])
                    j += 1
            else:
                raise ExprSyntaxError("unterminated string literal", i)
            if j >= n:
                raise ExprSyntaxError("unterminated string literal", i)
            tokens.append(_Token("string", "".join(parts), i))
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # scientific-notation suffix: 1e-05, 2.5E+3
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k + 1
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            word = text[i:j]
            if word.endswith(".") or ".." in word:
                raise ExprSyntaxError(f"malformed path {word!r}", i)
            tokens.append(_Token("ident", word, i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def parse_expr(self) -> Expression:
        node = self.parse_and()
        while self.peek().kind == "ident" and self.peek().text == "or":
            self.next()
            node = BoolOp("or", node, self.parse_and())
        return node

    def parse_and(self) -> Expression:
        node = self.parse_cmp()
        while self.peek().kind == "ident" and self.peek().text == "and":
            self.next()
            node = BoolOp("and", node, self.parse_cmp())
        return node

    def parse_cmp(self) -> Expression:
        left = self.parse_term()
        if self.peek().kind == "op":
            op = self.next().text
            right = self.parse_term()
            return Cmp(op, left, right)
        return left

    def parse_term(self) -> Expression:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text == "not":
                self.next()
                return Not(self.parse_term())
            if tok.text == "true":
                self.next()
                return Lit(True)
            if tok.text == "false":
                self.next()
                return Lit(False)
            if tok.text.split(".", 1)[0] in _KEYWORDS:
                raise ExprSyntaxError(f"unexpected keyword {tok.text!r}", tok.pos)
            self.next()
            return Ref(tuple(tok.text.split(".")))
        if tok.kind == "number":
            self.next()
            if "." in tok.text:
                return Lit(float(tok.text))
            return Lit(int(tok.text))
        if tok.kind == "string":
            self.next()
            return Lit(tok.text)
        if tok.kind == "lparen":
            self.next()
            node = self.parse_expr()
            self.expect("rparen")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


def parse_expr(text: str) -> Expression:
    """Parse *text* into an expression tree.

    Raises :class:`ExprSyntaxError` (with a character position) on malformed
    or empty input.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    return node


# ---------------------------------------------------------------------------
# Printer

# precedence levels: or < and < cmp < term
_PREC_OR, _PREC_AND, _PREC_CMP, _PREC_TERM = 1, 2, 3, 4


def _prec(e: Expression) -> int:
    if isinstance(e, BoolOp):
        return _PREC_OR if e.op == "or" else _PREC_AND
    if isinstance(e, Cmp):
        return _PREC_CMP
    return _PREC_TERM


def _fmt_lit(value: Value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"  # never produced by the parser; printed for diagnostics
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(value)


def print_expr(e: Expression) -> str:
    """Render *e* back to source text; ``parse_expr(print_expr(e)) == e``."""
    if isinstance(e, Ref):
        return e.dotted
    if isinstance(e, Lit):
        return _fmt_lit(e.value)
    if isinstance(e, Not):
        inner = print_expr(e.operand)
        if _prec(e.operand) < _PREC_TERM:
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(e, Cmp):
        sides = []
        for side in (e.left, e.right):
            text = print_expr(side)
            if _prec(side) < _PREC_TERM:
                text = f"({text})"
            sides.append(text)
        return f"{sides[0]} {e.op} {sides[1]}"
    if isinstance(e, BoolOp):
        own = _prec(e)
        left = print_expr(e.left)
        if _prec(e.left) < own:
            left = f"({left})"
        right = print_expr(e.right)
        if _prec(e.right) <= own and isinstance(e.right, BoolOp):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluator


def _truthy(value: Value, context: str) -> bool:
    # null in a boolean position counts as false (optional-input rule)
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    raise ExprTypeError(f"expected boolean in {context}, got {value!r}")


def eval_expr(e: Expression, env: dict[str, Value]) -> Value:
    """Strictly evaluate *e* under *env* (dotted path -> value).

    Comparisons with a null operand yield false; ``and``/``or``
    short-circuit. Unbound paths raise :class:`UnboundPathError`; comparing
    operands of different scalar types raises :class:`ExprTypeError`.
    """
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ref):
        if e.dotted not in env:
            raise UnboundPathError(e.dotted)
        return env[e.dotted]
    if isinstance(e, Not):
        return not _truthy(eval_expr(e.operand, env), "'not'")
    if isinstance(e, BoolOp):
        left = _truthy(eval_expr(e.left, env), f"'{e.op}'")
        if e.op == "and":
            if not left:
                return False
            return _truthy(eval_expr(e.right, env), "'and'")
        if left:
            return True
        return _truthy(eval_expr(e.right, env), "'or'")
    if isinstance(e, Cmp):
        left = eval_expr(e.left, env)
        right = eval_expr(e.right, env)
        return _compare(e.op, left, right)
    raise TypeError(f"not an expression: {e!r}")


def _compare(op: str, left: Value, right: Value) -> bool:
    if left is None or right is None:
        return False
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if isinstance(left, bool) or isinstance(right, bool):
        if not (isinstance(left, bool) and isinstance(right, bool)):
            raise ExprTypeError(f"cannot compare {left!r} with {right!r}")
        if op not in ("=", "!="):
            raise ExprTypeError(f"ordering comparison {op!r} not defined for booleans")
    elif numeric(left) and numeric(right):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise ExprTypeError(f"cannot compare {left!r} with {right!r}")
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExprTypeError(f"unknown operator {op!r}")


def expr_refs(e: Expression) -> set[str]:
    """All dotted paths referenced anywhere in *e*."""
    if isinstance(e, Ref):
        return {e.dotted}
    if isinstance(e, Lit):
        return set()
    if isinstance(e, Not):
        return expr_refs(e.operand)
    if isinstance(e, (Cmp, BoolOp)):
        return expr_refs(e.left) | expr_refs(e.right)
    return set()
