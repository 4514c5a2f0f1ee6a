"""Recursive-descent parser for the mini-C language."""

from __future__ import annotations

from ..errors import ParseError
from .cast import (
    AssignExpr,
    BinaryExpr,
    BreakStmt,
    CallExpr,
    CastExpr,
    CompoundStmt,
    ConditionalExpr,
    ContinueStmt,
    CType,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLiteral,
    ForStmt,
    FunctionDef,
    GlobalDecl,
    IfStmt,
    IncDecExpr,
    IndexExpr,
    IntLiteral,
    NameRef,
    Param,
    ReturnStmt,
    Stmt,
    TranslationUnit,
    UnaryExpr,
    WhileStmt,
)
from .lexer import Token, tokenize

_BASE_TYPES = ("void", "char", "int", "long", "float", "double")

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

#: Deepest expression nesting the parser accepts. Parentheses, subscripts,
#: call arguments, prefix operators, casts and the right-hand sides of
#: assignments and conditionals each open one level. Deeper input raises
#: ParseError instead of exhausting the interpreter stack in the parser
#: or in the recursive passes behind it.
MAX_EXPR_DEPTH = 100


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ---------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        if self.current.text == text and self.current.kind in ("op", "keyword"):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise ParseError(
                f"expected {text!r}, got {self.current.text!r}",
                self.current.location)
        return tok

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise ParseError(f"expected identifier, got {self.current.text!r}",
                             self.current.location)
        return self.advance()

    # -- types -------------------------------------------------------------------
    def at_type(self) -> bool:
        tok = self.current
        if tok.kind != "keyword":
            return False
        return tok.text in _BASE_TYPES + ("const", "static", "unsigned", "signed")

    def parse_type_prefix(self) -> tuple[str, bool]:
        """Parse qualifiers + base type; returns (base, is_const)."""
        is_const = False
        base: str | None = None
        while True:
            tok = self.current
            if tok.kind != "keyword":
                break
            if tok.text in ("const", "static"):
                is_const = is_const or tok.text == "const"
                self.advance()
            elif tok.text in ("unsigned", "signed"):
                self.advance()  # signedness is ignored (all ints signed)
                if base is None:
                    base = "int"
            elif tok.text in _BASE_TYPES:
                if base is not None and not (base == "long" and tok.text == "long"):
                    raise ParseError(f"unexpected type keyword {tok.text!r}",
                                     tok.location)
                base = tok.text
                self.advance()
            else:
                break
        if base is None:
            raise ParseError(f"expected type, got {self.current.text!r}",
                             self.current.location)
        return base, is_const

    def parse_declarator(self, base: str) -> tuple[CType, str]:
        """Parse ``*``* name followed by array dims."""
        pointers = 0
        while self.accept("*"):
            pointers += 1
        name = self.expect_ident().text
        dims: list[int] = []
        while self.accept("["):
            if self.accept("]"):
                dims.append(-1)
            else:
                dims.append(self._parse_const_dim())
                self.expect("]")
        return CType(base, pointers, tuple(dims)), name

    def _parse_const_dim(self) -> int:
        """Array dimensions must fold to an integer constant."""
        expr = self.parse_expression()
        value = _fold_int(expr)
        if value is None:
            raise ParseError("array dimension must be a constant expression",
                             self.current.location)
        return value

    # -- top level ------------------------------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        unit = TranslationUnit()
        while self.current.kind != "eof":
            base, is_const = self.parse_type_prefix()
            ctype, name = self.parse_declarator(base)
            loc = self.current.location
            if self.current.text == "(":
                unit.functions.append(self._parse_function(ctype, name, loc))
            else:
                init = None
                if self.accept("="):
                    init = self.parse_assignment()
                self.expect(";")
                unit.globals.append(GlobalDecl(ctype, name, init, is_const, loc))
        return unit

    def _parse_function(self, ret: CType, name: str, loc) -> FunctionDef:
        self.expect("(")
        params: list[Param] = []
        if not self.accept(")"):
            if self.current.text == "void" and self.peek().text == ")":
                self.advance()
            else:
                while True:
                    base, _ = self.parse_type_prefix()
                    ptype, pname = self.parse_declarator(base)
                    params.append(Param(ptype, pname))
                    if not self.accept(","):
                        break
            self.expect(")")
        if self.accept(";"):
            return FunctionDef(ret, name, params, None, loc)
        body = self.parse_compound()
        return FunctionDef(ret, name, params, body, loc)

    # -- statements --------------------------------------------------------------
    def parse_compound(self) -> CompoundStmt:
        self.expect("{")
        body: list[Stmt] = []
        while not self.accept("}"):
            if self.current.kind == "eof":
                raise ParseError("unterminated block", self.current.location)
            body.append(self.parse_statement())
        return CompoundStmt(body)

    def parse_statement(self) -> Stmt:
        tok = self.current
        if tok.text == "{":
            return self.parse_compound()
        if tok.text == "if":
            return self._parse_if()
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "while":
            return self._parse_while()
        if tok.text == "do":
            return self._parse_do_while()
        if tok.text == "return":
            self.advance()
            value = None if self.current.text == ";" else self.parse_expression()
            self.expect(";")
            return ReturnStmt(value, location=tok.location)
        if tok.text == "break":
            self.advance()
            self.expect(";")
            return BreakStmt(location=tok.location)
        if tok.text == "continue":
            self.advance()
            self.expect(";")
            return ContinueStmt(location=tok.location)
        if self.at_type():
            stmt = self._parse_decl()
            self.expect(";")
            return stmt
        if self.accept(";"):
            return CompoundStmt([])
        expr = self.parse_expression()
        self.expect(";")
        return ExprStmt(expr, location=tok.location)

    def _parse_decl(self) -> DeclStmt:
        loc = self.current.location
        base, _ = self.parse_type_prefix()
        ctype, name = self.parse_declarator(base)
        init = None
        if self.accept("="):
            init = self.parse_assignment()
        return DeclStmt(ctype, name, init, location=loc)

    def _parse_if(self) -> IfStmt:
        loc = self.expect("if").location
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        other = self.parse_statement() if self.accept("else") else None
        return IfStmt(cond, then, other, location=loc)

    def _parse_for(self) -> ForStmt:
        loc = self.expect("for").location
        self.expect("(")
        init: Stmt | None = None
        if not self.accept(";"):
            if self.at_type():
                init = self._parse_decl()
            else:
                init = ExprStmt(self.parse_expression())
            self.expect(";")
        cond = None if self.current.text == ";" else self.parse_expression()
        self.expect(";")
        step = None if self.current.text == ")" else self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ForStmt(init, cond, step, body, location=loc)

    def _parse_while(self) -> WhileStmt:
        loc = self.expect("while").location
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return WhileStmt(cond, body, location=loc)

    def _parse_do_while(self) -> WhileStmt:
        loc = self.expect("do").location
        body = self.parse_statement()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return WhileStmt(cond, body, do_while=True, location=loc)

    # -- expressions ---------------------------------------------------------------
    def _nested(self, parse) -> Expr:
        """Parse a sub-expression one nesting level down with ``parse``."""
        if self.depth >= MAX_EXPR_DEPTH:
            raise ParseError(f"expression nested deeper than "
                             f"{MAX_EXPR_DEPTH} levels",
                             self.current.location)
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def parse_expression(self) -> Expr:
        expr = self.parse_assignment()
        while self.accept(","):
            expr = BinaryExpr(",", expr, self.parse_assignment())
        return expr

    def parse_assignment(self) -> Expr:
        lhs = self.parse_conditional()
        tok = self.current
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self.advance()
            rhs = self._nested(self.parse_assignment)
            return AssignExpr(tok.text, lhs, rhs, location=tok.location)
        return lhs

    def parse_conditional(self) -> Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self._nested(self.parse_assignment)
            self.expect(":")
            other = self._nested(self.parse_conditional)
            return ConditionalExpr(cond, then, other)
        return cond

    def parse_binary(self, min_prec: int) -> Expr:
        lhs = self.parse_unary()
        while True:
            tok = self.current
            prec = _PRECEDENCE.get(tok.text) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                return lhs
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = BinaryExpr(tok.text, lhs, rhs, location=tok.location)

    def parse_unary(self) -> Expr:
        tok = self.current
        if tok.kind == "op" and tok.text in ("-", "+", "!", "~", "*", "&"):
            self.advance()
            operand = self._nested(self.parse_unary)
            if tok.text == "+":
                return operand
            return UnaryExpr(tok.text, operand, location=tok.location)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.advance()
            return IncDecExpr(tok.text, self._nested(self.parse_unary),
                              prefix=True, location=tok.location)
        # Cast: '(' type ')' unary
        if tok.text == "(" and self._peek_is_type_after_paren():
            self.expect("(")
            base, _ = self.parse_type_prefix()
            pointers = 0
            while self.accept("*"):
                pointers += 1
            self.expect(")")
            return CastExpr(CType(base, pointers),
                            self._nested(self.parse_unary),
                            location=tok.location)
        return self.parse_postfix()

    def _peek_is_type_after_paren(self) -> bool:
        nxt = self.peek()
        return nxt.kind == "keyword" and nxt.text in _BASE_TYPES + (
            "const", "unsigned", "signed")

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            tok = self.current
            if tok.text == "[":
                self.advance()
                index = self._nested(self.parse_expression)
                self.expect("]")
                expr = IndexExpr(expr, index, location=tok.location)
            elif tok.text == "(" and isinstance(expr, NameRef):
                self.advance()
                args: list[Expr] = []
                if not self.accept(")"):
                    while True:
                        args.append(self._nested(self.parse_assignment))
                        if not self.accept(","):
                            break
                    self.expect(")")
                expr = CallExpr(expr.name, args, location=tok.location)
            elif tok.kind == "op" and tok.text in ("++", "--"):
                self.advance()
                expr = IncDecExpr(tok.text, expr, prefix=False,
                                  location=tok.location)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            text = tok.text.rstrip("uUlL")
            return IntLiteral(int(text, 0), location=tok.location)
        if tok.kind == "float":
            self.advance()
            is_single = tok.text[-1] in "fF"
            text = tok.text.rstrip("fF")
            return FloatLiteral(float(text), is_single, location=tok.location)
        if tok.kind == "ident":
            self.advance()
            return NameRef(tok.text, location=tok.location)
        if tok.text == "(":
            self.advance()
            expr = self._nested(self.parse_expression)
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)


def _fold_int(expr: Expr) -> int | None:
    """Constant-fold an integer expression (for array dimensions)."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, UnaryExpr) and expr.op == "-":
        inner = _fold_int(expr.operand)
        return -inner if inner is not None else None
    if isinstance(expr, BinaryExpr):
        lhs = _fold_int(expr.lhs)
        rhs = _fold_int(expr.rhs)
        if lhs is None or rhs is None:
            return None
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: a // b,
               "%": lambda a, b: a % b, "<<": lambda a, b: a << b,
               ">>": lambda a, b: a >> b}
        fn = ops.get(expr.op)
        return fn(lhs, rhs) if fn else None
    return None


def parse_c(source: str, filename: str = "<input>") -> TranslationUnit:
    """Parse mini-C source text into a translation unit."""
    return Parser(tokenize(source, filename)).parse_translation_unit()
