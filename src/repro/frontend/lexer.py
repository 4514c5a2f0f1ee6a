"""Lexer for the mini-C language the workloads are written in.

Supports the C subset that the NAS/Parboil kernel recreations need:
numeric literals, identifiers/keywords, all arithmetic/logic/assignment
operators, comments and a tiny preprocessor (``#define NAME <number>``
object-like macros only; ``#include`` lines are ignored).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexError, SourceLocation

KEYWORDS = frozenset({
    "void", "char", "int", "long", "float", "double", "unsigned", "signed",
    "const", "static", "struct", "if", "else", "for", "while", "do",
    "return", "break", "continue", "sizeof",
})

# Longest-match-first operator table.
OPERATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)

_FLOAT_RE = re.compile(
    r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[fF]?")
_INT_RE = re.compile(r"(?:0[xX][0-9a-fA-F]+|\d+)[uUlL]*")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# One alternation tried in order at each position, so the first group that
# matches wins: whitespace, then float before int before identifier, then
# the operators longest first; any other character is an error. The
# one-character operators, which OPERATORS lists last, form one class
# (that halves the pattern's compile time).
_TOKEN_RE = re.compile("|".join((
    r"(?P<space>[ \t\r\n]+)",
    f"(?P<float>{_FLOAT_RE.pattern})",
    f"(?P<int>{_INT_RE.pattern})",
    f"(?P<ident>{_IDENT_RE.pattern})",
    "(?P<op>" + "|".join(re.escape(op) for op in OPERATORS if len(op) > 1)
    + "|[" + re.escape("".join(op for op in OPERATORS if len(op) == 1))
    + "])",
    r"(?P<bad>[\s\S])",
)))


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'keyword', 'int', 'float', 'op', 'eof'
    text: str
    location: SourceLocation

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def strip_comments(source: str) -> str:
    """Remove // and /* */ comments, preserving line structure."""
    out: list[str] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated block comment")
            out.append("\n" * source.count("\n", i, end + 2))
            i = end + 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def preprocess(source: str) -> str:
    """Apply the tiny preprocessor: object-like numeric #defines.

    ``#include`` lines are dropped. Macro bodies may reference earlier
    macros. Non-numeric or function-like macros are rejected.
    """
    source = strip_comments(source)
    macros: dict[str, str] = {}
    lines_out: list[str] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#include"):
            lines_out.append("")
            continue
        if stripped.startswith("#define"):
            body = stripped[len("#define"):].strip()
            match = re.match(r"([A-Za-z_]\w*)(\(.*?\))?\s*(.*)$", body)
            if not match:
                raise LexError("malformed #define",
                               SourceLocation(lineno, 1))
            if match.group(2):
                raise LexError("function-like macros are not supported",
                               SourceLocation(lineno, 1))
            name, value = match.group(1), match.group(3).strip()
            value = _expand_macros(value, macros)
            macros[name] = value
            lines_out.append("")
            continue
        if stripped.startswith("#"):
            raise LexError(f"unsupported preprocessor directive: {stripped}",
                           SourceLocation(lineno, 1))
        lines_out.append(_expand_macros(line, macros))
    return "\n".join(lines_out)


def _expand_macros(text: str, macros: dict[str, str]) -> str:
    if not macros:
        return text

    def replace(match: re.Match) -> str:
        word = match.group(0)
        expansion = macros.get(word)
        return f"({expansion})" if expansion is not None else word

    # Iterate to support macros referencing macros (bounded to avoid cycles).
    for _ in range(8):
        new = _IDENT_RE.sub(replace, text)
        if new == text:
            return new
        text = new
    return text


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize preprocessed mini-C source."""
    source = preprocess(source)
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        loc = SourceLocation(line, match.start() - line_start + 1, filename)
        if kind == "bad":
            raise LexError(f"unexpected character {text!r}", loc)
        if kind == "ident" and text in KEYWORDS:
            kind = "keyword"
        append(Token(kind, text, loc))
    tokens.append(Token("eof", "", SourceLocation(line, 1, filename)))
    return tokens
