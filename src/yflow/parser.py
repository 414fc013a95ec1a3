"""Parser for the term and type surface syntax: one typed pass from text to term.

Grammar:

    input   ::= context? term
    context ::= "[" (name ":" type ("," name ":" type)*)? "]"
    term    ::= "\\" name ":" type "." term | app
    app     ::= atom atom*                      (left associative)
    atom    ::= name | "Y" "{" type "}" | "Omega" "{" type "}"
              | "#" nat "{" type "}" | "(" term ")"
    type    ::= atype ("->" type)?              (right associative)
    atype   ::= "o" | "(" type ")"

"--" starts a comment running to end of line.  An identifier starts
with a letter (str.isalpha) or "_" and goes on with letters, digits
(str.isalnum) and "_" or "'".  A numeral is a run of ASCII digits; the
tokenizer takes any run of str.isdigit characters, and the parser
rejects one that holds another digit.  Y and Omega are reserved.  "#m{t}"
abbreviates the m-th Church numeral at numeral_type(t).  Free variables
must be declared in the context prefix.

Tokens come from one table-driven pass: a compiled regular expression
whose groups are the token kinds.  The rare words that hold a non-ASCII
letter or digit are split by the str predicates above, where they and
the regular expression classes disagree.

Terms parse in one loop on an explicit stack, with a frame per open
parenthesis, so nesting depth costs no Python frame.  The parser types
as it goes: every term comes with its type, and an application is
checked when it is built, with type_of's messages.  The first ill-typed
application is kept and raised once the whole text has parsed, so a
ParseError anywhere still wins; applications complete in the post-order
in which type_of checks them, so it is the error type_of would raise.
Types parse the same way, with a frame per open parenthesis.

A type follows every ":" and "{", so the parser's own token list holds
the type tokens after one as a single run.  Each distinct run text is
parsed once per parse_term call, whose annotation cache lives only that
long.  Types are interned process wide, so check_app is an identity test.
"""

from __future__ import annotations

import re

from .terms import (App, Lam, OmegaConst, Term, TypingError, Var, YConst, check_app,
                    church_numeral)
from .types import Arrow, GROUND, SimpleType, numeral_type


class ParseError(Exception):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: {message}")
        self.pos = pos
        self.line = line
        self.column = col


_PUNCT = {
    "->": "ARROW",
    "\\": "LAMBDA",
    ".": "DOT",
    ":": "COLON",
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    "#": "HASH",
}

RESERVED = {"Y", "Omega"}

# \w is exactly str.isalnum plus "_"; an ASCII letter or digit is what
# isalpha or isdigit says it is, so only group 6 needs a closer look.  A
# type follows every ":" and "{", so group 2 takes the run of type
# tokens after one whole.  Blanks after a token go with its match.
_TOKEN = re.compile(r"""
    [ \t\r\n]+                                                  # leading blanks
  | (?: --[^\n]*                                                # a comment
      | ([:{]) ((?:[ \t\r\n]+|--[^\n]*|->|[()]|o(?![\w']))*)   # 1 type opener, 2 type tokens
      | (->|[\\.,()}\[\]\#])                                    # 3 other punctuation
      | ([A-Za-z_][\w']*)                                       # 4 identifier with an ASCII start
      | ([0-9]+)(?![\w'])                                       # 5 ASCII numeral, nothing glued on
      | (\w[\w']*)                                              # 6 any other word
      | (.)                                                     # 7 no token starts here
    ) [ \t\r\n]*
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, lexeme, position) triples, terminated by ("EOF", "", len)."""
    toks = _tokens(text, 0, len(text), False)
    toks.append(("EOF", "", len(text)))
    return toks


def _tokens(text: str, pos: int, endpos: int, runs: bool) -> list[tuple[str, str, int]]:
    """The tokens of text[pos:endpos]; with runs, the type tokens after a
    ":" or "{" stay one ("TYPE", their text, position) token."""
    toks = []
    append = toks.append
    for m in _TOKEN.finditer(text, pos, endpos):
        group = m.lastindex
        if group == 3:
            append((_PUNCT[m[3]], m[3], m.start()))
        elif group == 4:
            append(("IDENT", m[4], m.start()))
        elif group == 2:
            append((_PUNCT[m[1]], m[1], m.start()))
            if runs:
                append(("TYPE", m[2], m.end(1)))
            elif m[2]:
                toks += _tokens(text, m.end(1), m.end(2), False)
        elif group == 5:
            append(("NAT", m[5], m.start()))
        elif group == 6:
            _split_word(m[6], m.start(), text, append)
        elif group == 7:
            raise ParseError(f"unexpected character {m[7]!r}", text, m.start())
    return toks


def _split_word(word: str, pos: int, text: str, append) -> None:
    """A word as tokens: its leading isdigit run, then an identifier."""
    k = 0
    while k < len(word) and word[k].isdigit():
        k += 1
    if k:
        append(("NAT", word[:k], pos))
    if k < len(word):
        c = word[k]
        if not (c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r}", text, pos + k)
        append(("IDENT", word[k:], pos + k))


_ATOM_START = frozenset(("IDENT", "LPAREN", "HASH"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokens(text, 0, len(text), True)
        self.toks.append(("EOF", "", len(text)))
        self.i = 0
        self.annotations: dict[str, SimpleType] = {}  # annotation text -> its type
        self.error: TypingError | None = None  # the first, raised after the EOF check

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}",
                             self.text, tok[2])
        return tok

    # -- types ------------------------------------------------------------

    def type_(self) -> SimpleType:
        """A type, in one loop on an explicit stack: a frame per open "("
        holds the domains read before it at its level, each waiting for
        the codomain to its right."""
        toks = self.toks
        frames: list[list[SimpleType]] = []  # the enclosing levels, innermost last
        domains: list[SimpleType] = []
        while True:
            kind, lexeme, pos = toks[self.i]
            self.i += 1
            if kind == "LPAREN":
                frames.append(domains)
                domains = []
                continue
            if kind != "IDENT" or lexeme != "o":
                raise ParseError(f"expected a type, found {lexeme or 'end of input'!r}",
                                 self.text, pos)
            ty = GROUND
            while toks[self.i][0] != "ARROW":  # ty ends its level
                for dom in reversed(domains):
                    ty = Arrow(dom, ty)
                if not frames:
                    return ty
                self.expect("RPAREN")
                domains = frames.pop()
            self.i += 1
            domains.append(ty)

    def annotation(self) -> SimpleType:
        """The type after a ":" or "{", from the TYPE token that follows
        one, parsed once per text.

        A text seen first is parsed from its tokens as tokenize gives
        them, followed by the token after the run.  In valid input the
        type takes the whole run and is stored.  A parse that stops short
        leaves a type token where the caller expects none; the rest of the
        run goes back in the token list, for the caller to reject.
        """
        i, toks = self.i, self.toks
        _, run, pos = toks[i]
        ty = self.annotations.get(run)
        if ty is None:
            tokens = _tokens(self.text, pos, pos + len(run), False)
            self.toks, self.i = tokens + [toks[i + 1]], 0
            ty = self.type_()
            stop, self.toks = self.i, toks
            if stop < len(tokens):
                toks[i:i + 1] = tokens[stop:]
                self.i = i
                return ty
            self.annotations[run] = ty
        self.i = i + 1
        return ty

    def braced_type(self) -> SimpleType:
        self.expect("LBRACE")
        ty = self.annotation()
        self.expect("RBRACE")
        return ty

    # -- terms ------------------------------------------------------------

    def context(self) -> dict[str, SimpleType]:
        ctx: dict[str, SimpleType] = {}
        if self.peek()[0] != "LBRACKET":
            return ctx
        self.next()
        if self.peek()[0] == "RBRACKET":
            self.next()
            return ctx
        while True:
            kind, name, pos = self.expect("IDENT")
            if name in RESERVED:
                raise ParseError(f"{name} is reserved", self.text, pos)
            if name in ctx:
                raise ParseError(f"{name} is declared twice in context", self.text, pos)
            self.expect("COLON")
            ctx[name] = self.annotation()
            kind, lexeme, pos = self.next()
            if kind == "RBRACKET":
                return ctx
            if kind != "COMMA":
                raise ParseError("expected ',' or ']' in context", self.text, pos)

    def term(self, scope: dict[str, SimpleType]) -> tuple[Term, SimpleType]:
        """A term and its type, on an explicit stack; scope maps names in
        scope to their types and is restored before returning.  A frame
        per open "(", and one for the whole term, holds the binders opened
        before its first atom, each with the entry it shadows, and its
        application so far; the binders close where the application ends."""
        toks = self.toks
        frames: list[tuple] = []  # the enclosing frames, innermost last
        binders: list[tuple[str, SimpleType, SimpleType | None]] = []
        fun = fun_ty = None
        while True:
            if fun is None:
                while toks[self.i][0] == "LAMBDA":
                    self.i += 1
                    _, name, pos = self.expect("IDENT")
                    if name in RESERVED:
                        raise ParseError(f"{name} is reserved", self.text, pos)
                    self.expect("COLON")
                    ty = self.annotation()
                    self.expect("DOT")
                    binders.append((name, ty, scope.get(name)))
                    scope[name] = ty
            if toks[self.i][0] == "LPAREN":
                self.i += 1
                frames.append((binders, fun, fun_ty))
                binders, fun, fun_ty = [], None, None
                continue
            t, ty = self.atom(scope)
            while True:  # t joins the application; a completed frame's term is an atom
                if fun is None:
                    fun, fun_ty = t, ty
                else:
                    fun = App(fun, t)
                    if self.error is None:
                        try:
                            fun_ty = check_app(fun, fun_ty, ty)
                        except TypingError as e:
                            self.error = e
                if toks[self.i][0] in _ATOM_START:
                    break
                for name, ty, outer in reversed(binders):
                    fun, fun_ty = Lam(name, ty, fun), Arrow(ty, fun_ty)
                    if outer is None:
                        del scope[name]
                    else:
                        scope[name] = outer
                if not frames:
                    return fun, fun_ty
                self.expect("RPAREN")
                t, ty = fun, fun_ty
                binders, fun, fun_ty = frames.pop()

    def atom(self, scope: dict[str, SimpleType]) -> tuple[Term, SimpleType]:
        """A name, a constant or a numeral; term opens parentheses itself."""
        kind, lexeme, pos = self.toks[self.i]
        self.i += 1
        if kind == "IDENT":
            if lexeme == "Y":
                ty = self.braced_type()
                return YConst(ty), Arrow(Arrow(ty, ty), ty)
            if lexeme == "Omega":
                ty = self.braced_type()
                return OmegaConst(ty), ty
            ty = scope.get(lexeme)
            if ty is None:
                raise ParseError(f"unbound variable {lexeme}", self.text, pos)
            return Var(lexeme, ty), ty
        if kind == "HASH":
            _, digits, at = self.expect("NAT")
            if not digits.isascii():
                raise ParseError(f"expected NAT, found {digits!r}", self.text, at)
            m = int(digits)
            alpha = self.braced_type()
            return church_numeral(m, alpha), numeral_type(alpha)
        raise ParseError(f"expected a term, found {lexeme or 'end of input'!r}",
                         self.text, pos)

    def end(self) -> None:
        kind, lexeme, pos = self.peek()
        if kind != "EOF":
            raise ParseError(f"trailing input {lexeme!r}", self.text, pos)


def parse_type(text: str) -> SimpleType:
    p = _Parser(text)
    ty = p.type_()
    p.end()
    return ty


def _parse_typed(text: str) -> tuple[Term, SimpleType]:
    """The term and its type; the optional [x:t, ...] prefix types free variables."""
    p = _Parser(text)
    typed = p.term(p.context())
    p.end()
    if p.error is not None:
        raise p.error
    return typed


def parse_term(text: str) -> Term:
    """Parse and type-check; the optional [x:t, ...] prefix types free variables."""
    return _parse_typed(text)[0]


__all__ = ["ParseError", "parse_term", "parse_type", "tokenize"]
