"""Pretty printer for terms; inverse of the parser up to alpha equivalence.

Abstraction bodies extend right, application is left associative, and
parentheses are minimal.  Subterms that are literally Church numerals
print as #m{t} unless sugar is disabled.  Rendering is a fold over
(text, precedence) pairs, so term depth costs no Python frames.
"""

from __future__ import annotations

from .terms import OmegaConst, Term, Var, YConst, fold, match_numeral
from .types import type_to_str

_LAM, _APP, _ATOM = 0, 1, 2


def term_to_str(t: Term, sugar: bool = True) -> str:
    # With sugar, a numeral goes to _leaf whole: nothing below it is rendered.
    stop_at_numerals = (lambda s, _: None if match_numeral(s) else True) if sugar else None
    return fold(t, _leaf, lambda s, body: (f"\\{s.var}:{type_to_str(s.var_ty)}. {body[0]}", _LAM),
                _app, stop_at_numerals)[0]


def _leaf(s: Term, _env) -> tuple[str, int]:
    if isinstance(s, Var):
        return s.name, _ATOM
    if isinstance(s, OmegaConst):
        return f"Omega{{{type_to_str(s.ty)}}}", _ATOM
    if isinstance(s, YConst):
        return f"Y{{{type_to_str(s.ty)}}}", _ATOM
    m, alpha = match_numeral(s)  # an abstraction only when it is a numeral
    return f"#{m}{{{type_to_str(alpha)}}}", _ATOM


def _app(_s, fun: tuple[str, int], arg: tuple[str, int]) -> tuple[str, int]:
    fun_text = fun[0] if fun[1] >= _APP else f"({fun[0]})"
    arg_text = arg[0] if arg[1] >= _ATOM else f"({arg[0]})"
    return f"{fun_text} {arg_text}", _APP


__all__ = ["term_to_str"]
