"""Deciding normalization properties through the finite semantics.

The verdicts come from evaluating the term as it stands (fixed points
solved where the test reads them) and applying the appropriate test element.
Reduction never participates in a verdict; it only extracts the witness
afterwards.

A verdict computes no domain height.  The witness extraction goes
through truncation: each Y at recursion type s is replaced by the finite
unfolding of depth height(s), which bottoms out in a constant instead of
recursing further.  The truncation is deep enough that the semantics
cannot tell the two terms apart, so on a positive verdict the
truncation's normal form, which always exists, is a normal form of the
original.  The normalizer unfolds each Y itself, only as far as
readback forces it, so the truncated term (tilde_Y) is built only to
report a failed certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .printer import term_to_str
from .reduction import _normal_form
from .semantics import eval_term, head_test_t, height, test_t
from .terms import Term, y_truncate, y_types
from .types import SimpleType, type_to_str


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of one semantic decision: the verdict is the computed
    ground test value."""

    kind: str  # "nf" or "hnf"
    verdict: bool
    subject_type: SimpleType
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "test_value": "top" if self.verdict else "bot",
            "type": type_to_str(self.subject_type),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


class AnalysisInvariantError(Exception):
    """A verdict and the reduction evidence disagree.

    This is never expected; it means a bug in the truncation, the
    semantics or the normalizer, and the offending artifacts are
    attached for inspection.
    """

    def __init__(self, message: str, term: Term, truncated: Term, nf: Term | None,
                 report: AnalysisReport):
        super().__init__(message)
        self.term = term
        self.truncated = truncated
        self.nf = nf
        self.report = report


def truncation_depths(t: Term) -> dict[SimpleType, int]:
    """The unfolding depth used for each recursion type occurring in t."""
    return {ty: height(ty) for ty in y_types(t)}


def tilde_Y(t: Term) -> Term:
    """Replace every fixed-point constant by its height-deep unfolding."""
    return y_truncate(t, truncation_depths(t))


def _decide(t: Term, kind: str) -> AnalysisReport:
    start = time.perf_counter()
    value = eval_term(t)
    test = head_test_t(value.ty) if kind == "hnf" else test_t(value.ty)
    flag = test.apply(value).flag
    elapsed = (time.perf_counter() - start) * 1000.0
    return AnalysisReport(kind=kind, verdict=flag, subject_type=value.ty, elapsed_ms=elapsed)


def has_normal_form(t: Term) -> AnalysisReport:
    """Decide whether the closed term t reduces to a constant-free normal form."""
    return _decide(t, "nf")


def has_head_normal_form(t: Term) -> AnalysisReport:
    """Decide whether the closed term t reduces to a head normal form
    whose head is not a constant."""
    return _decide(t, "hnf")


def certified_normalize(t: Term, report: AnalysisReport | None = None) -> Term | None:
    """Normal form of t, or None when the semantic test refutes one.

    On a positive verdict the truncation of t is normalized, with each Y
    unfolded inside the normalizer; the result must be free of bottom
    constants and is then a normal form of t itself.  A constant
    surviving in the output voids the certificate and raises
    AnalysisInvariantError rather than returning quietly.  Pass the
    report of has_normal_form(t) to skip re-deciding.  Only a positive
    verdict computes truncation_depths(t), so only it needs the heights.
    """
    if report is None:
        report = has_normal_form(t)
    if not report.verdict:
        return None
    depths = truncation_depths(t)
    nf, _, bottoms = _normal_form(t, None, depths=depths)
    if bottoms:
        raise AnalysisInvariantError(
            f"positive verdict but the normalized truncation kept a bottom "
            f"constant: {term_to_str(nf)}",
            term=t, truncated=y_truncate(t, depths), nf=nf, report=report,
        )
    return nf


__all__ = [
    "AnalysisInvariantError",
    "AnalysisReport",
    "certified_normalize",
    "has_head_normal_form",
    "has_normal_form",
    "tilde_Y",
    "truncation_depths",
]
