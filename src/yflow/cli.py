"""Command line front end for the workbench.

Exit status: 0 on success, 1 when a flagged analysis answers negatively
(no normal form, improper, refuted table, failed pipeline, fuel
exhausted), 2 on any error.  Every failure path names the stage that
failed; with --json a machine-readable error record also goes to
stdout.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys

import click

from .analysis import (
    AnalysisInvariantError,
    certified_normalize,
    has_head_normal_form,
    has_normal_form,
    tilde_Y,
)
from .harness import (
    PipelineError,
    check_defines,
    conservativity_pipeline,
    load_spec_file,
    recursion_depth_probe,
)
from .parser import ParseError, parse_term, parse_type
from .printer import term_to_str
from .reduction import (
    DEFAULT_FUEL,
    BlackHoleError,
    Normal,
    classify_properness,
    eliminate_omega,
    long_normal_form,
    normalize,
    term_size,
)
from .semantics import (
    DomainTooLarge,
    FixpointInvariantError,
    dump_domain,
    enumerate_domain,
    eval_term,
    height,
    render_domain,
    render_element,
    set_default_size_limit,
)
from .terms import TypingError, term_to_tree, tilde_omega_map, type_of
from .types import type_to_str


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the stream that stdout or stderr is now.

    Without a file, click.echo caches a wrapper per stream that keeps the
    stream alive, so every in-process invocation (CliRunner) would leak
    its captured output; get_text_stream resolves the same wrapper uncached.
    """
    stream = click.get_text_stream("stderr" if err else "stdout", errors=None)
    click.echo(message, file=stream, nl=nl)


def _fail(stage: str, message: str, as_json: bool):
    if as_json:
        _echo(json.dumps({"error": message, "stage": stage}, sort_keys=True))
    _echo(f"error [{stage}]: {message}", err=True)
    sys.exit(2)


class _NestingError(Exception):
    """A RecursionError, attributed to the stage that raised it."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


@contextlib.contextmanager
def _stage(stage: str):
    """Report a RecursionError raised inside as a failure of `stage`."""
    try:
        yield
    except RecursionError as e:
        raise _NestingError(stage) from e


def guarded(fn):
    """Translate module errors into attributed exit-2 failures."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        as_json = bool(kwargs.get("as_json"))
        try:
            return fn(*args, **kwargs)
        except ParseError as e:
            _fail("parse", str(e), as_json)
        except TypingError as e:
            _fail("typing", str(e), as_json)
        except DomainTooLarge as e:
            _fail("semantics", f"undecided at the configured size limit: {e}", as_json)
        except PipelineError as e:
            _fail(e.stage, str(e), as_json)
        except (AnalysisInvariantError, FixpointInvariantError) as e:
            _fail("invariant", str(e), as_json)
        except _NestingError as e:
            _fail(e.stage, "term nesting exceeds the interpreter limit", as_json)
        except RecursionError:
            _fail("input", "term nesting exceeds the interpreter limit", as_json)
        except (ValueError, RuntimeError, OSError) as e:
            _fail("input", str(e), as_json)

    return wrapper


def term_options(fn):
    fn = click.option("--file", "-f", "file", type=click.File("r"),
                      help="Read the term from a file instead.")(fn)
    fn = click.argument("term_text", metavar="[TERM]", required=False)(fn)
    return fn


def json_option(fn):
    return click.option("--json", "as_json", is_flag=True,
                        help="Emit a structured record.")(fn)


def sugar_option(fn):
    return click.option("--no-sugar", is_flag=True,
                        help="Print numerals structurally.")(fn)


def _read_term(term_text, file):
    if (term_text is None) == (file is None):
        raise click.UsageError("give a term inline or via --file, not both")
    text = file.read() if file is not None else term_text
    with _stage("parse"):
        return parse_term(text)


def _echo_json(obj) -> None:
    _echo(json.dumps(obj, sort_keys=True))


def _echo_term(t, no_sugar: bool, as_json: bool) -> None:
    """Print a result term, or its {"term", "size"} record under --json."""
    if as_json:
        _echo_json({"term": term_to_str(t, sugar=not no_sugar), "size": term_size(t)})
    else:
        _echo(term_to_str(t, sugar=not no_sugar))


@click.group()
@click.option("--size-limit", type=click.IntRange(min=2), envvar="YFLOW_SIZE_LIMIT", default=None,
              metavar="N", help="Domain enumeration bound for this invocation "
              "(env YFLOW_SIZE_LIMIT).")
def main(size_limit):
    """Workbench for simply typed lambda terms with recursion and bottom
    constants: normalization, finite-domain evaluation, decision
    procedures and numeral definability checks."""
    if size_limit is not None:
        set_default_size_limit(size_limit)


@main.command("parse")
@term_options
@sugar_option
@json_option
@guarded
def parse_cmd(term_text, file, no_sugar, as_json):
    """Parse a term, print its canonical rendering."""
    t = _read_term(term_text, file)
    ty = type_of(t, {})
    if as_json:
        _echo_json({"term": term_to_str(t, sugar=not no_sugar),
                    "type": type_to_str(ty), "size": term_size(t),
                    "tree": term_to_tree(t)})
    else:
        _echo(term_to_str(t, sugar=not no_sugar))


@main.command("typecheck")
@term_options
@json_option
@guarded
def typecheck_cmd(term_text, file, as_json):
    """Print the type of a closed term."""
    t = _read_term(term_text, file)
    ty = type_of(t, {})
    if as_json:
        _echo_json({"type": type_to_str(ty)})
    else:
        _echo(type_to_str(ty))


@main.command("normalize")
@term_options
@click.option("--fuel", type=click.IntRange(min=0), default=DEFAULT_FUEL, show_default=True,
              help="Contraction budget: beta steps and Y unfoldings.")
@sugar_option
@json_option
@guarded
def normalize_cmd(term_text, file, fuel, no_sugar, as_json):
    """Reduce to beta-eta normal form within the fuel budget.

    Exit 1 when the budget runs out or the term has no normal form."""
    t = _read_term(term_text, file)
    try:
        outcome = normalize(t, fuel=fuel)
    except BlackHoleError as e:
        reason, message = "black hole", f"no normal form: {e}"
    else:
        if isinstance(outcome, Normal):
            if as_json:
                _echo_json({"normalized": True, "steps": outcome.steps,
                            "term": term_to_str(outcome.term, sugar=not no_sugar)})
            else:
                _echo(term_to_str(outcome.term, sugar=not no_sugar))
            return
        reason, message = "fuel exhausted", f"fuel exhausted after {fuel} steps"
    if as_json:
        _echo_json({"normalized": False, "fuel": fuel, "reason": reason})
    else:
        _echo(message, err=True)
    sys.exit(1)


@main.command("long-nf")
@term_options
@sugar_option
@json_option
@guarded
def long_nf_cmd(term_text, file, no_sugar, as_json):
    """Print the long (eta-expanded) normal form of a fixed-point-free term."""
    _echo_term(long_normal_form(_read_term(term_text, file)), no_sugar, as_json)


@main.command("proper")
@term_options
@json_option
@guarded
def proper_cmd(term_text, file, as_json):
    """Check whether the long normal form mentions a bottom constant.

    Exit 1 when it does."""
    t = _read_term(term_text, file)
    nf = long_normal_form(t)
    verdict = classify_properness(nf)
    if as_json:
        _echo_json({"proper": bool(verdict),
                    "path": None if verdict else verdict.render_path(),
                    "long_normal_form": term_to_str(nf)})
    elif verdict:
        _echo("proper")
    else:
        _echo(f"improper at {verdict.render_path()}")
    if not verdict:
        sys.exit(1)


@main.command("eval")
@term_options
@json_option
@guarded
def eval_cmd(term_text, file, as_json):
    """Evaluate a closed term and print its domain element."""
    t = _read_term(term_text, file)
    with _stage("semantics"):
        value = eval_term(t)
    if as_json:
        _echo_json({"value": render_element(value), "type": type_to_str(value.ty)})
    else:
        _echo(render_element(value))


@main.command("height")
@click.argument("type_text", metavar="TYPE")
@json_option
@guarded
def height_cmd(type_text, as_json):
    """Longest strict ascending chain length in the domain at TYPE."""
    ty = parse_type(type_text)
    h = height(ty)
    if as_json:
        _echo_json({"type": type_to_str(ty), "height": h})
    else:
        _echo(str(h))


@main.command("domain")
@click.argument("type_text", metavar="TYPE")
@json_option
@guarded
def domain_cmd(type_text, as_json):
    """Dump the domain at TYPE: elements in canonical order plus covers."""
    ty = parse_type(type_text)
    dom = enumerate_domain(ty)
    if as_json:
        _echo_json({"type": type_to_str(ty), "size": len(dom),
                    "elements": render_domain(dom), "covers": dom.covers()})
    else:
        _echo(dump_domain(dom), nl=False)


@main.command("decide-nf")
@term_options
@json_option
@guarded
def decide_nf_cmd(term_text, file, as_json):
    """Decide whether a closed term has a beta-eta normal form.

    Exit 1 on a negative verdict."""
    t = _read_term(term_text, file)
    with _stage("semantics"):
        report = has_normal_form(t)
    if as_json:
        _echo_json(report.to_json())
    else:
        _echo("normal form exists" if report.verdict else "no normal form")
    if not report.verdict:
        sys.exit(1)


@main.command("decide-hnf")
@term_options
@json_option
@guarded
def decide_hnf_cmd(term_text, file, as_json):
    """Decide whether a closed term has a head normal form.

    Exit 1 on a negative verdict."""
    t = _read_term(term_text, file)
    with _stage("semantics"):
        report = has_head_normal_form(t)
    if as_json:
        _echo_json(report.to_json())
    else:
        _echo("head normal form exists" if report.verdict
              else "no head normal form")
    if not report.verdict:
        sys.exit(1)


@main.command("certify-nf")
@term_options
@sugar_option
@json_option
@guarded
def certify_nf_cmd(term_text, file, no_sugar, as_json):
    """Decide normalizability and print the extracted normal form.

    Exit 1 when no normal form exists."""
    t = _read_term(term_text, file)
    with _stage("semantics"):
        report = has_normal_form(t)
    nf = certified_normalize(t, report)
    if as_json:
        record = report.to_json()
        record["normal_form"] = None if nf is None else term_to_str(
            nf, sugar=not no_sugar)
        _echo_json(record)
    elif nf is None:
        _echo("no normal form")
    else:
        _echo(term_to_str(nf, sugar=not no_sugar))
    if nf is None:
        sys.exit(1)


@main.command("tilde-y")
@term_options
@sugar_option
@json_option
@guarded
def tilde_y_cmd(term_text, file, no_sugar, as_json):
    """Replace fixed points by their height-deep truncated unfoldings."""
    _echo_term(tilde_Y(_read_term(term_text, file)), no_sugar, as_json)


@main.command("tilde-omega")
@term_options
@sugar_option
@json_option
@guarded
def tilde_omega_cmd(term_text, file, no_sugar, as_json):
    """Expand higher-type bottom constants to ground ones."""
    _echo_term(tilde_omega_map(_read_term(term_text, file)), no_sugar, as_json)


@main.command("eliminate-omega")
@term_options
@click.option("--numeral-args", type=int, default=None, metavar="K",
              help="Read the type as K numeral arguments before the "
                   "numeral result (default: as many as possible).")
@sugar_option
@json_option
@guarded
def eliminate_omega_cmd(term_text, file, numeral_args, no_sugar, as_json):
    """Rewrite a ground-bottom term at numeral type into a pure one."""
    out = eliminate_omega(_read_term(term_text, file), numeral_args=numeral_args)
    _echo_term(out, no_sugar, as_json)


@main.command("check-defines")
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@json_option
@guarded
def check_defines_cmd(specfile, as_json):
    """Check a term against a function table file.

    Exit 1 when refuted."""
    spec, term = load_spec_file(specfile)
    verdict = check_defines(term, spec)
    if as_json:
        _echo_json(verdict.to_json())
    else:
        _echo(verdict.render_table())
        if verdict.consistent:
            _echo("consistent")
        else:
            _echo(f"refuted at {verdict.witness.args}")
    if not verdict.consistent:
        sys.exit(1)


@main.command("pipeline")
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@json_option
@guarded
def pipeline_cmd(specfile, as_json):
    """Truncate, expand and eliminate bottoms, then re-check the table.

    Exit 1 when the extracted pure term fails to match."""
    spec, term = load_spec_file(specfile)
    result = conservativity_pipeline(term, spec)
    if as_json:
        _echo_json(result.to_json())
    else:
        _echo(result.render())
    if not result.holds:
        sys.exit(1)


@main.command("depth-probe")
@term_options
@click.option("--first-zero", "-m", type=int, required=True, metavar="M",
              help="Where the tested function is first claimed to be zero.")
@click.option("--alpha", default="o", show_default=True, metavar="TYPE",
              help="Numeral parameter type.")
@click.option("--depth", type=int, required=True, help="Unfolding budget.")
@json_option
@guarded
def depth_probe_cmd(term_text, file, first_zero, alpha, depth, as_json):
    """Run the depth-bounded zero search against a tested function."""
    t = _read_term(term_text, file)
    report = recursion_depth_probe(t, first_zero, parse_type(alpha), depth)
    if as_json:
        _echo_json(report.to_json())
    else:
        _echo(report.render())


if __name__ == "__main__":
    main()
