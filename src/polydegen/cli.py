"""Command line interface.

Four subcommands, all emitting self-verifying JSON documents:

    polydegen family --l 2                 the full family member
    polydegen specialize --l 2 --alpha 1/2 a fiber: tameness word, or the
                                           wildness report when alpha is 0
    polydegen smith --l 1                  the one-variable-up commutator word
    polydegen verify --in doc.json         recompute a document's transcript

Exit codes: 0 every identity verified, 1 a verification failed, 2 usage or
parse errors, or an output that cannot be written (a closed or broken
stdout included).  An error's one ``error:`` line goes to stderr only; when
stderr is closed or broken the line is lost and the exit code stands.

This module keeps arguments and bytes: it parses the command line, builds
and writes payloads, and maps errors to exit codes.  Reading a document,
and checking one, is left to ``documents``.  ``main`` is the in-process
entry and returns the exit code; ``run`` is the process entry of
``python -m polydegen`` and the ``polydegen`` script, and ends the process.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import NoReturn

from .certificates import build_conjugation, build_stabilization, specialized_tameness
from .documents import (
    dumps,
    family_document,
    family_l,
    read_document,
    stabilization_document,
    verify_report,
    wildness_document,
    word_document,
)
from .errors import ParseError, PolydegenError
from .family import build_family
from .parsing import parse_rational


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _say(message: str, stream) -> None:
    """Write and flush ``message`` to ``stream``, or drop it when the stream
    is None (the process started with it closed) or cannot take it (its
    reader has gone): the exit code alone then reports what happened."""
    if stream is not None:
        try:
            stream.write(message)
            stream.flush()
        except OSError:
            pass


class _Parser(argparse.ArgumentParser):
    """Writes argparse's messages through ``_say``, as ``_report`` writes its
    line, so a usage error's lines are dropped when stderr is closed (where
    argparse would write the usage line to stdout) or its reader has gone.
    Only argparse from Python 3.11.7 guards these writes itself."""

    def print_usage(self, file=None) -> None:
        if file is not None:
            super().print_usage(file)

    def _print_message(self, message: str, file=None) -> None:
        _say(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polydegen",
        description="exact tameness and wildness certificates for a degenerating "
        "family of polynomial automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="emit the full family document for one l")
    family.add_argument("--l", type=_positive_int, required=True, help="family index, at least 1")
    family.set_defaults(func=cmd_family)

    specialize = sub.add_parser(
        "specialize",
        help="emit one fiber: a tameness word at alpha != 0, the wildness report at alpha = 0",
    )
    member = specialize.add_mutually_exclusive_group(required=True)
    member.add_argument("--l", type=_positive_int, help="family index, at least 1")
    member.add_argument("--in", dest="input", metavar="PATH", help="family document to read l from")
    specialize.add_argument("--alpha", type=_rational, required=True, help="rational value for t")
    specialize.set_defaults(func=cmd_specialize)

    smith = sub.add_parser("smith", help="emit the four-factor stabilization document")
    smith.add_argument("--l", type=_positive_int, required=True, help="family index, at least 1")
    smith.set_defaults(func=cmd_smith)

    verify = sub.add_parser("verify", help="recompute every identity in a document")
    verify.add_argument("--in", dest="input", metavar="PATH", required=True)
    verify.add_argument("--format", choices=("json", "text"), default="text")
    verify.set_defaults(func=cmd_verify)
    for command in (family, specialize, smith, verify):
        command.add_argument("--out", metavar="PATH", help="write the payload here instead of stdout")
    return parser


def _write(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    elif sys.stdout is None:  # the process started with its stdout closed
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(payload)


def cmd_family(args: argparse.Namespace) -> tuple[str, int]:
    return dumps(family_document(args.l, build_conjugation(*build_family(args.l)))), 0


def cmd_specialize(args: argparse.Namespace) -> tuple[str, int]:
    l = args.l if args.input is None else family_l(read_document(args.input))
    delta, h = build_family(l)
    if args.alpha == 0:
        doc = wildness_document(delta, h, l=l)
    else:
        word = specialized_tameness(build_conjugation(delta, h), args.alpha)
        doc = word_document(word, delta, h, l=l)
    return dumps(doc), 0


def cmd_smith(args: argparse.Namespace) -> tuple[str, int]:
    return dumps(stabilization_document(build_stabilization(*build_family(args.l)), l=args.l)), 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    payload, verified = verify_report(read_document(args.input), args.format)
    return payload, 0 if verified else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _write(payload, args.out)
        return code
    except (ParseError, OSError) as exc:
        _report(exc)
        return 2
    except PolydegenError as exc:
        _report(exc)
        return 1


def _report(exc: Exception) -> None:
    """Write the ``error:`` line of ``exc`` to stderr, if stderr can take it.

    A process started with stderr closed has ``sys.stderr`` None, and a
    stderr whose reader has gone raises OSError; either way the line is
    lost and the exit code alone reports the error.  It never goes to stdout.
    """
    _say(f"error: {exc}\n", sys.stderr)


def _observed() -> bool:
    """Whether a tracer or profiler (``pdb``, ``cProfile``) watches this process."""
    # from Python 3.12 cProfile registers as a sys.monitoring tool (ids 0-5)
    # and leaves sys.getprofile() unset
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def run() -> NoReturn:
    """Run ``main`` as a process: flush its output, then end the process.

    The process ends with ``os._exit``, which skips the interpreter's
    teardown (the final collection, unloading every module and freeing the
    objects still alive), since by then everything the command writes is
    written: ``--out`` files are closed by their ``with`` and both standard
    streams are flushed here.  A stdout that cannot be flushed (a broken
    pipe) gives one ``error:`` line and exit code 2, as an unwritable
    ``--out`` does; a stderr that cannot be flushed loses its line and
    keeps the exit code, as in ``_report``.  Under a tracer or profiler the
    process exits normally, so that they still report; a debugger that has
    stopped tracing (``pdb``'s ``continue`` with no breakpoint set) sees the
    process end.  A usage error or ``--help``, which argparse ends by
    raising ``SystemExit``, ends here the same way; uncaught exceptions
    leave the usual way.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        _report(exc)
        # a normal exit would flush the broken stream once more and report that
        os._exit(2)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        # the error line is lost and the exit code stands, as in _report
        os._exit(code)
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
