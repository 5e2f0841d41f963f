"""Command-line frontend: parse, enumerate, verify, trace, generate.

Exit codes: 0 on success, 1 for input or configuration errors (unreadable
files, parse errors, size guards, bad flags) and for a stdout closed by its
reader, 2 for internal violations (invariant check failures, verification
mismatches).  The single search writes extensions as they are found, so a
run that exits with 1 or 2 during the search may leave part of its output on
stdout; the split search (:mod:`~stabenum.split`) writes its first line only
once every later part is searched, and nothing where it returns None.

:func:`main` pauses the cyclic garbage collector for its call and restores
it; the other functions change no process state.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys
from collections.abc import Sequence

from . import label_enum, set_enum, split
from .formats import ParseDiagnostic, ParseError, parse_apx, parse_tgf, write_extensions
from .framework import Framework, Frozen, UnknownArgument
from .generators import GenSpec, random_af
from .invariants import Checker, InvariantViolation, check_label_state, check_set_state
from .oracle import TooLarge, enumerate_bruteforce, is_stable
from .strategies import NO_PROBE, STRATEGIES, FanOut, Probe, deliver

TASKS = ("EE-ST", "SE-ST", "CE-ST")
ENGINES = ("bruteforce", "set", "label")
FORMATS = ("apx", "tgf")


class RunConfig(Frozen):
    """The options of one run; a bad value raises ``ValueError`` naming its field.

    The defaults are the CLI's.  Configs are immutable values (see
    :class:`~stabenum.framework.Frozen`): equal, and hashing alike, when all
    seven fields are equal.
    """

    __slots__ = ("task", "engine", "format", "order", "check_invariants", "trace", "verify")

    def __init__(
        self,
        task: str = "EE-ST",
        engine: str = "label",
        format: str | None = None,  # None = auto-detect from the file extension
        order: str = "lex",
        check_invariants: bool = False,
        trace: str | None = None,
        verify: bool = False,
    ) -> None:
        for name, value, allowed in (("task", task, TASKS), ("engine", engine, ENGINES),
                                     ("format", format, (None, *FORMATS)),
                                     ("order", order, tuple(STRATEGIES))):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if trace is not None and engine != "label":
            raise ValueError("--trace requires the label engine")
        if check_invariants and engine == "bruteforce":
            raise ValueError("--check-invariants requires the set or label engine")
        self._fill(task, engine, format, order, check_invariants, trace, verify)


def detect_format(source: str) -> str | None:
    """The format named by the suffix of ``source``, in any case; else None."""
    lowered = source.lower()
    for fmt in FORMATS:
        if lowered.endswith("." + fmt):
            return fmt
    return None


# digits per conversion of a printed count: Python refuses to convert an int
# of more digits than its limit (4,300 by default, at least 640) to a string
_DIGITS = 600


def _decimal(k: int) -> str:
    """The decimal digits of the count ``k >= 0``, converted :data:`_DIGITS`
    digits at a time, so that a count of any size prints under Python's
    digit limit without changing it."""
    unit = 10**_DIGITS
    pieces: list[str] = []
    while k >= unit:
        k, low = divmod(k, unit)
        pieces.append(f"{low:0{_DIGITS}d}")
    pieces.append(str(k))
    return "".join(reversed(pieces))


class _NotStable(Exception):
    """``--verify`` found a reported set that is not stable."""


def execute(config: RunConfig, f: Framework) -> int:
    """Enumerate on an already-built framework; returns the exit code.

    The order is picked once.  ``EE-ST`` and ``CE-ST`` without a probe and
    without ``--verify`` first search each independent part of it apart
    (see :mod:`~stabenum.split`), with the same output.  Where the split
    returns None, and for every other run, the single search runs here; its
    sink verifies (with ``--verify``) and writes each extension as it is found.
    """
    limit = 1 if config.task == "SE-ST" else None
    verify, write = config.verify, config.task != "CE-ST"

    def report(ext: tuple[int, ...]) -> None:
        if verify and not is_stable(f, ext):
            raise _NotStable([f.names[x] for x in ext])
        if write:
            write_extensions([ext], f.names, sys.stdout)

    try:
        with (
            open(config.trace, "w", encoding="utf-8")
            if config.trace is not None
            else contextlib.nullcontext()
        ) as trace:
            sink = report if verify or write else None
            if config.engine == "bruteforce":
                count = deliver(enumerate_bruteforce(f), sink, limit)
            else:
                engine = set_enum if config.engine == "set" else label_enum
                probe: Probe = NO_PROBE
                if config.check_invariants:
                    check = check_set_state if engine is set_enum else check_label_state
                    probe = Checker(f, check)
                if trace is not None:
                    import json  # only traces need it; a cold start skips the import

                    tracer = label_enum.Tracer(
                        f, lambda event: trace.write(json.dumps(event) + "\n")
                    )
                    probe = tracer if probe is NO_PROBE else FanOut(tracer, probe)
                # a permutation by construction, so the split takes it unchecked
                order = STRATEGIES[config.order](f)
                count = None
                if probe is NO_PROBE and limit is None and not verify:
                    count = (split.write(engine, f, order, sys.stdout.write) if write
                             else split.count(engine, f, order))
                if count is None:
                    count = engine.enumerate_extensions(f, order, sink, probe=probe, limit=limit)
        if config.task == "CE-ST":
            sys.stdout.write(f"COUNT {_decimal(count)}\n")
        elif config.task == "SE-ST" and count == 0:
            sys.stdout.write("NO\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone (``| head -1``): point the descriptor at the
        # null device, or flushing what is still buffered at exit raises again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()  # raises for a stdout without a descriptor
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1
    except OSError as exc:
        print(f"stabenum: {exc}", file=sys.stderr)
        return 1
    except TooLarge as exc:
        print(f"stabenum: {config.engine} engine: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"stabenum: invariant violation: {exc}", file=sys.stderr)
        return 2
    except _NotStable as exc:
        print(f"stabenum: verification failed: reported set {exc} is not stable", file=sys.stderr)
        return 2
    return 0


def run(config: RunConfig, text: str, source: str = "<input>") -> int:
    """Parse ``text`` and enumerate; returns the exit code."""
    fmt = config.format or detect_format(source)
    if fmt is None:
        print(
            f"stabenum: cannot detect format of {source!r}; pass --format",
            file=sys.stderr,
        )
        return 1
    diagnostics: list[ParseDiagnostic] = []
    try:
        f = parse_apx(text, diagnostics) if fmt == "apx" else parse_tgf(text, diagnostics)
    except (ParseError, UnknownArgument) as exc:
        print(f"{source}:{exc.line}: {exc.message}", file=sys.stderr)
        return 1
    for diag in diagnostics:
        print(f"{source}:{diag.line}: warning: {diag.message}", file=sys.stderr)
    return execute(config, f)


def parse_gen(text: str) -> GenSpec:
    """Parse ``N,P,SEED[,selfloops]``."""
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ValueError("--gen takes N,P,SEED[,selfloops]")
    n = int(parts[0])
    p = float(parts[1])
    seed = int(parts[2])
    allow = False
    if len(parts) == 4:
        if parts[3] != "selfloops":
            raise ValueError(f"unknown --gen option {parts[3]!r}")
        allow = True
    return GenSpec(n=n, p=p, allow_self_loops=allow, seed=seed)


class _ArgumentParser(argparse.ArgumentParser):
    # exit 1 on usage errors; 2 is reserved for internal violations
    def error(self, message: str) -> None:  # pragma: no cover - thin wrapper
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parse_args leaves
    # the parser as it was.  An option left off the command line is missing
    # from the namespace, so RunConfig supplies every default
    parser = _ArgumentParser(
        prog="stabenum",
        description="Enumerate the stable extensions of an argumentation framework.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("input", nargs="?", help="framework file (.apx or .tgf)")
    parser.add_argument("--task", choices=TASKS,
                        help="enumerate all (EE-ST), find one (SE-ST) or count (CE-ST)")
    parser.add_argument("--engine", choices=ENGINES)
    parser.add_argument("--format", choices=FORMATS,
                        help="input format (default: by file extension)")
    parser.add_argument("--order", choices=tuple(STRATEGIES),
                        help="branching argument selection")
    parser.add_argument("--verify", action="store_true",
                        help="re-check every reported extension against the definition")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run the engine state assertions at every search state "
                             "(set or label engine)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write one JSON trace event per search state (label engine)")
    parser.add_argument("--gen", metavar="N,P,SEED[,selfloops]",
                        help="generate a random framework instead of reading a file")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the ``stabenum`` command on ``argv``; returns the exit code.

    Usage errors raise ``SystemExit(1)`` from argparse.  The cyclic garbage
    collector is paused for the call and switched back on afterwards if it
    was on; nothing else of the process is changed.
    """
    # a run creates no reference cycles, so reference counting frees all it
    # allocates, and the collector would only walk the live framework and
    # search state over and over; test_no_run_leaves_cyclic_garbage pins it
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = _build_parser()
        options = vars(parser.parse_args(argv))
        source = options.pop("input", None)
        gen = options.pop("gen", None)
        try:
            config = RunConfig(**options)
        except ValueError as exc:
            parser.error(str(exc))

        if gen is not None:
            if source is not None:
                parser.error("pass either an input file or --gen, not both")
            try:
                spec = parse_gen(gen)
            except ValueError as exc:
                parser.error(str(exc))
            return execute(config, random_af(spec))
        if source is None:
            parser.error("an input file (or --gen) is required")
        try:
            with open(source, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"stabenum: {exc}", file=sys.stderr)
            return 1
        except UnicodeDecodeError as exc:
            print(f"stabenum: {source}: not UTF-8 text: {exc}", file=sys.stderr)
            return 1
        return run(config, text, source=source)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
