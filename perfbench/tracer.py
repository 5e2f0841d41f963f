"""Per-layer spans and counts, taken by wrapping the layers from outside.

Each wrapper is installed on the name where the program looks the function
up at call time (``stabenum.cli.parse_apx``, ``stabenum.formats.build``,
the ``STRATEGIES["lex"]`` entry, module globals of ``label_enum`` and
``set_enum`` and methods of ``LabelState``), so no source file changes.
A span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated by name in memory; nothing is written while tracing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable

# spans are reported as ``<name>_s``, their self time in seconds
SPANS = (
    "formats.parse",
    "framework.build",
    "formats.write",
    "strategies.pick",
    "label_enum.self",
    "label_enum.initial_state",
    "label_enum.drain",
    "label_enum.assign_in",
    "label_enum.mark_must_out",
    "label_enum.is_solution",
    "label_enum.members",
    "label_enum.rollback",
    "set_enum.propagate",
    "set_enum.apply_join",
)
COUNTS = (
    "framework.attacks",
    "formats.bytes_out",
    "label_enum.propagations",
    "label_enum.dead_ends",
    "set_enum.propagations",
)
HIGHS = ("label_enum.trail_high_water", "label_enum.max_depth")
CALLS = {
    "strategies.picks": "strategies.pick",
    "label_enum.members_calls": "label_enum.members",
    "label_enum.rollbacks": "label_enum.rollback",
}


class LayerTracer:
    """Context manager that patches the layers on entry and restores them on exit."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.highs: defaultdict[str, int] = defaultdict(int)
        self._stack: list[float] = []

    def reset(self) -> None:
        """Start a fresh aggregate, e.g. for the next instance."""
        for table in (self.self_s, self.calls, self.counts, self.highs):
            table.clear()
        self._stack.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{name}_s": self.self_s[name] for name in SPANS}
        out.update({name: self.counts[name] for name in COUNTS})
        out.update({name: self.highs[name] for name in HIGHS})
        out.update({metric: self.calls[span] for metric, span in CALLS.items()})
        return out

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        clock = time.perf_counter
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self_s[name] += elapsed - inner
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _high(self, name: str, value: int) -> None:
        if value > self.highs[name]:
            self.highs[name] = value

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _wrap(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patch(owner, attr, self._span(name, original, after))

    def __enter__(self) -> "LayerTracer":
        from stabenum import cli, formats, label_enum, set_enum, strategies

        counts, high = self.counts, self._high

        def count(name: str, measure: Callable[[Any], int]) -> Callable:
            def after(result: Any, args: tuple) -> None:
                counts[name] += measure(result)
            return after

        def dead_end(result: bool, args: tuple) -> None:
            if not result:
                counts["label_enum.dead_ends"] += 1

        self._wrap(cli, "parse_apx", "formats.parse")
        self._wrap(formats, "build", "framework.build",
                   count("framework.attacks", lambda f: len(f.attacks)))
        self._wrap(cli, "write_extensions", "formats.write", count("formats.bytes_out", len))
        self._wrap(strategies.STRATEGIES, "lex", "strategies.pick")

        self._wrap(label_enum, "enumerate_extensions", "label_enum.self")
        self._wrap(label_enum, "initial_state", "label_enum.initial_state")
        self._wrap(label_enum, "drain", "label_enum.drain", dead_end)
        self._wrap(label_enum, "assign_in", "label_enum.assign_in")
        self._wrap(label_enum, "mark_must_out", "label_enum.mark_must_out", dead_end)
        self._wrap(label_enum, "is_solution", "label_enum.is_solution",
                   lambda result, args: high("label_enum.trail_high_water", len(args[0].trail)))
        state_cls = label_enum.LabelState
        self._wrap(state_cls, "members", "label_enum.members")
        self._wrap(state_cls, "rollback", "label_enum.rollback")

        force = label_enum._force

        def counted_force(state: Any, *args: Any, **kwargs: Any) -> None:
            queued = len(state.gamma)
            force(state, *args, **kwargs)
            if len(state.gamma) > queued:
                counts["label_enum.propagations"] += 1

        self._patch(label_enum, "_force", counted_force)

        checkpoint = state_cls.checkpoint

        def sampled_checkpoint(state: Any) -> None:
            # open checkpoints = branch decisions on the current path
            high("label_enum.trail_high_water", len(state.trail))
            checkpoint(state)
            high("label_enum.max_depth", len(state.checkpoints))

        self._patch(state_cls, "checkpoint", sampled_checkpoint)

        self._wrap(set_enum, "propagate", "set_enum.propagate")
        self._wrap(set_enum, "apply_join", "set_enum.apply_join")
        forced_in, sole_attacker = set_enum.forced_in, set_enum.sole_attacker

        def counted_forced_in(*args: Any) -> Any:
            alpha = forced_in(*args)
            counts["set_enum.propagations"] += len(alpha)
            return alpha

        def counted_sole_attacker(*args: Any) -> Any:
            beta = sole_attacker(*args)
            if beta is not None:
                counts["set_enum.propagations"] += 1
            return beta

        self._patch(set_enum, "forced_in", counted_forced_in)
        self._patch(set_enum, "sole_attacker", counted_sole_attacker)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
