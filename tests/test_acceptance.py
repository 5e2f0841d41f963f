"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the run doubles as a report."""

from __future__ import annotations

import random
import time

import pytest

from stabenum import label_enum, set_enum
from stabenum.framework import build
from stabenum.generators import GenSpec, family, random_af
from stabenum.invariants import Checker, InvariantViolation, check_label_state, check_set_state
from stabenum.label_enum import BLANK, assign_in, drain, initial_state, mark_must_out
from stabenum.oracle import enumerate_bruteforce, succ_masks

from conftest import Recorder, h1_framework, ids
from test_label_enum import T1, T3, T5, T6, T7, T8, T9, T10


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def _best_time(fn, repeats: int = 5) -> float:
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_criterion_1_golden_run():
    h1 = h1_framework()
    expected = [tuple(sorted(ids(h1, "acd"))), tuple(sorted(ids(h1, "be")))]
    set_found: list = []
    label_found: list = []
    set_enum.enumerate_extensions(h1, sink=set_found.append)
    label_enum.enumerate_extensions(h1, sink=label_found.append)
    exact = set_found == expected and label_found == expected
    set_time = _best_time(lambda: set_enum.enumerate_extensions(h1))
    label_time = _best_time(lambda: label_enum.enumerate_extensions(h1))
    _report(
        "criterion 1: golden fixture run",
        exact and set_time < 1e-3 and label_time < 1e-3,
        f"set {set_time * 1e6:.0f}us, label {label_time * 1e6:.0f}us",
    )


def test_criterion_2_trace_reproduction():
    h1 = h1_framework()
    events: list = []
    label_enum.enumerate_extensions(h1, probe=label_enum.Tracer(h1, events.append))
    got = [(e.mu, e.pi, e.gamma) for e in events]
    # positions of the golden snapshots inside the full event stream
    expected = {0: T1, 2: T3, 5: T5, 6: T6, 7: T7, 8: T8, 9: T9, 10: T10}
    mismatches = [
        position for position, table in expected.items()
        if position >= len(got) or got[position] != table
    ]
    _report(
        "criterion 2: golden trace reproduction",
        not mismatches,
        f"{len(expected)} states checked",
    )


@pytest.fixture(scope="module")
def sweep():
    """One shared 504-instance run: three engines, invariant hooks enabled."""
    mismatches: list[str] = []
    violations: list[str] = []
    instances = 0
    started = time.perf_counter()
    for combo_index, (p, allow) in enumerate(
        (p, allow) for p in (0.1, 0.2, 0.3, 0.5) for allow in (False, True)
    ):
        for slot in range(63):
            seed = combo_index * 1000 + slot
            n = 1 + (instances % 12)
            instances += 1
            f = random_af(GenSpec(n=n, p=p, allow_self_loops=allow, seed=seed))
            expected = enumerate_bruteforce(f)
            tag = f"n={n} p={p} selfloops={allow} seed={seed}"
            for name, engine, check in (
                ("set", set_enum, check_set_state),
                ("label", label_enum, check_label_state),
            ):
                found: list = []
                try:
                    engine.enumerate_extensions(
                        f, sink=found.append, probe=Checker(f, check)
                    )
                except InvariantViolation as exc:
                    violations.append(f"{name} {tag}: {exc}")
                    continue
                if sorted(found) != expected:
                    mismatches.append(f"{name} {tag}")
    elapsed = time.perf_counter() - started
    return {
        "instances": instances,
        "mismatches": mismatches,
        "violations": violations,
        "elapsed": elapsed,
    }


def test_criterion_3_three_way_equivalence(sweep):
    ok = (
        sweep["instances"] >= 500
        and not sweep["mismatches"]
        and sweep["elapsed"] <= 60.0
    )
    _report(
        "criterion 3: three-way oracle equivalence",
        ok,
        f"{sweep['instances']} instances in {sweep['elapsed']:.1f}s, "
        f"{len(sweep['mismatches'])} mismatches",
    )


def test_criterion_4_state_invariants(sweep):
    _report(
        "criterion 4: state-invariant suite",
        not sweep["violations"],
        f"{len(sweep['violations'])} violations across {sweep['instances']} instances",
    )


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _verify_events(f, events) -> list[str]:
    """Check every recorded forcing/dead-end against exhaustive completion search."""
    masks = succ_masks(f)
    full = (1 << f.n) - 1

    def stable(mask: int) -> bool:
        attacked = 0
        rest = mask
        while rest:
            low = rest & -rest
            attacked |= masks[low.bit_length() - 1]
            rest ^= low
        return attacked == full ^ mask

    failures = []
    for kind, chosen, choice, arg in events:
        base = sum(1 << x for x in chosen)
        free = sum(1 << x for x in choice)
        for sub in _submasks(free):
            candidate = base | sub
            if not stable(candidate):
                continue
            if kind == "dead_end":
                failures.append(f"dead end pruned stable completion {candidate:b}")
                break
            if not (candidate >> arg) & 1:
                failures.append(f"forced argument {arg} missing from {candidate:b}")
                break
    return failures


def test_criterion_5_pruning_soundness():
    failures: list[str] = []
    checked = 0
    instances = 0
    for i in range(100):
        instances += 1
        f = random_af(
            GenSpec(
                n=2 + (i % 9),
                p=0.15 if i % 3 else 0.3,
                allow_self_loops=bool(i % 2),
                seed=9000 + i,
            )
        )
        probe = Recorder()
        set_enum.enumerate_extensions(f, probe=probe)
        label_enum.enumerate_extensions(f, probe=probe)
        events = [("force", *event) for event in probe.forced]
        events += [("dead_end", chosen, choice, None) for chosen, choice in probe.dead]
        checked += len(events)
        failures.extend(_verify_events(f, events))
    _report(
        "criterion 5: pruning soundness",
        instances >= 100 and not failures,
        f"{checked} forcings/dead-ends confirmed on {instances} instances",
    )


def test_criterion_6_structured_families():
    failures: list[str] = []

    def counts_for(f) -> tuple[int, int, int]:
        return (
            len(enumerate_bruteforce(f)),
            set_enum.enumerate_extensions(f),
            label_enum.enumerate_extensions(f),
        )

    for n in (3, 5, 7):
        if counts_for(family("cycle", n)) != (0, 0, 0):
            failures.append(f"odd cycle {n}")
    for n in (4, 6, 8):
        if counts_for(family("cycle", n)) != (2, 2, 2):
            failures.append(f"even cycle {n}")

    attack_free = random_af(GenSpec(n=7, p=0.0, seed=1))
    found: list = []
    label_enum.enumerate_extensions(attack_free, sink=found.append)
    if not (
        counts_for(attack_free) == (1, 1, 1)
        and found == [tuple(range(7))]
        and enumerate_bruteforce(attack_free) == [tuple(range(7))]
    ):
        failures.append("attack-free")

    names = [f"a{i}" for i in range(5)]
    all_loops = build(names, [(x, x) for x in names])
    if counts_for(all_loops) != (0, 0, 0):
        failures.append("all-self-loop")

    _report("criterion 6: structured-family counts", not failures, ", ".join(failures) or "all counts match")


def test_criterion_7_backtracking_integrity():
    rng = random.Random(20240817)
    diffs = 0
    runs = 0
    for trial in range(100):
        runs += 1
        f = random_af(
            GenSpec(
                n=1 + (trial % 10),
                p=rng.choice((0.15, 0.3, 0.5)),
                allow_self_loops=bool(trial % 2),
                seed=7000 + trial,
            )
        )
        state = initial_state(f)
        frames = [(list(state.mu), list(state.pi), set(state.gamma))]
        state.checkpoint()
        depth = 1
        for _ in range(rng.randint(1, 2 * f.n + 2)):
            blanks = state.members(BLANK)
            if not blanks:
                break
            x = rng.choice(blanks)
            move = rng.random()
            if move < 0.2 and depth < 4:
                frames.append((list(state.mu), list(state.pi), set(state.gamma)))
                state.checkpoint()
                depth += 1
            if move < 0.6:
                if not assign_in(state, f, x):
                    break
                if not drain(state, f):
                    break
            else:
                if not mark_must_out(state, f, x):
                    break
        while depth:
            expected = frames.pop()
            state.rollback()
            depth -= 1
            if (list(state.mu), list(state.pi), set(state.gamma)) != expected:
                diffs += 1
    _report(
        "criterion 7: backtracking integrity",
        runs >= 100 and diffs == 0,
        f"{runs} runs, {diffs} diffs",
    )
