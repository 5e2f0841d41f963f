from __future__ import annotations

import pytest

from stabenum.formats import write_apx
from stabenum.generators import GenSpec, UnknownFamily, family, random_af
from stabenum.oracle import enumerate_bruteforce


def test_deterministic_serialization():
    spec = GenSpec(n=9, p=0.35, allow_self_loops=True, seed=42)
    assert write_apx(random_af(spec)) == write_apx(random_af(spec))


def test_different_seeds_differ():
    a = random_af(GenSpec(n=8, p=0.5, seed=1))
    b = random_af(GenSpec(n=8, p=0.5, seed=2))
    assert a.attacks != b.attacks


def test_empty_instance():
    f = random_af(GenSpec(n=0, p=0.5, seed=3))
    assert f.n == 0


def test_p_zero_unique_extension_is_everything():
    f = random_af(GenSpec(n=6, p=0.0, seed=4))
    assert f.attacks == ()
    assert enumerate_bruteforce(f) == [tuple(range(6))]


def test_p_one_with_self_loops_has_no_extensions():
    f = random_af(GenSpec(n=5, p=1.0, allow_self_loops=True, seed=5))
    assert len(f.attacks) == 25
    assert enumerate_bruteforce(f) == []


def test_self_loops_only_when_allowed():
    f = random_af(GenSpec(n=5, p=1.0, allow_self_loops=False, seed=6))
    assert not any(f.self_loop)
    assert len(f.attacks) == 20


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=3, p=1.5)
    with pytest.raises(ValueError):
        GenSpec(n=-1, p=0.5)


def test_odd_cycle_has_no_extensions():
    assert enumerate_bruteforce(family("cycle", 3)) == []


def test_even_cycle_has_two_alternating_extensions():
    assert enumerate_bruteforce(family("cycle", 4)) == [(0, 2), (1, 3)]


def test_cycle_of_one_is_a_self_loop():
    f = family("cycle", 1)
    assert f.self_loop[0]
    assert enumerate_bruteforce(f) == []


def test_chain_of_one():
    assert enumerate_bruteforce(family("chain", 1)) == [(0,)]


def test_chain_alternates():
    assert enumerate_bruteforce(family("chain", 4)) == [(0, 2)]


def test_two_cliques_product_count():
    # picks one argument per group: 3 * 2 combinations
    f = family("two_cliques", 5)
    assert len(enumerate_bruteforce(f)) == 6


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        family("grid", 4)


def test_family_requires_positive_size():
    with pytest.raises(ValueError):
        family("cycle", 0)


def test_spec_is_a_hashable_value():
    spec = GenSpec(n=4, p=0.5, seed=3)
    assert spec == GenSpec(4, 0.5, False, 3) and hash(spec) == hash(GenSpec(4, 0.5, False, 3))
    assert spec != GenSpec(4, 0.5, True, 3)
    assert spec != GenSpec(4, 0.5, seed=4)
    assert len({spec, GenSpec(4, 0.5, seed=3)}) == 1
    with pytest.raises(AttributeError):
        spec.n = 5


def test_spec_validation_messages():
    with pytest.raises(ValueError, match=r"^attack probability 1\.5 outside \[0,1\]$"):
        GenSpec(n=3, p=1.5)
    with pytest.raises(ValueError, match=r"^attack probability -0\.1 outside \[0,1\]$"):
        GenSpec(n=3, p=-0.1)
    with pytest.raises(ValueError, match="^negative argument count -1$"):
        GenSpec(n=-1, p=0.5)


def test_spec_repr():
    assert repr(GenSpec(n=4, p=0.5, seed=3)) == "GenSpec(n=4, p=0.5, allow_self_loops=False, seed=3)"
