"""Property tests: the Apéry-set core against the naive routes in brute.py."""
import pickle
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import closure_witness, naive_invariants, naive_members, naive_pertinent_sets
from numsgps.chains import ThetaMap, chain, theta_apply
from numsgps.errors import NotASemigroup
from numsgps.extensions import _extend, ideal_extensions, pertinent_sets
from numsgps.genealogy import root, shift_embed
from numsgps.oracle import extensions_bruteforce
from numsgps.semigroup import NumericalSemigroup, from_gaps

# a few seconds in all; construction times vary too much on a shared host for a deadline
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def generator_sets(draw):
    """Up to 4 generators with gcd 1 and least generator m <= 40."""
    m = draw(st.integers(2, 40))
    rest = draw(st.lists(st.integers(m + 1, 100), min_size=1, max_size=3))
    gens = [m, *rest]
    d = 0
    for g in gens:
        d = gcd(d, g)
    if d != 1:
        gens[-1] = m + 1
    return tuple(gens)


@st.composite
def generator_lists(draw):
    """A generating list with duplicates and sums of two members, in any order."""
    gens = list(draw(generator_sets()))
    copies = draw(st.lists(st.sampled_from(gens), max_size=3))
    pairs = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=3))
    return draw(st.permutations(gens + copies + [a + b for a, b in pairs]))


@st.composite
def semigroups(draw):
    return NumericalSemigroup(draw(generator_sets()))


@SETTINGS
@given(generator_sets())
def test_small_elements_match_naive_members(gens):
    s = NumericalSemigroup(gens)
    f, m = s.frobenius, s.multiplicity
    expected = naive_members(gens, f + m)
    assert set(s.small_elements) == {x for x in expected if x <= f + 1}
    assert f not in expected and all(x in expected for x in range(f + 1, f + m + 1))


@SETTINGS
@given(generator_lists())
def test_min_generators_are_minimal(gens):
    s = NumericalSemigroup(gens)
    assert set(s.min_generators) <= set(gens)
    for g in s.min_generators:
        assert not any(a in s and g - a in s for a in range(1, g)), g
    assert NumericalSemigroup(s.min_generators) == s
    assert all(g in s for g in gens)
    # the lazy rule, the only source of generators, against brute force
    assert s.min_generators == naive_invariants(set(s.small_elements), s.frobenius + 1)[0]
    t = s.without({s.multiplicity})
    assert t.min_generators == naive_invariants(set(t.small_elements), t.frobenius + 1)[0]


@SETTINGS
@given(semigroups())
def test_from_gaps_round_trip(s):
    t = from_gaps(s.gaps)
    assert t == s
    assert (t.frobenius, t.genus, t.multiplicity) == (s.frobenius, s.genus, s.multiplicity)


@SETTINGS
@given(semigroups())
def test_invariants_match_naive_build(s):
    members = set(s.small_elements)
    assert naive_invariants(members, s.frobenius + 1) == (
        s.min_generators, s.frobenius, s.genus, s.multiplicity)


@SETTINGS
@given(st.sets(st.integers(1, 40), min_size=1, max_size=25))
def test_gap_sets_are_checked_with_the_first_witness(gaps):
    bound = max(gaps)
    members = {x for x in range(bound + 1) if x not in gaps}
    witness = closure_witness(members, bound)
    if witness is None:
        assert from_gaps(gaps).gaps == tuple(sorted(gaps))
        return
    with pytest.raises(NotASemigroup) as exc:
        from_gaps(gaps)
    assert exc.value.witness == witness


@SETTINGS
@given(semigroups(), st.data())
def test_adjoin_matches_naive_closure(s, data):
    if s.is_whole:
        return
    # class tops w - m keep every residue class an up-set, so only the
    # Kunz inequalities can fail; arbitrary gaps mostly break an up-set
    m = s.multiplicity
    tops = [w - m for w in s.apery_set(m) if w > m]
    pool = tops if tops and data.draw(st.booleans()) else s.gaps
    extra = data.draw(st.sets(st.sampled_from(pool), min_size=1))
    f = s.frobenius
    members = set(s.small_elements) | extra
    witness = closure_witness(members, f)
    if witness is None:
        t = s.adjoin(extra)
        assert set(t.gaps) == set(s.gaps) - extra
        assert t.min_generators == naive_invariants(members, f + 1)[0]
        return
    with pytest.raises(NotASemigroup) as exc:
        s.adjoin(extra)
    assert exc.value.witness == witness


@SETTINGS
@given(semigroups(), st.data())
def test_without_matches_naive_closure(s, data):
    m = s.multiplicity
    top = s.frobenius + 2 * m
    # removing class bottoms (Apéry elements) keeps every class an up-set
    pool = ([w for w in s.apery_set(m) if w] if m > 1 and data.draw(st.booleans())
            else [x for x in range(1, top + 1) if x in s])
    removed = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
    members = {x for x in range(top + 1) if x in s} - removed
    witness = closure_witness(members, top)
    if witness is None:
        t = s.without(removed)
        assert set(t.gaps) == set(s.gaps) | removed
        assert t.min_generators == naive_invariants(members, top)[0]
        return
    with pytest.raises(NotASemigroup) as exc:
        s.without(removed)
    assert exc.value.witness == witness


@st.composite
def high_type_semigroups(draw):
    """Multiplicity m <= 13, so type <= 12; generators in (m, 2m] raise the type."""
    m = draw(st.integers(2, 13))
    gens = [m, *draw(st.sets(st.integers(m + 1, 2 * m), min_size=1)),
            *draw(st.lists(st.integers(2 * m + 1, 3 * m), max_size=3))]
    return NumericalSemigroup(gens if gcd(*gens) == 1 else [*gens, m + 1])


@SETTINGS
@given(high_type_semigroups())
def test_pertinent_sets_match_the_subset_filter(s):
    pf = s.pseudo_frobenius()
    assert [p.members for p in pertinent_sets(s)] == naive_pertinent_sets(pf)
    if len(pf) <= 8:
        assert ideal_extensions(s) == extensions_bruteforce(s)


@SETTINGS
@given(high_type_semigroups())
def test_extensions_bruteforce_comes_sorted_by_genus_then_generators(s):
    got = extensions_bruteforce(s)
    assert got == sorted(got, key=lambda d: (-d.genus, d.min_generators))


def same_semigroup(trusted, checked):
    """A construction that checks nothing against a closure-checked one."""
    assert trusted._apery == checked._apery
    assert trusted.min_generators == checked.min_generators


@SETTINGS
@given(semigroups())
def test_gamma_clamp_matches_the_checked_adjoin(s):
    links = chain(ThetaMap.GAMMA, s).links
    for t, up in zip(links, links[1:]):
        same_semigroup(up, t.adjoin(theta_apply(ThetaMap.GAMMA, t)))


@SETTINGS
@given(semigroups(), st.integers(2, 60))
def test_shift_embed_and_root_match_checked_routes(s, m):
    n, f = s.multiplicity, s.frobenius
    # ({n}+S) ∪ {0}: a positive x is a member iff x - n is
    same_semigroup(shift_embed(s), from_gaps(x for x in range(1, f + n + 1) if x - n not in s))
    same_semigroup(root(m), from_gaps(range(1, m)))


@SETTINGS
@given(semigroups())
def test_removing_the_multiplicity_matches_naive_closure(s):
    m = s.multiplicity
    top = s.frobenius + 3 * m
    members = {x for x in range(top + 1) if x in s} - {m}
    t = s.without({m})
    assert set(t.gaps) == set(s.gaps) | {m}
    assert t.min_generators == naive_invariants(members, top)[0]


@SETTINGS
@given(semigroups(), st.data())
def test_identity_is_the_apery_set(a, data):
    route = data.draw(st.sampled_from(["gaps", "redundant", "other"]))
    if route == "gaps":
        b = from_gaps(a.gaps)
    elif route == "redundant":
        b = NumericalSemigroup(*a.min_generators, sum(a.min_generators[:2]))
    else:
        b = data.draw(semigroups())
    same = a._apery == b._apery
    assert same == (a.min_generators == b.min_generators) == (a == b) == (hash(a) == hash(b))
    c = pickle.loads(pickle.dumps(b))
    assert c == b and hash(c) == hash(b) and c.min_generators == b.min_generators


@st.composite
def truncated_semigroups(draw):
    """{0} ∪ (T ∩ [k, ∞)): the nonzero members of T below k are pseudo-Frobenius numbers below m."""
    t = draw(semigroups())
    k = draw(st.integers(t.multiplicity + 1, t.multiplicity + 6))
    return from_gaps({*t.gaps, *range(1, k)})


@SETTINGS
@given(semigroups(), truncated_semigroups())
def test_extend_matches_the_checked_adjoin(above, below):
    # adjoin builds by the round robin and checks by the genus; from_gaps raises
    # Ap(S, n), builds by the round robin and accepts by the genus too.  A draw
    # of high type has tens of thousands of pertinent sets: check ∅, PF(S) and
    # at most 64 others at a fixed stride
    for s in (above, below):
        empty, *inner, whole = [p.members for p in pertinent_sets(s)]
        for a in (empty, whole, *inner[::len(inner) // 64 + 1]):
            trusted, routes = _extend(s, a), [s.adjoin(a)]
            if a and min(a) < s.multiplicity:
                routes.append(from_gaps(set(s.gaps) - set(a)))
            for checked in routes:
                same_semigroup(trusted, checked)
                assert (trusted.genus, trusted.frobenius) == (checked.genus, checked.frobenius)
    # both builds run: A = {F} keeps m unless S is ordinary, and A ∋ min PF(below) lowers it
    assert min(below.pseudo_frobenius()) < below.multiplicity
