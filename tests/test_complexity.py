import time

import pytest

from numsgps.chains import (Classification, IChain, ThetaMap, chain,
                            classify, complexity, theta_apply,
                            validate_chain)
from numsgps.errors import ChainTooLong, WholeMonoid
from numsgps.extensions import is_pertinent
from numsgps import chains, semigroup
from numsgps.semigroup import WHOLE, NumericalSemigroup

S57 = NumericalSemigroup(5, 7)
S5689 = NumericalSemigroup(5, 6, 8, 9)
T46911 = NumericalSemigroup(4, 6, 9, 11)


def test_theta_apply_named_examples():
    assert theta_apply(ThetaMap.GAMMA, S57) == {23}
    assert theta_apply(ThetaMap.FROBENIUS_ONLY, S57) == {23}
    assert theta_apply(ThetaMap.PF, T46911) == {2, 5, 7}


def test_theta_apply_all_seven_on_one_semigroup():
    # F = 7, m = 5, g = 5, PF = {3,4,7}
    assert theta_apply(ThetaMap.PF, S5689) == {3, 4, 7}
    assert theta_apply(ThetaMap.FROBENIUS_ONLY, S5689) == {7}
    assert theta_apply(ThetaMap.UPPER_HALF_PF, S5689) == {4, 7}
    assert theta_apply(ThetaMap.ABOVE_F_MINUS_M, S5689) == {3, 4, 7}
    assert theta_apply(ThetaMap.ABOVE_F_MINUS_G, S5689) == {3, 4, 7}
    assert theta_apply(ThetaMap.MIN_ABOVE_HALF_F, S5689) == {4}
    assert theta_apply(ThetaMap.GAMMA, S5689) == {7}


def test_theta_halving_boundaries_are_exact():
    # ordinary with m = 5: F = 4, PF = {1,2,3,4}; 2x >= 4 keeps 2, 2x > 4 drops it
    o5 = NumericalSemigroup.from_gaps(range(1, 5))
    assert theta_apply(ThetaMap.UPPER_HALF_PF, o5) == {2, 3, 4}
    assert theta_apply(ThetaMap.MIN_ABOVE_HALF_F, o5) == {3}
    # smallest Frobenius number of all: F = 1 on {0,2,->}
    o2 = NumericalSemigroup.from_gaps({1})
    assert theta_apply(ThetaMap.MIN_ABOVE_HALF_F, o2) == {1}
    assert theta_apply(ThetaMap.GAMMA, o2) == {1}


def test_theta_apply_rejects_whole_monoid():
    for theta in ThetaMap:
        with pytest.raises(WholeMonoid):
            theta_apply(theta, WHOLE)


@pytest.mark.parametrize("s", [S57, WHOLE], ids=["S57", "whole"])
@pytest.mark.parametrize("call", [theta_apply, chain], ids=["theta_apply", "chain"])
def test_an_unknown_selection_is_refused_first(monkeypatch, call, s):
    # a string, even a ThetaMap value, is refused before any step, and for ℕ too
    calls = []

    def pf(self):
        calls.append(self)
        return derive(self)
    derive = NumericalSemigroup.pseudo_frobenius
    monkeypatch.setattr(NumericalSemigroup, "pseudo_frobenius", pf)
    for theta in ("pf", "gamma"):
        with pytest.raises(ValueError) as exc:
            call(theta, s)
        assert str(exc.value) == f"unknown selection {theta!r}"
    assert calls == []

def test_gamma_chain_example():
    c = chain(ThetaMap.GAMMA, S57)
    assert [l.min_generators for l in c.links] == [
        (5, 7),
        (5, 7, 23),
        (5, 7, 16, 18),
        (5, 7, 11, 13),
        (5, 6, 7, 8, 9),
        (1,),
    ]
    assert c.length == 5
    assert validate_chain(c.links)


def test_pf_chain_overshoots():
    c = chain(ThetaMap.PF, T46911)
    assert [l.min_generators for l in c.links] == [
        (4, 6, 9, 11), (2, 5), (2, 3), (1,)]
    assert c.length == 3 > complexity(T46911) == 2
    v = NumericalSemigroup(5, 7, 9, 11, 13)
    assert complexity(v) == 2 and chain(ThetaMap.PF, v).length == 3


def test_chain_on_whole_monoid():
    for theta in ThetaMap:
        c = chain(theta, WHOLE)
        assert c.links == (WHOLE,) and c.length == 0


def test_complexity_closed_form():
    assert complexity(S57) == 5
    assert complexity(WHOLE) == 0
    assert complexity(T46911) == 2
    assert complexity(NumericalSemigroup.from_gaps({1})) == 1
    assert complexity(NumericalSemigroup(2, 3)) == 1


def test_classify():
    assert classify(WHOLE) is Classification.WHOLE_MONOID
    assert classify(NumericalSemigroup(3, 4, 5)) is Classification.ORDINARY
    assert classify(NumericalSemigroup(3, 4)) is Classification.ELEMENTARY_NOT_ORDINARY
    assert classify(T46911) is Classification.ELEMENTARY_NOT_ORDINARY
    assert classify(S57) is Classification.GENERAL


def test_classification_matches_complexity(catalog10):
    by_class = {
        Classification.WHOLE_MONOID: 0,
        Classification.ORDINARY: 1,
        Classification.ELEMENTARY_NOT_ORDINARY: 2,
    }
    for s in catalog10.semigroups:
        cls = classify(s)
        if cls in by_class:
            assert complexity(s) == by_class[cls], s
        else:
            assert complexity(s) >= 3, s


def test_validate_chain():
    assert validate_chain([WHOLE])
    assert not validate_chain([])
    assert not validate_chain([S57, WHOLE])  # S57 is not ordinary
    assert not validate_chain([S5689])       # does not end at the monoid
    assert not validate_chain([S5689, NumericalSemigroup(2, 3), WHOLE])
    assert validate_chain([NumericalSemigroup(2, 3), WHOLE])
    assert validate_chain(chain(ThetaMap.PF, T46911).links)


def test_every_theta_is_nonempty_and_pertinent(catalog12):
    # genus <= 12, so the genus-10 catalog too
    for s in catalog12.semigroups:
        if s.is_whole:
            continue
        for theta in ThetaMap:
            picked = theta_apply(theta, s)
            assert picked, (s, theta)
            assert is_pertinent(s, picked), (s, theta)


def test_pf_selection_chains_match_the_checked_adjoin(catalog12, monkeypatch):
    # the six PF selections step by the unchecked _extend and gamma reads its
    # links off Ap(S, m); a second route steps each chain with the
    # closure-checked adjoin, link by link
    def checked(theta, s):
        links = [s]
        while not links[-1].is_whole:
            links.append(links[-1].adjoin(theta_apply(theta, links[-1])))
        return [(t, t.min_generators) for t in links]
    cases = [(theta, s) for s in catalog12.semigroups if not s.is_whole for theta in ThetaMap]
    assert len(cases) == 7 * 1412
    # and one gamma chain of large F: 121 steps, F = 14639
    cases.append((ThetaMap.GAMMA, NumericalSemigroup(121, 123)))
    expected = [checked(theta, s) for theta, s in cases]
    for name in ("adjoin", "_without"):
        monkeypatch.setattr(NumericalSemigroup, name, lambda *a: pytest.fail("checked edit"))
    for (theta, s), want in zip(cases, expected):
        assert [(t, t.min_generators) for t in chain(theta, s).links] == want, (theta, s)


def test_gamma_realizes_the_minimum(catalog10):
    for s in catalog10.semigroups:
        assert chain(ThetaMap.GAMMA, s).length == complexity(s), s


def test_mu_never_beats_complexity(catalog8):
    for s in catalog8.semigroups:
        c = complexity(s)
        for theta in ThetaMap:
            assert chain(theta, s).length >= c, (s, theta)


def test_frobenius_bracketing(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        c = complexity(s)
        m = s.multiplicity
        assert (c - 1) * m < s.frobenius < c * m, s
        assert c == s.frobenius // m + 1


def test_gamma_chain_shape(catalog10):
    # multiplicity stays fixed until the ordinary stage, and the
    # complexity drops by exactly one per link
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        links = chain(ThetaMap.GAMMA, s).links
        c = complexity(s)
        for i, link in enumerate(links):
            assert complexity(link) == c - i
        for link in links[:-1]:
            assert link.multiplicity == s.multiplicity
        assert links[-2].is_ordinary
        assert links[-1].is_whole


def test_chains_strictly_increase(catalog8):
    for s in catalog8.semigroups:
        for theta in ThetaMap:
            links = chain(theta, s).links
            for a, b in zip(links, links[1:]):
                assert a.issubset(b) and a != b
                assert b.genus < a.genus


def test_ichain_is_a_value_type():
    c = chain(ThetaMap.GAMMA, S57)
    assert c == IChain(c.links)
    assert list(c) == list(c.links)
    with pytest.raises(AttributeError):
        c.links = ()


def test_gamma_chain_runs_no_kunz_pass(monkeypatch):
    # each link is a clamp of the Kunz coordinates, closed by proof: no link
    # derives generators, runs the round robin or steps by _extend
    s = NumericalSemigroup(1001, 1003)
    calls = []
    monkeypatch.setattr(semigroup, "_generators_above", lambda *a: calls.append(a))
    monkeypatch.setattr(semigroup, "_apery_mod", lambda *a: calls.append(a))
    monkeypatch.setattr(chains, "_extend", lambda *a: calls.append(a))
    links = chain(ThetaMap.GAMMA, s).links
    assert len(links) - 1 == complexity(s) == 1001
    assert calls == []
    assert links[-1] is WHOLE and all(t.multiplicity == 1001 for t in links[:-1])


def test_gamma_chain_guard_fires_before_the_first_step(monkeypatch):
    # F = 2^40 - 1 passes the Frobenius guard, but its gamma chain would
    # have 2^39 + 1 links
    s = NumericalSemigroup(2, 2**40 + 1)
    monkeypatch.setattr(chains, "_from_apery", lambda *a: pytest.fail("built a link"))
    start = time.process_time()
    with pytest.raises(ChainTooLong) as exc:
        chain(ThetaMap.GAMMA, s)
    assert time.process_time() - start < 0.1
    assert str(exc.value) == "chain of <2,1099511627777> exceeds 131072 links"


def test_chain_guard_counts_the_links_of_other_selections(monkeypatch):
    # the PF chain of <4,6,9,11> has 4 links: <4,6,9,11>, <2,5>, <2,3>, <1>
    assert len(chain(ThetaMap.PF, T46911).links) == 4
    monkeypatch.setattr(chains, "MAX_CHAIN_LINKS", 4)
    assert chain(ThetaMap.PF, T46911).length == 3
    monkeypatch.setattr(chains, "MAX_CHAIN_LINKS", 3)
    with pytest.raises(ChainTooLong, match="exceeds 3 links"):
        chain(ThetaMap.PF, T46911)
    # gamma needs C(S) + 1 = 3 links and is refused at a cap of 2, before any step
    assert len(chain(ThetaMap.GAMMA, T46911).links) == 3
    monkeypatch.setattr(chains, "MAX_CHAIN_LINKS", 2)
    with pytest.raises(ChainTooLong, match="exceeds 2 links"):
        chain(ThetaMap.GAMMA, T46911)
