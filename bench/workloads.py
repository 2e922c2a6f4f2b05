"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Each workload's ``build(lib, rng)`` returns its fixed work as a list of
:class:`Op`.  An op's ``run(span, state)`` makes the calls into the
library, each inside a span named after the layer and function it
measures; ``summarize`` turns the output into a compact digest (compared
between reps) and per-layer counts; ``check`` compares the output with a
second route and returns what disagreed.  ``state`` is shared by the ops
of one rep, so a later op can use what an earlier one built.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable

# Span names timed in traced reps; the per-layer metric is "<name>_s".
LAYER_SPANS = (
    "semigroup.from_generators",
    "semigroup.pseudo_frobenius",
    "semigroup.reject",
    "complexity.chain",
    "extensions.ideal_extensions",
    "oracle.enumerate_by_genus",
    "oracle.check_pf",
    "oracle.check_ext",
    "oracle.check_complexity",
    "oracle.check_tree",
    "oracle.pf_gap_search",
    "genealogy.count",
    "genealogy.export_dot",
)
# Counts summed over one rep; every rep must repeat them exactly.
LAYER_COUNTS = (
    "semigroup.frobenius_sum",
    "semigroup.rejected",
    "complexity.chain_links",
    "extensions.found",
    "oracle.catalog_size",
    "genealogy.nodes",
    "genealogy.dot_bytes",
)


@dataclass
class Op:
    label: str
    run: Callable[[Any, dict], Any]
    summarize: Callable[[Any], tuple[Any, dict]]
    check: Callable[[Any], list[str]]
    in_percentiles: bool = True


@dataclass
class Workload:
    name: str
    build: Callable[[Any, Any], list[Op]]
    units_name: str
    units: Callable[[Any], int]


# -- large_f ---------------------------------------------------------------
#
# Valid queries follow a fixed size schedule: query i of a kind targets
# Frobenius number F_i and multiplicity m_i, both growing geometrically.
# For two generators F and m fix the semigroup, and F > m^2 - m - 1
# bounds m, so they run on a lower multiplicity scale and do not depend
# on the seed.  For three the seed picks the generators within a narrow
# window around the target F.  A gamma chain costs about F^3/m, so the
# fixed schedule keeps the cost of a rep nearly the same for every seed
# while the semigroups differ; the cost of a three-generator query at one
# F still varies by a third with the seed, so they stop at a smaller F,
# below the largest two-generator queries, where query_p90_s falls.  The
# largest F keeps the slowest query near 0.1 s at full speed, so that the
# probes timed between queries sample the host often (see run.py).

M_LO, M_HI = 12, 48      # multiplicities of three-generator queries
M_LO_TWO, M_HI_TWO = 8, 30   # multiplicities of two-generator queries
F_LO = 100
F_HI_TWO = 2000          # largest F of a two-generator query
F_HI_THREE = 800         # largest F of a three-generator query
N_TWO = 12               # two-generator queries per rep
N_THREE = 13             # three-generator queries per rep (25 in all: p50 and p90 fall mid-group)
F_WINDOW = 0.01          # accepted relative distance of a three-generator F from its target
INVALID_GCD = 2          # generator lists with gcd > 1 per rep
INVALID_GAPS = 2         # gap lists whose complement is not closed, per rep


def apery(m: int, gens) -> list[int]:
    """Least member of <m, gens> in each residue class mod m (Dijkstra)."""
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for g in gens:
            nd, nr = d + g, (r + g) % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def _targets(i: int, n: int, f_hi: int, m_lo: int, m_hi: int) -> tuple[int, int]:
    """Target (F, m) of query i of n, on a geometric scale from (F_LO, m_lo) to (f_hi, m_hi)."""
    frac = i / (n - 1)
    return round(F_LO * (f_hi / F_LO) ** frac), round(m_lo * (m_hi / m_lo) ** frac)


def _two_generators(f_target: int, m: int) -> tuple[int, int]:
    """<m, b> with F = mb - m - b nearest f_target.

    F and m fix b, so the two-generator queries are the same for every
    seed; the seed varies the three-generator ones.
    """
    lo = max(m + 1, round((f_target + m) / (m - 1)) - 2)
    return m, min((b for b in range(lo, lo + 5) if gcd(m, b) == 1),
                  key=lambda b: abs(m * b - m - b - f_target))


def _three_generators(rng, f_target: int, m: int) -> tuple[tuple[int, int, int], list[int]]:
    """<m, b, c> of embedding dimension 3 with F within the window of f_target."""
    # F of <m,b,c> is near sqrt(3mbc) - m - b - c, so aim b and c around there.
    centre = (f_target + m) / (3 * m) ** 0.5
    lo, hi = m + 1, max(m + 3, int(2 * centre))
    while True:
        b, c = sorted(rng.sample(range(lo, hi + 1), 2))
        if b % m == 0 or gcd(gcd(m, b), c) != 1:
            continue
        w = apery(m, (b,))[c % m]
        if w is not None and c >= w:
            continue  # c is in <m, b>: not a minimal generator
        ap = apery(m, (b, c))
        if abs(max(ap) - m - f_target) <= F_WINDOW * f_target:
            return (m, b, c), ap


def _query_op(lib, gens, ap) -> Op:
    """NumericalSemigroup, pseudo_frobenius, ideal_extensions, gamma chain."""
    m = gens[0]
    frob = max(ap) - m
    genus = sum((w - r) // m for r, w in enumerate(ap))

    def run(span, state):
        with span("semigroup.from_generators"):
            s = lib.NumericalSemigroup(*gens)
        with span("semigroup.pseudo_frobenius"):
            pf = s.pseudo_frobenius()
        with span("extensions.ideal_extensions"):
            ext = lib.ideal_extensions(s)
        with span("complexity.chain"):
            ch = lib.chain(lib.ThetaMap.GAMMA, s)
        return s, pf, ext, ch

    def summarize(out):
        s, pf, ext, ch = out
        digest = (s.min_generators, pf, tuple(d.min_generators for d in ext),
                  tuple(link.min_generators for link in ch.links))
        return digest, {"semigroup.frobenius_sum": s.frobenius,
                        "complexity.chain_links": len(ch.links),
                        "extensions.found": len(ext)}

    def check(out):
        s, pf, ext, ch = out
        bad = []
        if s.min_generators != gens:
            bad.append(f"minimal generators {s.min_generators}")
        if (s.frobenius, s.genus) != (frob, genus):
            bad.append(f"F, g = {s.frobenius}, {s.genus}; expected {frob}, {genus}")
        if len(gens) == 2:
            # Sylvester: F = ab - a - b, g = (a-1)(b-1)/2, PF = {F}, type 1
            a, b = gens
            if (frob, genus) != (a * b - a - b, (a - 1) * (b - 1) // 2):
                bad.append("Apery set disagrees with Sylvester's formulas")
            if pf != (frob,):
                bad.append(f"PF = {pf}, expected ({frob},)")
            if len(ext) != 2:
                bad.append(f"{len(ext)} ideal extensions of a type-1 semigroup")
        else:
            if set(pf) != lib.pf_bruteforce(s):
                bad.append(f"PF = {pf}, brute force {sorted(lib.pf_bruteforce(s))}")
            if not lib.validate_chain(ch.links):
                bad.append("gamma chain is not an i-chain")
        if not ext or ext[0] != s:
            bad.append("ideal extensions do not start with S")
        if ch.length != lib.complexity(s) or ch.length != frob // m + 1:
            bad.append(f"gamma chain length {ch.length}, complexity {lib.complexity(s)}")
        return bad

    return Op(s_literal(gens), run, summarize, check)


def s_literal(gens) -> str:
    return "<" + ",".join(map(str, gens)) + ">"


def _reject_op(lib, label, call, expected) -> Op:
    """An invalid input that must raise exactly ``expected``."""
    def run(span, state):
        with span("semigroup.reject"):
            try:
                call()
            except lib.SemigroupError as exc:
                return exc
        return None

    def summarize(out):
        return type(out).__name__, {"semigroup.rejected": int(out is not None)}

    def check(out):
        if type(out) is not expected:
            return [f"expected {expected.__name__}, got {out!r}"]
        return []

    return Op(label, run, summarize, check, in_percentiles=False)


def build_large_f(lib, rng) -> list[Op]:
    ops = []
    for i in range(N_TWO):
        gens = _two_generators(*_targets(i, N_TWO, F_HI_TWO, M_LO_TWO, M_HI_TWO))
        ops.append(_query_op(lib, gens, apery(gens[0], gens[1:])))
    for i in range(N_THREE):
        ops.append(_query_op(lib, *_three_generators(rng, *_targets(i, N_THREE, F_HI_THREE, M_LO, M_HI))))
    for _ in range(INVALID_GCD):
        d = rng.choice((2, 3, 5))
        gens = sorted(rng.sample(range(M_LO, 4 * M_HI), 3))
        gens = tuple(d * g for g in gens)
        ops.append(_reject_op(lib, f"gcd {d}: {s_literal(gens)}",
                              lambda g=gens: lib.NumericalSemigroup(*g), lib.GcdNotOne))
    for k in range(INVALID_GAPS):
        a, b = _two_generators(*_targets((k + 1) * (N_TWO - 1) // INVALID_GAPS,
                                         N_TWO, F_HI_TWO, M_LO_TWO, M_HI_TWO))
        ap = apery(a, (b,))
        gaps = [x for x in range(1, a * b - a - b + 1) if x < ap[x % a]]
        # making a gap x with 2x also a gap into a member breaks closure
        gapset = set(gaps)
        x = rng.choice([x for x in gaps if 2 * x in gapset])
        bad = [g for g in gaps if g != x]
        ops.append(_reject_op(lib, f"gaps of <{a},{b}> less {x}",
                              lambda g=bad: lib.NumericalSemigroup.from_gaps(g),
                              lib.NotASemigroup))
    rng.shuffle(ops)
    return ops


# -- catalog_verify --------------------------------------------------------
#
# The work of `numsgps verify --max-genus 10` plus `search-pf-gap
# --max-genus 12`.  The inputs are the genus bounds, so the seed changes
# nothing here.  The pf, ext and complexity checks test the catalog one
# semigroup at a time; each is called on consecutive slices of
# CHECK_SLICE semigroups (catalog order, the catalog's genus bound), so
# each timed call is short and the slices together do the whole check.
# check_tree groups the catalog by class and gets all of it.

VERIFY_GENUS = 10
PF_GAP_GENUS = 12
# OEIS A007323: numerical semigroups of genus 0, 1, ..., 10
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204)
CATALOG_SIZE = sum(A007323)
# len(pf_gap_search(12)) on the seed code
PF_GAP_HITS = 551
CHECK_SLICE = 4
SLICED_CHECKS = ("pf", "ext", "complexity")


def build_catalog_verify(lib, rng) -> list[Op]:
    def enumerate_op(span, state):
        with span("oracle.enumerate_by_genus"):
            state["catalog"] = lib.enumerate_by_genus(VERIFY_GENUS)
        state["semigroups"] = state["catalog"].semigroups
        return state["catalog"]

    def catalog_summary(cat):
        return tuple(cat.counts()), {"oracle.catalog_size": len(cat.semigroups)}

    def catalog_check(cat):
        if tuple(cat.counts()) == A007323:
            return []
        return [f"counts {cat.counts()}, A007323 {A007323}"]

    def check_result(r):
        return [] if r is None else [r]

    ops = [Op("enumerate_by_genus", enumerate_op, catalog_summary, catalog_check)]
    for name in SLICED_CHECKS:
        for lo in range(0, CATALOG_SIZE, CHECK_SLICE):
            def slice_op(span, state, name=name, lo=lo):
                part = lib.GenusCatalog(VERIFY_GENUS,
                                        (tuple(state["semigroups"][lo:lo + CHECK_SLICE]),))
                with span(f"oracle.check_{name}"):
                    return lib.CHECKS[name](part)
            ops.append(Op(f"check {name} [{lo}:{lo + CHECK_SLICE}]", slice_op,
                          lambda r: (r, {}), check_result))

    def tree_op(span, state):
        with span("oracle.check_tree"):
            return lib.CHECKS["tree"](state["catalog"])

    ops.append(Op("check tree", tree_op, lambda r: (r, {}), check_result))

    def gap_op(span, state):
        with span("oracle.pf_gap_search"):
            return lib.pf_gap_search(PF_GAP_GENUS)

    def gap_summary(hits):
        return tuple((s.min_generators, c, k) for s, c, k in hits), {}

    def gap_check(hits):
        bad = [] if len(hits) == PF_GAP_HITS else [f"{len(hits)} hits, seed code found {PF_GAP_HITS}"]
        bad += [f"{s}: mu_pf {k} <= complexity {c}" for s, c, k in hits
                if not (k > c == lib.complexity(s))]
        return bad

    ops.append(Op("pf_gap_search", gap_op, gap_summary, gap_check))
    return ops


# -- tree_enum -------------------------------------------------------------
#
# Class counts and DOT exports of the genealogy tree.  The seed orders the
# calls.  Counts are pinned from the seed code; classes (m, c) with
# c(m-1) <= 12, and the DOT levels of such classes, are fully covered by
# the genus-12 catalog and are compared with it.  Each call builds every
# level down to its class; none takes much over 0.05 s, so it is timed
# whole (see run.py).

TREE_COUNTS = {(4, 7): 67, (5, 6): 236, (6, 4): 370, (7, 3): 372, (9, 2): 255,
               (10, 2): 511, (4, 4): 25, (5, 3): 44, (7, 2): 63}
# (nodes, edges, bytes) of export_dot(m, depth) on the seed code
TREE_DOTS = {(5, 4): (295, 294, 21898), (6, 3): (540, 539, 44574)}
CATALOG_GENUS = 12


def _dot_levels(text: str) -> dict[int, set[str]]:
    """Node literals of a DOT tree export grouped by depth below the root."""
    nodes, parent = [], {}
    for line in text.splitlines():
        line = line.strip()
        if " -> " in line:
            src, rest = line.split(" -> ")
            parent[rest.split('"')[1]] = src.strip('"')
        elif line.startswith('"'):
            nodes.append(line.rstrip(";").strip('"'))
    depth = {}
    for node in nodes:  # breadth-first order: a parent precedes its children
        depth[node] = depth[parent[node]] + 1 if node in parent else 0
    levels: dict[int, set[str]] = {}
    for node, d in depth.items():
        levels.setdefault(d, set()).add(node)
    return levels


def build_tree_enum(lib, rng) -> list[Op]:
    by_class: dict[tuple[int, int], set[str]] = {}

    def covered_class(m, c):
        """Literals of class (m, c) in the genus-12 catalog, built on first use."""
        if not by_class:
            for s in lib.enumerate_by_genus(CATALOG_GENUS).semigroups:
                if not s.is_whole:
                    by_class.setdefault((s.multiplicity, lib.complexity(s)), set()).add(str(s))
        return by_class.get((m, c), set())

    ops = []
    for (m, c), want in TREE_COUNTS.items():
        def count_op(span, state, m=m, c=c):
            with span("genealogy.count"):
                return lib.count(m, c)
        def count_check(n, m=m, c=c, want=want):
            bad = [] if n == want else [f"{n}, pinned {want}"]
            if c * (m - 1) <= CATALOG_GENUS and n != len(covered_class(m, c)):
                bad.append(f"{n}, genus-{CATALOG_GENUS} catalog has {len(covered_class(m, c))}")
            return bad

        ops.append(Op(f"count({m},{c})", count_op,
                      lambda n: (n, {"genealogy.nodes": n}), count_check))
    for (m, depth), want in TREE_DOTS.items():
        def dot_op(span, state, m=m, depth=depth):
            with span("genealogy.export_dot"):
                return lib.export_dot(m, depth)

        def dot_summary(text):
            nodes = sum(1 for line in text.splitlines()
                        if line.startswith('  "') and " -> " not in line)
            return text, {"genealogy.nodes": nodes,
                          "genealogy.dot_bytes": len(text.encode())}

        def dot_check(text, m=m, want=want):
            levels = _dot_levels(text)
            got = (sum(map(len, levels.values())), text.count(" -> "), len(text.encode()))
            bad = [] if got == want else [f"(nodes, edges, bytes) {got}, pinned {want}"]
            for d, literals in sorted(levels.items()):
                if (d + 1) * (m - 1) <= CATALOG_GENUS and literals != covered_class(m, d + 1):
                    bad.append(f"depth {d} differs from the genus-{CATALOG_GENUS} catalog")
            return bad

        ops.append(Op(f"export_dot({m},{depth})", dot_op, dot_summary, dot_check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("large_f", build_large_f, "operations", lambda rep: len(rep.times)),
    Workload("catalog_verify", build_catalog_verify, "catalog semigroups",
             lambda rep: rep.counts["oracle.catalog_size"]),
    Workload("tree_enum", build_tree_enum, "tree nodes",
             lambda rep: rep.counts["genealogy.nodes"]),
)}
