"""Command line front end.

Eight subcommands cover the whole library: info, extensions, chain,
complexity, enumerate, tree-dot, verify and search-pf-gap.  Each cmd_*
handler returns its JSON payload and its text lines, the lines lazily, so
a --json run formats no text.  Only main writes stdout: the payload under
--json (shapes in schemas/cli_output.v1.json), else the lines, once the
result is complete.  Output is deterministic.  main also sets the exit
code: 0 success, 1 a verify check found a discrepancy, 2 usage or input
errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .chains import ThetaMap, chain, classify, complexity
from .errors import GenusTooLarge, SemigroupError
from .extensions import ideal_extensions
from .genealogy import DEFAULT_NODE_CAP, count, enumerate_semigroups, export_dot
from .oracle import CHECKS, enumerate_by_genus, pf_gap_search
from .semigroup import NumericalSemigroup, from_gaps

NODE_CAP_ENV = "NUMSGPS_NODE_CAP"
# info lists every gap and every small element, about 2·genus numbers, so a
# larger genus is refused before either list is made: <2,1048577>, of genus
# 2^19, takes 0.7 s, and <2,1099511627777>, which the Frobenius guard admits,
# would list about 2^40 numbers.
MAX_INFO_GENUS = 1 << 20


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p.strip()) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _semigroup_from(args, parser) -> NumericalSemigroup:
    if args.gaps is not None and args.semigroup is not None:
        parser.error("give a semigroup literal or --gaps, not both")
    if args.gaps is not None:
        return from_gaps(_parse_int_list(args.gaps))
    if args.semigroup is None:
        parser.error("a semigroup literal (or --gaps) is required")
    return NumericalSemigroup.parse(args.semigroup)


def _msg_line(gens, gap_style: bool) -> str:
    if gap_style:
        return "[ " + ", ".join(str(g) for g in gens) + " ]"
    return "[" + ",".join(str(g) for g in gens) + "]"


def _node_cap() -> int:
    raw = os.environ.get(NODE_CAP_ENV, str(DEFAULT_NODE_CAP))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # reported below with the other invalid values
    if cap < 1:
        raise ValueError(f"{NODE_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def cmd_info(args, parser):
    s = _semigroup_from(args, parser)
    if s.genus > MAX_INFO_GENUS:
        raise GenusTooLarge(f"genus {s.genus} exceeds the info guard {MAX_INFO_GENUS}")
    d = {"generators": list(s.min_generators), "frobenius": s.frobenius, "genus": s.genus,
         "multiplicity": s.multiplicity, "small_elements": list(s.small_elements),
         "pf": None if s.is_whole else list(s.pseudo_frobenius())}

    def lines():
        yield f"semigroup: {s}"
        for key in ("multiplicity", "frobenius", "genus"):
            yield f"{key}: {d[key]}"
        yield "small elements: " + ",".join(str(x) for x in d["small_elements"])
        yield "gaps: " + (",".join(str(x) for x in s.gaps) or "-")
        if d["pf"] is None:
            yield "pseudo-frobenius: -"
        else:
            yield "pseudo-frobenius: " + ",".join(str(x) for x in d["pf"])
            yield f"type: {len(d['pf'])}"
        yield f"complexity: {complexity(s)}"
        yield f"class: {classify(s).value}"
    return d, lines()


def cmd_extensions(args, parser):
    s = _semigroup_from(args, parser)
    exts = [list(e.min_generators) for e in ideal_extensions(s, proper=args.proper)]
    return exts, (_msg_line(gens, args.gap_style) for gens in exts)


def cmd_chain(args, parser):
    s = _semigroup_from(args, parser)
    theta = ThetaMap(args.theta)
    links = [list(link.min_generators) for link in chain(theta, s).links]
    return ({"theta": theta.value, "links": links, "length": len(links) - 1},
            (_msg_line(gens, args.gap_style) for gens in links[0 if args.full else 1:]))


def cmd_complexity(args, parser):
    s = _semigroup_from(args, parser)
    c = complexity(s)
    return {"generators": list(s.min_generators), "complexity": c}, (str(c),)


def cmd_enumerate(args, parser):
    if args.count:
        return None, (str(count(args.multiplicity, args.complexity, max_nodes=_node_cap())),)
    found = [list(s.min_generators) for s in enumerate_semigroups(
        args.multiplicity, args.complexity, max_nodes=_node_cap())]
    return found, (_msg_line(gens, args.gap_style) for gens in found)


def cmd_tree_dot(args, parser):
    return None, export_dot(args.multiplicity, args.depth, _node_cap()).splitlines()


def cmd_verify(args, parser):
    names = [n.strip() for n in args.checks.split(",") if n.strip()]
    if not names:
        parser.error(f"no check given; choose from {','.join(CHECKS)}")
    for name in names:
        if name not in CHECKS:
            parser.error(f"unknown check {name!r}; choose from {','.join(CHECKS)}")
    catalog = enumerate_by_genus(args.max_genus)
    results = []
    for name in names:
        detail = CHECKS[name](catalog)
        results.append({"name": name, "ok": detail is None, "detail": detail})
        if detail is not None:
            break
    ok = all(r["ok"] for r in results)
    return ({"max_genus": args.max_genus, "ok": ok, "checks": results},
            (f"check {r['name']}: ok (genus <= {args.max_genus})" if r["ok"]
             else f"check {r['name']}: FAIL {r['detail']}" for r in results))


def cmd_search_pf_gap(args, parser):
    hits = pf_gap_search(args.max_genus)
    return ([{"generators": list(s.min_generators), "complexity": c, "mu_pf": steps}
             for s, c, steps in hits],
            (f"{s} complexity={c} mu_pf={steps}" for s, c, steps in hits))


def _build_parser() -> argparse.ArgumentParser:
    def shared(*flags, **kwargs):
        """A parent parser for an option that several subcommands share."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kwargs)
        return p

    semigroup = shared("semigroup", nargs="?",
                       help="literal like '<5,6,8,9>' or a bare comma list")
    semigroup.add_argument("--gaps", metavar="LIST",
                           help="build the semigroup from its gap set, e.g. 1,2,3,4,7")
    as_json = shared("--json", action="store_true")
    gap_style = shared("--gap-style", action="store_true",
                       help="print generator lists as '[ 3, 5 ]'")
    max_genus = shared("--max-genus", type=int, default=8)

    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Numerical semigroups: invariants, ideal extensions, "
                    "chains, and genealogy enumeration.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *parents, **kwargs):
        p = subs.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    add("info", cmd_info, semigroup, as_json, help="invariants of one semigroup")

    p = add("extensions", cmd_extensions, semigroup, gap_style, as_json,
            help="all ideal extensions")
    p.add_argument("--proper", action="store_true",
                   help="drop the semigroup itself from the list")

    p = add("chain", cmd_chain, semigroup, gap_style, as_json,
            help="iterate a gap selection up to the full monoid")
    p.add_argument("--theta", default="gamma",
                   choices=[t.value for t in ThetaMap],
                   help="which selection to iterate (default gamma)")
    p.add_argument("--full", action="store_true",
                   help="include the starting semigroup as the first line")

    add("complexity", cmd_complexity, semigroup, as_json, help="the complexity invariant")

    p = add("enumerate", cmd_enumerate, gap_style,
            help="all semigroups of a multiplicity and complexity")
    p.add_argument("-m", "--multiplicity", type=int, required=True)
    p.add_argument("-c", "--complexity", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print only how many")
    group.add_argument("--json", action="store_true")

    p = add("tree-dot", cmd_tree_dot, help="genealogy tree as a DOT digraph")
    p.add_argument("-m", "--multiplicity", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(json=False)

    p = add("verify", cmd_verify, max_genus, as_json,
            help="certify closed forms against brute force")
    p.add_argument("--checks", default="pf,ext,complexity,tree",
                   help="comma list from pf,ext,complexity,tree")

    add("search-pf-gap", cmd_search_pf_gap, max_genus, as_json,
        help="semigroups where the PF chain overshoots the minimum")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.func(args, parser)
        if args.json:
            print(json.dumps(payload))
        else:
            for line in lines:
                print(line)
    except (SemigroupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if args.command == "verify" and not payload["ok"] else 0


if __name__ == "__main__":
    sys.exit(main())
