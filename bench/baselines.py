"""One-off reproduction of the hand-measured baselines in ROADMAP.md.

Run from the repository root (takes one to two minutes):

    python3 bench/baselines.py

Times, with the harness's import and spans, the construction of
NumericalSemigroup(121, 123) (F = 14639), its gamma chain, and
oracle.check_complexity over the genus <= 10 catalog, each REPEATS times,
and prints one JSON object.  Like the benchmark it reports CPU time, each
at its fastest over the repeats.  Two baselines of the ROADMAP are not
reproduced:

* <1001,1003> has no guard that stops it, so it would not finish;
* the genus-18 walk needs the MAX_CATALOG_GENUS guard bypassed, and the
  benchmark never bypasses a guard.
"""
from __future__ import annotations

import json
import platform

from run import Tracer, import_library

REPEATS = 3


def main() -> None:
    lib = import_library()
    tracer = Tracer()
    for _ in range(REPEATS):
        # a fresh semigroup each time, so no chain reuses another's work
        with tracer("semigroup.from_generators"):
            s = lib.NumericalSemigroup(121, 123)
        with tracer("complexity.chain"):
            links = lib.chain(lib.ThetaMap.GAMMA, s).length
    catalog = lib.enumerate_by_genus(10)
    for _ in range(REPEATS):
        with tracer("oracle.check_complexity"):
            detail = lib.CHECKS["complexity"](catalog)
    if detail is not None or s.frobenius != 121 * 123 - 121 - 123 or links != lib.complexity(s):
        raise SystemExit(f"wrong answer: {detail or s}")

    durations: dict[str, list[float]] = {}
    for _, name, _, _, start, end in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    print(json.dumps({
        "python": platform.python_version(),
        "build_121_123_s": min(durations["semigroup.from_generators"]),
        "gamma_chain_121_123_s": min(durations["complexity.chain"]),
        "check_complexity_genus10_s": min(durations["oracle.check_complexity"]),
        "repeats": REPEATS,
    }))


if __name__ == "__main__":
    main()
