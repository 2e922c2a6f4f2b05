"""Certifying the fast code against slow, independent recomputation.

The oracle module enumerates every numerical semigroup up to a genus
bound by walking the genus tree (remove one generator above the
Frobenius number at a time), then recomputes pseudo-Frobenius sets,
ideal extensions, and minimal chain lengths from first principles
and compares them with the closed-form implementations.
"""
import time

from numsgps import CHECKS, enumerate_by_genus, min_ichain_bfs, pf_gap_search
from numsgps import NumericalSemigroup, complexity

t0 = time.perf_counter()
catalog = enumerate_by_genus(8)
dt = time.perf_counter() - t0
print(f"catalog of all semigroups with genus <= 8: "
      f"{len(catalog.semigroups)} of them, built in {dt:.3f}s")
print(f"counts per genus: {catalog.counts()}")
print()

print("running every certification check over the catalog:")
for name, check in CHECKS.items():
    t0 = time.perf_counter()
    failure = check(catalog)
    dt = time.perf_counter() - t0
    verdict = "ok" if failure is None else f"FAILED: {failure}"
    print(f"  {name:>10}: {verdict}  ({dt:.3f}s)")
print()

s = NumericalSemigroup(3, 7, 11)
print(f"exhaustive search over ideal-extension chains from {s}:")
print(f"  shortest chain length {min_ichain_bfs(s)}, "
      f"closed form {complexity(s)}")
print()

print("the smallest semigroups where the PF picker overshoots:")
for hit, c, steps in pf_gap_search(6):
    print(f"  {hit} (F = {hit.frobenius}): complexity {c}, PF steps {steps}")
print()
print("no semigroup with Frobenius number below 7 shows a gap, so the")
print("hits above are minimal in that sense.")
