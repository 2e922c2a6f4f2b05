"""The genealogy tree of a fixed multiplicity.

Root: {0, m, m+1, ...}.  Children: delete any nonempty set of minimal
generators from the top block of the parent.  Depth k holds exactly
the semigroups of multiplicity m and complexity k+1, each exactly
once, so counting a level counts a complexity class.
"""
from numsgps import count, enumerate_semigroups, export_dot, root, shift_embed

m = 3
print(f"levels of the multiplicity-{m} tree:")
for depth in range(4):
    names = ", ".join(str(s) for s in enumerate_semigroups(m, depth + 1))
    print(f"  depth {depth} (complexity {depth + 1}): {names}")
print()

print("complexity-class sizes by multiplicity:")
header = "  m\\c " + "".join(f"{c:>7}" for c in range(1, 7))
print(header)
for mult in range(2, 7):
    cells = "".join(f"{count(mult, c):>7}" for c in range(1, 7))
    print(f"  {mult:>3} {cells}")
print()

print("each row is nondecreasing: shifting every positive element up by m")
print("embeds class (m, c) into class (m, c+1) injectively, for example:")
for s in enumerate_semigroups(3, 2):
    t = shift_embed(s)
    print(f"  {s}  ->  {t}")
print()

r = root(4)
print(f"root of the multiplicity-4 tree: {r}")
print(f"its minimal generators: {r.min_generators}")
print()

print("the top of the multiplicity-2 tree, as DOT:")
print(export_dot(2, 2))
