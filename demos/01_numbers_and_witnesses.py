"""Computing domination numbers exactly, with witnesses.

A disjunctive total dominating set covers every vertex either by an
adjacent member or by two members at distance exactly two.  This walk
through compares the three domination variants on a few small graphs.
"""

from dtdom import (
    DominationKind,
    exact_number,
    generate_named,
    is_dtd_set,
)
from dtdom.graph import bits_to_vertices, distance2_bits

# the 7-cycle: total domination needs 4 vertices, and relaxing to the
# disjunctive condition cannot do better here
c7 = generate_named("C7")
for kind in DominationKind:
    res = exact_number(c7, kind)
    print(f"C7 {kind.value:>4}: {res.value}  witness {sorted(res.witness)}")

# the pentagon shows the relaxation paying off: two adjacent vertices
# disjunctively totally dominate C5, while total domination needs three
c5 = generate_named("C5")
print("\nC5 dtd:", exact_number(c5, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION).value)
print("C5 tdom:", exact_number(c5, DominationKind.TOTAL_DOMINATION).value)
print("is {0,1} a DTD-set of C5?", is_dtd_set(c5, {0, 1}))

# distance-2 rows expose the coverage logic directly: vertex 3 has no
# neighbour in {0, 1}, but both members lie at distance exactly two
at_distance_2 = bits_to_vertices(distance2_bits(c5)[3])
print("members at distance exactly 2 from vertex 3:", sorted(at_distance_2 & {0, 1}))

# a star is totally dominated by its center plus any leaf
star = generate_named("Star(3)")
res = exact_number(star, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)
print("\nK_{1,3} dtd:", res.value, "witness", sorted(res.witness))
