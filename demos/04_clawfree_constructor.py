"""The constructive bounded-set builder for claw-free graphs.

Around any leaf, the closed neighborhood of its support minus the leaf
is a clique, and the rest of the graph splits into fragments that each
touch the clique at one chosen vertex.  A case analysis per fragment
shape assembles a set of size at most 4n/7, verified before return and
backed by the exact solver.  A graph without a leaf takes a verified
greedy witness instead.
"""

from dtdom import (
    DominationKind,
    construct_dtd_clawfree,
    decompose,
    exact_number,
    generate_named,
    greedy_dtd,
    is_dtd_set,
)

DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION

# the decomposition of a path, seen from its first leaf
p9 = generate_named("P9")
dec = decompose(p9, 0)
print("P9 from leaf 0: clique X =", sorted(dec.X))
for frag in dec.fragments:
    print(f"  fragment {sorted(frag.vertices)}: {frag.kind.value}, "
          f"attached at {frag.chosen} ({frag.attachment_profile})")

# the equality family rides the extracted construction exactly
for t in (1, 2, 3, 4, 10):
    g = generate_named(f"H({t})")
    witness, tag = construct_dtd_clawfree(g)
    assert is_dtd_set(g, witness)
    print(f"H({t}): n={g.n}, built set of size {len(witness)} = 4n/7, via {tag}")

# a graph with minimum degree two has no leaf to root the decomposition;
# dtd <= gamma_t, so a greedy total dominating set within 4n/7 is a
# witness, verified like every other route's set
c7 = generate_named("C7")
witness, tag = construct_dtd_clawfree(c7)
print(f"C7: size {len(witness)} via {tag}, a verified greedy witness")

# greedy gives a quick upper bound to compare against
l14 = generate_named("L(14)")
built, tag = construct_dtd_clawfree(l14)
greedy = greedy_dtd(l14)
exact = exact_number(l14, DTD).value
print(f"L(14): constructor {len(built)} ({tag}), greedy {len(greedy)}, exact {exact}")
