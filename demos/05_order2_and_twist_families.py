"""Order-2 classes: uniqueness thresholds and infinite twist families.

In L(2k,1) the class k is the order-2 class; its minimizer theory is the
minimal nonorientable surface via the dictionary h = 2*theta + 2.  Genus
at most 3 forces a unique minimizer; the first space beyond the threshold
is L(8,1), and there an annulus-twist construction produces an infinite
family of homologous knots, all genus minimizers.
"""

from lensgenus import (
    LensSpace,
    TwistParams,
    build_twist_diagram,
    filling_spec_export,
    nonorientable_genus,
    twist_framings,
    twist_homology,
    uniqueness_check,
)

print("uniqueness of the minimizer in the order-2 class of L(2k,1):")
for k in range(2, 8):
    rep = uniqueness_check(LensSpace(2 * k, 1))
    verdict = "unique" if rep.unique_minimizer_guaranteed else "not guaranteed"
    print(
        f"  L({2*k},1): nonorientable genus {rep.nonorientable_genus}, "
        f"theta = {rep.theta}, minimizer {verdict}"
    )
print(f"(N(2k,1) = k: e.g. N(14,1) = {nonorientable_genus(7)})")

# The twist family lives exactly where uniqueness first fails.  Each
# (a, b, n) gives a six-component surgery diagram; the framed components
# fill to L(2k,1), k = a+b+2, and the unfilled component is the knot.
print("\ntwist diagrams K(a,b,n):")
for a, b, n in [(1, 1, 1), (1, 3, 2), (2, 2, -5)]:
    t = TwistParams(a, b, n)
    fl = build_twist_diagram(t)
    line = filling_spec_export(t)
    h1, knot_class = twist_homology(fl)
    print(f"  (a,b,n) = ({a},{b},{n}), k = {t.k}:")
    print(f"    alpha framings: {twist_framings(n)}")
    print(f"    filled H1: {h1}, knot class: {knot_class}")
    print(f"    export: {line}")

# Twisting is a homeomorphism, so the class never moves with n.
t_values = [-4, -2, -1, 1, 2, 4]
classes = {
    n: twist_homology(build_twist_diagram(TwistParams(1, 3, n)))[1]
    for n in t_values
}
print(f"\nclass of K(1,3,n) for n in {t_values}: {sorted(set(classes.values()))}")
