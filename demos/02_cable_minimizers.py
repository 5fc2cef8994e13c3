"""Certifying non-simple genus minimizers made by cabling.

The (1,n)-cable of the (1,m)-torus knot shares its homology class mn with
a simple knot.  Above the threshold p/q >= m^2 n the cable's norm matches
the simple knot's norm exactly, so the cable is a second, non-isotopic
genus minimizer (its complement contains an essential torus; the simple
knot's does not).
"""

from lensgenus import IteratedCableParams, LensSpace, explicit_surface_check, iterated_verdict

# The smallest example: the (1,2)-cable of the (1,2)-torus knot in L(8,1).
# A cable is the two-level iterated cable with ms = (m, n).
v = iterated_verdict(IteratedCableParams(LensSpace(8, 1), (2, 2)))
print(f"L(8,1), m = n = 2:")
print(f"  norms: {v.norm_torus_side} (torus side) vs {v.norm_iterated} (cable side)")
print(f"  theta(class {v.homology_class}) = {v.theta}")
print(f"  minimizer certified: {v.certified_minimizer}")
print(f"  non-simplicity certified: {v.certified_nonsimple}")

# Below the threshold the two norms genuinely differ and nothing is
# certified; the cable side is strictly bigger here.
v = iterated_verdict(IteratedCableParams(LensSpace(7, 1), (2, 2)))
print(f"\nL(7,1), m = n = 2 (below threshold):")
print(f"  norms: {v.norm_torus_side} vs {v.norm_iterated}, certified: {v.certified_minimizer}")

# With q = m the minimizer certificate still holds but non-simplicity is
# left open: the verdict never claims the knot IS simple.
v = iterated_verdict(IteratedCableParams(LensSpace(17, 2), (2, 2)))
print(f"\nL(17,2), m = n = 2 (q = m):")
print(f"  norms equal: {v.norms_equal}, non-simplicity certified: {v.certified_nonsimple}")

# Iterated cables: each extra cabling level adds a cable-space piece.
iv = iterated_verdict(IteratedCableParams(LensSpace(32, 1), (2, 2, 2)))
print(f"\nL(32,1), iterated [2,2,2]:")
print(f"  iterated norm {iv.norm_iterated} = torus-knot norm {iv.norm_torus_side}")
print(f"  certified: {iv.certified_minimizer}, theta = {iv.theta}")

# The explicit surface at p = m^2 n: a genus (mn-2)(m-1)/2 surface with m
# boundary components realizes the same normalized complexity.
check = explicit_surface_check(2, 2)
print(f"\nexplicit surface at m = n = 2 (ambient {check.ambient}):")
print(f"  genus {check.surface_genus}, {check.surface_boundaries} boundary curves")
print(f"  theta(m) = {check.theta_inner}, theta(mn) = {check.theta_class}")
print(f"  all identities hold: {check.all_hold}")
