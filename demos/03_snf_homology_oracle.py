"""The Smith-normal-form oracle behind every homology claim.

Closed forms in the library are never trusted alone: the peripheral class
that bounds in a knot complement has both a one-line formula and an
independent derivation from a presentation matrix: the lattice of its
rows cut by the (mu, lambda) coordinate plane.  This demo shows the
machinery and the agreement sweep.
"""

from math import gcd

from lensgenus import (
    IntMatrix,
    LensSpace,
    WindingData,
    boundary_kernel,
    cokernel_invariants,
    peripheral_kernel,
    presentation_matrix,
    smith_normal_form,
)

# Smith normal form: U A V = D with unimodular U, V and a divisibility
# chain down the diagonal.
a = IntMatrix.from_rows([[4, 0, 0, -1], [0, 1, -4, 0], [0, 0, 8, 1]])
res = smith_normal_form(a)
print("presentation matrix rows:", a.to_lists())
print("diagonal:", [list(r) for r in res.D])
print("invariant factors:", res.invariant_factors)
print("cokernel:", cokernel_invariants(a))  # Z + Z/4

# That matrix presents the first homology of the complement of a
# winding-number-4 knot in the solid torus inside L(8,1).  The kernel of
# the peripheral map, the combinations of rows that vanish off the mu and
# lambda columns, picks out the class that bounds.
print("\nperipheral kernel (mu, lambda):", peripheral_kernel(a, 0, 1))

# The closed form gives the same answer without any linear algebra.
data = WindingData(LensSpace(8, 1), 4)
cls = boundary_kernel(data)
print("closed form:", (cls.mu_coeff, cls.lambda_coeff))

# Sweep a grid: the two routes must agree everywhere.
mismatches = 0
checks = 0
for p in range(2, 31):
    for q in range(1, p):
        if gcd(p, q) != 1:
            continue
        for w in range(0, 31):
            d = WindingData(LensSpace(p, q), w)
            closed = boundary_kernel(d)
            oracle = peripheral_kernel(presentation_matrix(d), 0, 1)
            checks += 1
            if oracle != (closed.mu_coeff, closed.lambda_coeff):
                mismatches += 1
print(f"\nagreement sweep p <= 30, w <= 30: {checks} checks, {mismatches} mismatches")
