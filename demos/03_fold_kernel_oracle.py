"""The kernel oracle behind the boundary closed form, and the fold it runs on.

Closed forms in the library are never trusted alone: the peripheral class
that bounds in a knot complement has both a one-line formula and an
independent derivation from a presentation matrix: the lattice of its
rows cut by the (mu, lambda) coordinate plane.  The cut is made by
``fold_columns``, a fold of 2x2 gcd steps, the one reduction the library
has; the twist family's homology is read by the same fold.  This demo
shows the fold, the cut and the agreement sweep.
"""

from math import gcd

from lensgenus import (
    IntMatrix,
    LensSpace,
    WindingData,
    boundary_kernel,
    fold_columns,
    peripheral_kernel,
    presentation_matrix,
)

# The first homology of the complement of a winding-number-4 knot in the
# solid torus inside L(8,1): relations in rows, the generators mu, lambda
# and two more in columns.
a = IntMatrix.from_rows([[4, 0, 0, -1], [0, 1, -4, 0], [0, 0, 8, 1]])
print("presentation matrix rows:", a.to_lists())

# The fold clears the two other columns in turn by unimodular 2x2 steps.
# Each sets aside one pivot row, holding its column's gcd; the rows left
# are zero off (mu, lambda) and span the row lattice's cut by that plane.
pivots, rest = fold_columns(a.to_lists(), [2, 3])
print("pivot rows set aside:", pivots)
print("rows left:", rest)

# Their (mu, lambda) entries generate the kernel of the peripheral map,
# the class that bounds.
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
