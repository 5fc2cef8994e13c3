"""Simple knots, homology classes, and exact norms of torus-knot classes.

Walks the basic dictionary: which simple knot sits in a homology class,
when it is a (1,k)-torus knot, and what its exact normalized complexity
(theta = twice the rational genus) is.
"""

from lensgenus import (
    H1Class,
    LensSpace,
    simple_knot_class,
    simple_knot_in_class,
    torus_knot_theta,
)

space = LensSpace(8, 1)
print(f"ambient: {space}, H1 = Z/{space.p}")

# Every class holds exactly one simple knot; with q = 1 the marking
# parameter and the class coincide.
for a in range(space.p):
    print(f"  marking a={a} represents class {simple_knot_class(space, a)}")

a = simple_knot_in_class(H1Class(4, space))
print(f"simple knot in class 4 has marking a = {a}")

# The simple knot in class k is the (1,k)-torus knot exactly when the
# criterion k*q < p + q holds; here 4*1 < 8 + 1.
k = 4
if k * space.q < space.p + space.q:
    print(f"class {k} is represented by the (1,{k})-torus knot")

# Its exact norm data: chi_minus = 8 on the class with meridian pairing 8,
# so theta = 1 (rational genus 1/2).
report = torus_knot_theta(space, 4)
print(
    f"chi_minus = {report.chi_minus}, mu-pairing = {report.p}, "
    f"theta = {report.theta}, fibered = {report.fibered}"
)

# theta across several spaces; the value (k-2)/2 appears for the order-2
# class in L(2k,1).
print("theta of the half class in L(2k,1):")
for k in range(2, 9):
    theta = torus_knot_theta(LensSpace(2 * k, 1), k).theta
    print(f"  k = {k}: theta = {theta}")
