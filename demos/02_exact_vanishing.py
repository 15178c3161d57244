"""Deciding vanishing exactly.

A sorou of order N vanishes iff its lifted polynomial is divisible by the
N-th cyclotomic polynomial.  is_vanishing reaches the same verdict without
Phi_N: it descends the cyclotomic tower of N one prime at a time down to
integer comparisons, with no tolerance in it, which stays cheap at orders
in the tens of thousands.  Floating point never decides: the numeric value
below is printed for comparison only.
"""

from minvan import (
    cyclotomic_poly,
    is_vanishing,
    numeric_value,
    parse_sorou,
    values_equal,
)

# Phi_12 = x^4 - x^2 + 1 = (x^12 - 1)(x^2 - 1) / ((x^6 - 1)(x^4 - 1))
print("Phi_12 coefficients (lowest degree first):", cyclotomic_poly(12).coefficients)

r5 = parse_sorou("1:0+5:1+5:2+5:3+5:4")
print("\nR_5 vanishes:", is_vanishing(r5))

near = parse_sorou("1:0+5:1+5:2+5:3")  # drop one term: the value is -nu_5^4
print("numeric |1+nu_5+nu_5^2+nu_5^3| =", abs(numeric_value(near)))
print("vanishes:", is_vanishing(near))

# the paper's first worked example: subtracting two valuation-(-1) sorou
h1 = parse_sorou("5:1+5:2+5:3+5:4")
h2 = parse_sorou("3:1+3:2")
print("\nval(h1) = val(h2):", values_equal(h1, h2))
h = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")  # h1 - h2 written with 6th roots
print("h = h1 - h2 vanishes:", is_vanishing(h))

# R_7 and R_11 rotated apart by a 34650th root of unity: Phi_34650 has degree
# 7200, but the tower decides the sum in milliseconds
n = 34650
big = parse_sorou("+".join([f"{n}:{1 + k * n // 7}" for k in range(7)] + [f"{n}:{2 + k * n // 11}" for k in range(11)]))
print("\norder-34650 sum of R_7 and R_11 vanishes:", is_vanishing(big))
