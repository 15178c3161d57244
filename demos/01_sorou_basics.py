"""Sums of roots of unity: representation, rotation, orders, parity.

A root of unity is a reduced pair (order, power) for e^(2*pi*i*power/order);
a sorou is a sorted multiset of them.  This walkthrough builds the small
examples that anchor everything else: R_p, rotations, and the two different
notions of order.
"""

from minvan import (
    make_root,
    numeric_value,
    order,
    parity,
    parse_sorou,
    relative_order,
    render_sorou,
    rotate,
)
from minvan.sorou import sorou

# R_3 = 1 + nu_3 + nu_3^2, entered three ways
r3 = sorou([(1, 0), (3, 1), (3, 2)])
assert r3 == parse_sorou("1:0+3:1+3:2")
assert r3 == sorou([(6, 0), (6, 2), (6, 4)])  # roots reduce to lowest terms
print("R_3 =", render_sorou(r3), "   value =", numeric_value(r3))

# rotation multiplies every term by a fixed root; R_3 is nu_3-invariant
print("nu_3 * R_3 =", render_sorou(rotate(r3, make_root(3, 1))))
print("nu_4 * R_3 =", render_sorou(rotate(r3, make_root(4, 1))))

# order vs relative order: rotating changes the order but never the
# relative order (the lcm of all term ratios)
h = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")
print("\nh =", render_sorou(h))
print("order(h) =", order(h), "  relative_order(h) =", relative_order(h))
g = rotate(h, make_root(7, 1))
print("order(nu_7 h) =", order(g), "  relative_order(nu_7 h) =", relative_order(g))

# parity counts odd-order terms vs even-order terms, as an unordered pair
print("\nparity(h) =", parity(h))
print("parity(R_3) =", parity(r3))
print("parity(1 + (-1)) =", parity(parse_sorou("1:0+2:1")))
