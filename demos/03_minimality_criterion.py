"""Certifying minimal vanishing via the subsidiary decomposition.

At the top prime p, a vanishing sorou splits into slots h = sum nu_p^j f_j.
It is minimal iff the smallest slot has nonzero value, no slot has a
vanishing proper subsorou, and the slots share no common proper-subsorou
value.  A definition-level brute force over all sub-multisets cross-checks
the criterion.
"""

from minvan import (
    decompose_into_minimal,
    is_minimal_vanishing,
    is_minimal_vanishing_bruteforce,
    parse_sorou,
    render_sorou,
    to_subsidiary,
    top_prime,
)

h = parse_sorou("5:1+5:2+5:3+5:4+6:1+6:5")
print("h =", render_sorou(h), "  top prime:", top_prime(h))
for j, part in enumerate(to_subsidiary(h)):
    print(f"  f_{j} =", render_sorou(part) if part else "(empty)")
print("verdict:", is_minimal_vanishing(h))
print("brute force agrees:", is_minimal_vanishing_bruteforce(h))

# doubling R_3 is vanishing but not minimal; the criterion names a reason
double = parse_sorou("1:0+1:0+3:1+3:1+3:2+3:2")
print("\nR_3 + R_3 verdict:", is_minimal_vanishing(double))

# every vanishing sorou splits into minimal parts (not uniquely; the
# deterministic rule extracts smallest parts first)
mix = parse_sorou("1:0+1:0+2:1+5:1+5:2+5:3+5:4")
print("\ndecomposition of", render_sorou(mix))
for part in decompose_into_minimal(mix):
    print("  part:", render_sorou(part))
