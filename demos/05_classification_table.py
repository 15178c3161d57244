"""Reproducing the classification table weight by weight.

Starting from nothing, each pass generates every minimal vanishing type of
the next weight from the completed lower weights, then enumerates each new
type's sorou classes to collect parities and heights.  Weights 2 through 13
take a few seconds; 16 is well under a minute.
"""

import time

from minvan import (
    GenerationConfig,
    SorouCache,
    TypeDatabase,
    generate_next_weight,
    render_type_latex,
    type_statistics,
)

MAX_WEIGHT = 13

cache = SorouCache()
db = TypeDatabase()
start = time.monotonic()
for w in range(2, MAX_WEIGHT + 1):
    new_types = generate_next_weight(db, GenerationConfig(target_weight=w), cache)
    records = [type_statistics(m, cache) for m in new_types]
    db.commit_weight(w, records)
    print(f"weight {w:2d}: {len(records)} types")
    for r in records:
        parities = ", ".join(f"({a},{b})" for a, b in sorted(r.parities))
        print(f"    {render_type_latex(r.type):42s} parities {parities}")
print(f"\n{len(db.records)} types through weight {MAX_WEIGHT} "
      f"in {time.monotonic() - start:.1f}s")
