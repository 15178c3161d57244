"""Exact classification of minimal vanishing sums of roots of unity."""

from minvan.cyclotomic import (
    IntPolynomial,
    cyclotomic_poly,
    is_vanishing,
    numeric_value,
    values_equal,
)
from minvan.enumeration import SorouCache, sorou_of_minvan_type, sorou_of_typesum_anchored, type_statistics
from minvan.minimality import (
    MinimalityVerdict,
    decompose_into_minimal,
    is_minimal_vanishing,
    is_minimal_vanishing_bruteforce,
)
from minvan.sorou import (
    ONE,
    Root,
    Sorou,
    canonicalize,
    from_subsidiary,
    height,
    make_root,
    order,
    parity,
    parse_sorou,
    proper_nonempty_subsorous,
    relative_order,
    render_sorou,
    rotate,
    split_root,
    subtract,
    to_subsidiary,
    top_prime,
    weight,
)
from minvan.store import (
    TypeDatabase,
    load_db,
    save_cache,
    save_db,
    write_csv_report,
    write_latex_report,
)
from minvan.typegen import (
    GenerationConfig,
    candidate_f0s,
    generate_next_weight,
    types_2pq_oracle,
)
from minvan.types import (
    MinVanType,
    TypeRecord,
    TypeSum,
    family_representative,
    infer_type,
    parse_type,
    render_type,
    render_type_latex,
    representative_sorou,
    type_weight,
    weight_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
