"""picturecalc: braided, annular and planar semigroup diagrams and their groups.

Normal forms and arithmetic for diagrams over a semigroup presentation,
group-labelled picture products, tree-pair models of Thompson's groups
F/T/V, the universal embedding of diagram groups into picture products
over <x | x=x.x>, and a finite-ball explorer/verifier for the associated
quasi-median graphs.
"""

from .coeff import (
    CoefficientSystem,
    CyclicSpec,
    FreeSpec,
    GraphProductWord,
    GroupElement,
    ProductGraph,
    TrivialSpec,
    coeff_invert,
    coeff_multiply,
    coeff_parse,
    coeff_serialize,
    cyclic_element,
    free_element,
    gp_equal,
    gp_head_support,
    gp_invert,
    gp_multiply,
    gp_reduce,
    identity,
    make_system,
    product_graph,
    spec_parse,
    trivial_system,
)
from .errors import CompositionError, EnumerationError, ParseError
from .picture import (
    Diagram,
    atom_linear,
    atom_permutation,
    atom_transistor,
    boundaries,
    canonical_key,
    class_representative,
    classify_geometry,
    classify_kind,
    concat,
    eps,
    invert,
    is_reduced,
    length,
    multiply,
    reduce,
    sum_diagrams,
)
from .presentation import (
    SemigroupPresentation,
    Violation,
    Word,
    builtin_presentation,
    parse_presentation,
    parse_word,
    serialize_presentation,
    validate_presentation,
)
from .moves import BallConfig, enumerate_reduced
from .thompson import (
    NAdic,
    TreePair,
    diagram_to_tree_pair,
    evaluate_map,
    identity_pair,
    membership,
    nadic,
    reduce_pair,
    tp_invert,
    tp_multiply,
    tree_pair_to_diagram,
)
from .embed import (
    check_length_bounds,
    free_system,
    gamma,
    make_block,
    pi,
    project_to_thompson,
    psi,
)
from .qmgraph import (
    BallGraph,
    Hyperplane,
    VertexClass,
    ball,
    condition_plus_check,
    geodesic,
    hyperplanes,
    hyperplanes_report,
    neighbors,
    pair_distance,
    pins_report,
    rotative_stab_probe,
    to_dot,
    verify_qm_axioms,
)
from .io import (
    diagram_from_json,
    diagram_to_json,
    dump_diagram,
    load_diagram,
    tree_pair_from_text,
    tree_pair_to_text,
)

__version__ = "0.1.0"
