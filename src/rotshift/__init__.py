"""Exact invariants of rotation-decorated labeled graphs.

The package takes a finite left-resolving labeled graph whose symbols
carry exact circle rotation angles and computes invariants of the
dynamical system and operator algebra it presents: the sofic language,
condition (I), irreducibility, the lattice of invariant ideals and the
induced quotients, minimality of the decorated action, simplicity and
pure-infiniteness verdicts, and K-groups via the integer invariant
factors of I - A.  Every exact decision is paired with an independent
numeric or brute-force oracle in rotshift.oracles.
"""

__version__ = "0.1.0"

from .angles import (  # noqa: F401
    DEFAULT_GENERATOR_VALUE,
    EMPTY_CONTEXT,
    ExactAngle,
    GeneratorContext,
    parse_angle,
)
from .graph import (  # noqa: F401
    Edge,
    LabeledGraph,
    full_shift_graph,
    validate_graph,
)
from .subshift import admissible_words  # noqa: F401
from .intlinalg import (  # noqa: F401
    AbelianGroupPresentation,
    IntMatrix,
    cokernel,
    invariant_factors,
)
from .ideals import (  # noqa: F401
    classify_subset,
    enumerate_invariant_saturated,
    quotient_system,
)
from .verdicts import (  # noqa: F401
    VerdictReport,
    condition_I,
    crossed_product_simplicity,
    fullshift_verdicts,
    graph_minimality,
    irrational_cycle,
    is_irreducible,
    pure_infiniteness,
)
from .ktheory import (  # noqa: F401
    KGroups,
    bunce_deddens_data,
    core_dimension_data,
    graph_k_groups,
)
from .oracles import (  # noqa: F401
    matrix_product_admissible,
    orbit_density,
    weyl_sums,
)
from .fileformat import (  # noqa: F401
    SystemDocument,
    parse_system,
    parse_system_file,
    serialize_system,
)
