"""Finite lattice computation engine.

Boolean-lattice reduction chains, bounded-lattice differences, projections
onto family levels, lattice-valued probability, and symbolic sequence
pyramids, with a batch CLI (``primlat``).
"""

from .core import (
    FiniteLattice,
    FinitePoset,
    InvariantError,
    LatticeError,
    PropertyReport,
    build_lattice,
    classify,
    enumerate_lattices,
)
from .ortho import (
    OrthoError,
    OrthoLattice,
    attach_ortho,
    classify_negation,
    ortho_class,
    relations,
    relations_of,
    sasaki,
)
from .primorial import (
    Level,
    PrimorialLattice,
    boolean_carrier,
    difference,
    dposet_check,
    generate_primorial,
    is_primorial,
    reduce_boolean,
)
from .probability import (
    ProbabilityAssignment,
    ProbabilityError,
    probability_report,
    validate_probability,
)
from .projection import (
    proj_ceiling,
    proj_metric,
    proj_sasaki,
    proj_zero,
    project,
    project_sequence,
)
from .seqproc import (
    AnalysisPyramid,
    SymbolAlphabet,
    analyze,
    encode,
    gsp_preset,
    load_fasta,
    synthesize,
)
from .valuation import (
    LatticeMetric,
    check_valuation,
    metric_from_valuation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
