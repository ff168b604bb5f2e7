"""Exact-arithmetic twist quantization of formal dynamical r-matrices.

Truncated formal series over the rationals throughout; every residual is
recomputed, never assumed.  The main pipeline lives in `quantizer`
(solve_adte), classification in `gauge`, the homotopy-transfer machinery
in `linfinity`, and the command-line front end in `cli`.
"""

from .errors import (
    AlgebraError,
    ContractFailure,
    DecompositionError,
    DyntwistError,
    GradingMismatch,
    MorphismUnsound,
    NoSolution,
    NotInImage,
    NotInvariant,
    NotInvertible,
    NotMaurerCartan,
    ObstructionNotRepaired,
    SchemaError,
    SpaceMismatch,
    StraighteningStalled,
    TruncationTooSmall,
    ValuationViolated,
)
from .hseries import HSeries
from .lie_core import LieData, invariant_basis
from .tensor_spaces import CdybElement
from .uea import UEnvelope, UmSplitter
from .adt_dgla import (
    AdtElement,
    adte_residual,
    alt_embed,
    brace,
    cup,
    differential_b,
    gerstenhaber_bracket,
    kappa_solve,
    mc_residual,
)
from .cdyb_dgla import cdybe_residual, delta_homotopy, p1_project
from .linfinity import (
    Contraction,
    MorphismTower,
    classical_contraction,
    invert_contraction,
    mc_transport,
    quantum_contraction,
)
from .quantizer import (
    FormalTwist,
    RMatrix,
    TwistPair,
    dte_residual,
    j_to_k,
    k_to_j,
    semiclassical_check,
    shift_argument,
    solve_adte,
    taylor_rescale,
)
from .gauge import (
    GaugeResult,
    ReducedClassical,
    classical_find_gauge,
    classical_gauge_act,
    find_gauge,
    gauge_act_algebraic,
    reduce_classical,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
