"""Exact verification of inner and 2-local derivations on matrix rings
over commutative rings, and of their Jordan analogs on symmetric
matrices. All arithmetic is exact; every identity is checked for
equality, never approximately.
"""

from .campaign import SUITES, CampaignConfig, Report, run_campaign
from .checks import CheckReport, Violation
from .derivations import (
    InnerDerivation,
    entrywise,
    extend_m2,
    extend_tower,
    leibniz_check,
    two_generator_check,
)
from .errors import (
    ContractError,
    DerivringError,
    DomainError,
    InvalidRing,
    ParseError,
)
from .jordan import (
    JordanPairDerivation,
    JordanWitnessFamily,
    check_corner_consistency,
    check_diag_zero,
    gen_jordan_instance,
    pairs_to_commutator,
    reconstruct_abar_jordan,
    verify_jordan_theorem,
)
from .matrices import (
    Matrix,
    SkewMatrix,
    SymmetricMatrix,
    commutator,
    jordan_mul,
    matrix_unit,
    probe_x0,
    symmetric_part,
)
from .rings import BaseDerivation, PolyRing, RingElement, Zmod
from .twolocal import (
    NoiseSpec,
    ReconstructionResult,
    TwoLocalOracle,
    WitnessFamily,
    check_cross_corner,
    check_diag_difference,
    check_offdiag_formula,
    gen_witness_family,
    reconstruct_abar,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "BaseDerivation",
    "CampaignConfig",
    "CheckReport",
    "ContractError",
    "DerivringError",
    "DomainError",
    "InnerDerivation",
    "InvalidRing",
    "JordanPairDerivation",
    "JordanWitnessFamily",
    "Matrix",
    "NoiseSpec",
    "ParseError",
    "PolyRing",
    "ReconstructionResult",
    "Report",
    "RingElement",
    "SUITES",
    "SkewMatrix",
    "SymmetricMatrix",
    "TwoLocalOracle",
    "Violation",
    "WitnessFamily",
    "Zmod",
    "check_corner_consistency",
    "check_cross_corner",
    "check_diag_difference",
    "check_diag_zero",
    "check_offdiag_formula",
    "commutator",
    "entrywise",
    "extend_m2",
    "extend_tower",
    "gen_jordan_instance",
    "gen_witness_family",
    "jordan_mul",
    "leibniz_check",
    "matrix_unit",
    "pairs_to_commutator",
    "probe_x0",
    "reconstruct_abar",
    "reconstruct_abar_jordan",
    "run_campaign",
    "symmetric_part",
    "two_generator_check",
    "verify_jordan_theorem",
    "verify_theorem1",
]
