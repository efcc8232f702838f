"""Exact lower bounds on the index-coding broadcast rate.

The package solves a subset-lattice LP with an exact rational simplex,
verifies sparse dual certificates, combines certificates across
lexicographic products, and builds characteristic-specific constraint
schemas from one tightened matroid inequality per parity. Everything
numeric is a rational; nothing is trusted without re-verification.
"""

from icbound.errors import (
    CertificateInvalid,
    InputError,
    ResourceCapError,
    VerificationError,
)
from icbound.groundset import GroundSet, LatticeHom, SetVector
from icbound.instance import IndexCodingInstance, cycle_instance
from icbound.schema import (
    HomExtRow,
    HomExtSchema,
    SideRow,
    SubmodRow,
    SubmodSchema,
    UnionSchema,
)
from icbound.lp import build_problem, solve_problem
from icbound.certificate import (
    DualCertificate,
    c5_certificate,
    combine_certificates,
    verify_certificate,
)
from icbound.matroid import (
    Matroid,
    addineq_certificate,
    fano,
    nonfano,
    rank_from_matrix,
    to_index_coding,
)
from icbound.tighten import (
    SubspaceTuple,
    dimension_vector,
    fano_alpha,
    fano_schema,
    lambda_even,
    lambda_odd,
    schema_with_submod,
    tighten_transpose_apply,
)
from icbound.lincode import (
    ScalarLinearCode,
    code_entropy_vector,
    is_valid_code,
    min_scalar_linear_rate,
    underrep_check,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateInvalid",
    "InputError",
    "ResourceCapError",
    "VerificationError",
    "GroundSet",
    "LatticeHom",
    "SetVector",
    "IndexCodingInstance",
    "cycle_instance",
    "HomExtRow",
    "HomExtSchema",
    "SideRow",
    "SubmodRow",
    "SubmodSchema",
    "UnionSchema",
    "build_problem",
    "solve_problem",
    "DualCertificate",
    "c5_certificate",
    "combine_certificates",
    "verify_certificate",
    "Matroid",
    "addineq_certificate",
    "fano",
    "nonfano",
    "rank_from_matrix",
    "to_index_coding",
    "SubspaceTuple",
    "dimension_vector",
    "fano_alpha",
    "fano_schema",
    "lambda_even",
    "lambda_odd",
    "schema_with_submod",
    "tighten_transpose_apply",
    "ScalarLinearCode",
    "code_entropy_vector",
    "is_valid_code",
    "min_scalar_linear_rate",
    "underrep_check",
    "__version__",
]
