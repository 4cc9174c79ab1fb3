"""Exact integer-lattice tools for equal-sum exchange properties of tuples.

The package decides the exchange property (P_{r,s}) on tuples of integer
vectors, computes subgroup ranks and rational basis certificates, decides
adequate-basis existence, audits the structural claims that drive the
rank-bound argument, classifies extremal tuples into two canonical shapes
with verifiable certificates, and exhausts small universes looking for
counterexample candidates.  All arithmetic is exact (int / Fraction).
"""

from .lattice import (
    Lattice,
    contains,
    det_bareiss,
    full_lattice,
    hnf_rows,
    primitive_representative,
    solve_coordinates,
    sublattice_index,
    zero_vector,
)
from .tuples import (
    BudgetExceeded,
    GroupTuple,
    PropertyReport,
    TupleFormatError,
    equal_pair,
    group_tuple,
    has_property,
    load_tuple,
    parse_tuple,
    property_cost,
    property_work,
    rank,
    span,
    subset_sum,
    to_json_obj,
    translate,
    value_multiplicities,
)
from .structure import (
    AdequateBasisDecision,
    AuditReport,
    MPartition,
    QBasisCertificate,
    SignPartition,
    adequate_basis_decide,
    audit_claims,
    m_partition,
    q_basis_certificate,
    sign_partition,
    verify_certificate,
)
from .classify import (
    VARIANT_RANK_BELOW,
    VARIANT_TYPE_A,
    VARIANT_TYPE_B,
    VARIANT_UNCLASSIFIED,
    CertificateFormatError,
    Classification,
    canonical_pattern,
    classification_from_json_obj,
    classify,
    rebase_type_b,
    verify_classification,
)
from .generators import GeneratorSpec, generate, random_unimodular
from .exhaustive import EnumerationJob, run_enumeration

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "GroupTuple",
    "PropertyReport",
    "TupleFormatError",
    "CertificateFormatError",
    "Lattice",
    "AdequateBasisDecision",
    "AuditReport",
    "MPartition",
    "QBasisCertificate",
    "SignPartition",
    "Classification",
    "GeneratorSpec",
    "EnumerationJob",
    "VARIANT_RANK_BELOW",
    "VARIANT_TYPE_A",
    "VARIANT_TYPE_B",
    "VARIANT_UNCLASSIFIED",
    "adequate_basis_decide",
    "audit_claims",
    "canonical_pattern",
    "classification_from_json_obj",
    "classify",
    "contains",
    "det_bareiss",
    "equal_pair",
    "full_lattice",
    "generate",
    "group_tuple",
    "has_property",
    "hnf_rows",
    "load_tuple",
    "m_partition",
    "parse_tuple",
    "primitive_representative",
    "property_cost",
    "property_work",
    "q_basis_certificate",
    "random_unimodular",
    "rank",
    "rebase_type_b",
    "run_enumeration",
    "sign_partition",
    "solve_coordinates",
    "span",
    "sublattice_index",
    "subset_sum",
    "to_json_obj",
    "translate",
    "value_multiplicities",
    "verify_certificate",
    "verify_classification",
    "zero_vector",
    "__version__",
]
