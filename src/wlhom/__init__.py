"""Label refinement, tree homomorphism counting, and distinguishing trees.

The three layers: `graphs`/`trees` hold the data structures and file
formats, `wl`/`homs` implement the neighbor-multiset label test and the
exact counting DP, and `synth` turns a label difference into an explicit
tree with different homomorphism counts plus a checkable certificate.
"""

from .graphs import (
    Graph,
    GraphFormatError,
    empty_graph,
    parse_graph,
    path_graph,
    permute,
    serialize_graph,
)
from .homs import (
    BudgetExceededError,
    LabelConsistencyError,
    brute_force_hom,
    hom_by_label,
    hom_count,
    rooted_hom,
)
from .synth import (
    Certificate,
    CertificateError,
    InconclusiveError,
    SynthesisInvariantError,
    certificate_from_json,
    certificate_to_json,
    lift,
    synthesize,
    verify,
)
from .trees import (
    ExpansionLimitError,
    TreeArena,
    TreeFormatError,
    expand_tree,
    parse_tree,
    serialize_tree,
)
from .wl import (
    LabelTable,
    distinguishing_level,
    joint_refine,
    refine_verdict,
)

__all__ = [
    "BudgetExceededError",
    "Certificate",
    "CertificateError",
    "ExpansionLimitError",
    "Graph",
    "GraphFormatError",
    "InconclusiveError",
    "LabelConsistencyError",
    "LabelTable",
    "SynthesisInvariantError",
    "TreeArena",
    "TreeFormatError",
    "brute_force_hom",
    "certificate_from_json",
    "certificate_to_json",
    "distinguishing_level",
    "empty_graph",
    "expand_tree",
    "hom_by_label",
    "hom_count",
    "joint_refine",
    "lift",
    "parse_graph",
    "parse_tree",
    "path_graph",
    "permute",
    "refine_verdict",
    "rooted_hom",
    "serialize_graph",
    "serialize_tree",
    "synthesize",
    "verify",
]

__version__ = "0.1.0"
