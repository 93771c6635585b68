"""Tree decompositions from balanced separations.

Constructive pipeline turning balanced-separation oracles into tree
decompositions with width below (7915/139) times the separation order,
plus the supporting machinery: vertex-disjoint path computations,
W-sequences, exact small-instance oracles, and PACE-format I/O.
"""

from .constructor import (
    CONSTANTS,
    Constants,
    ConstructReport,
    construct,
    construct_theorem2,
)
from .decomposition import (
    RootedTreeDecomposition,
    restrict_decomposition,
    separation_tree,
    validate_decomposition,
    width,
)
from .errors import SepDecompError
from .graph import (
    Graph,
    Separation,
    build_graph,
    induced_subgraph,
    is_balanced,
    is_separation,
    is_w_balanced,
)
from .menger import disjoint_paths, separates
from .pace import export_dot, parse_gr, parse_td, write_gr, write_td
from .separations import (
    balanced_separation_within,
    make_oracle,
    min_balanced_separation,
    min_w_balanced_separation,
    separation_number,
    stz_separation,
)
from .verification import (
    SuiteConfig,
    SuiteReport,
    check_sep_le_tw,
    check_zw_inequality,
    run_suite,
    treewidth_exact,
)
from .wsequence import WSequence, build_w_sequence, validate_w_sequence

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "Constants",
    "ConstructReport",
    "Graph",
    "RootedTreeDecomposition",
    "SepDecompError",
    "Separation",
    "SuiteConfig",
    "SuiteReport",
    "WSequence",
    "balanced_separation_within",
    "build_graph",
    "build_w_sequence",
    "check_sep_le_tw",
    "check_zw_inequality",
    "construct",
    "construct_theorem2",
    "disjoint_paths",
    "export_dot",
    "induced_subgraph",
    "is_balanced",
    "is_separation",
    "is_w_balanced",
    "make_oracle",
    "min_balanced_separation",
    "min_w_balanced_separation",
    "parse_gr",
    "parse_td",
    "restrict_decomposition",
    "run_suite",
    "separates",
    "separation_number",
    "separation_tree",
    "stz_separation",
    "treewidth_exact",
    "validate_decomposition",
    "validate_w_sequence",
    "width",
    "write_gr",
    "write_td",
]
