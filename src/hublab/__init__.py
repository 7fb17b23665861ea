"""hublab: hub labelings of sparse graphs, hard layered families, covering
audits, and a simulated sum-index protocol."""

from .graph_core import (
    UNREACHABLE,
    DenseDistanceMatrix,
    GraphFormatError,
    ResourceLimitError,
    UnreachablePairError,
    WeightedGraph,
    ZeroWeightError,
    all_pairs,
    canonical_trees,
    count_shortest_paths,
    distance_between,
    distances_from,
    is_unique_shortest_path,
    path_weight,
    read_graph,
    write_graph,
)
from .family_gen import (
    FamilyInstance,
    FamilyParams,
    LevelCoord,
    build_H,
    delete_level_mid,
    expand_to_G,
    instance_from_files,
    read_metadata,
    write_metadata,
)
from .hub_labeling import (
    CoverReport,
    HubLabeling,
    baseline_full,
    monotone_closure,
    query,
    read_labels,
    verify_cover,
    write_labels,
)
from .lowerbound_audit import (
    CountingReport,
    InvalidCoverError,
    TripletReport,
    audit_counting,
    audit_lemma1,
    counting_rhs,
    parity_pairs,
)
from .sumindex_protocol import (
    SumIndexInstance,
    SumIndexTranscript,
    build_instance_graph,
    measure_message_size,
    repr_decode,
    repr_value,
    run_protocol,
)
from .upperbound_builder import (
    BuilderArtifacts,
    BuilderConfig,
    BuildReport,
    BuildResult,
    CoverVerificationError,
    InducedMatchingViolation,
    ResampleExhausted,
    assemble,
    build_for_graph,
    build_matchings,
    project_back,
    reduce_degree,
    sample_cover_set,
    sample_coloring,
)

__version__ = "0.1.0"
