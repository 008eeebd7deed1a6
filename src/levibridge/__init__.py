"""Levi graphs of point-line configurations, bridge joins and their analysis."""

from .canon import (
    CanonicalForm,
    automorphism_group,
    canonical_form,
    isomorphism,
)
from .construction import (
    BridgeError,
    BridgeSpec,
    CensusClass,
    MarkedEdges,
    Residue,
    StructureError,
    all_bridge_specs,
    bridge_census,
    bridge_graph,
    bridge_join,
    f_residue,
    goedgebeur_configuration,
    goedgebeur_graph,
    identify_goedgebeur,
    marked_edges,
    mk_residue,
)
from .cuts import (
    CutCertificate,
    cyclic_edge_connectivity,
    is_essentially_4_edge_connected,
)
from .graphs import (
    Bipartition,
    Graph,
    Graph6Error,
    GraphError,
    bipartition,
    build,
    girth,
    gp,
    graph6_decode,
    graph6_encode,
    heawood,
    is_cubic,
    k33,
    lcf,
    moebius_kantor_graph,
    pappus,
    parse_lcf,
    petersen,
    prism,
)
from .groups import (
    GroupError,
    PermGroup,
    compose,
    cycle_type,
    cycles,
    edge_action,
    groups_isomorphic,
    inverse,
    is_abelian,
    is_normal,
    is_subgroup,
    order_profile,
    perm_order,
    semidirect_certificate,
)
from .incidence import (
    Configuration,
    ConfigurationError,
    automorphism_order,
    configuration,
    dual,
    fano,
    is_self_dual,
    levi_graph,
    moebius_kantor,
)
from .survey import (
    aut_structure,
    refutation_check,
    run_survey,
    survey_json,
)
from .twofactors import (
    ALL_EVEN,
    ALL_ODD,
    MIXED,
    NO_TWO_FACTOR,
    TwoFactorReport,
    pseudo_2fi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
