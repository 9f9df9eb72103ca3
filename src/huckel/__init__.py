"""Graph energy and Huckel energy toolkit.

Spectra of simple graphs, the Huckel (half-filled) energy, sharp upper and
lower bounds with equality classification, exhaustive small-order
verification sweeps, and finite-field constructions of the extremal strongly
regular families.
"""

from .graphs import (
    Graph,
    Graph6Error,
    GraphStats,
    add_duplicate_vertex,
    add_isolated_vertex,
    complement,
    disjoint_union,
    parse_graph6,
    seidel_switch,
    stats,
    write_graph6,
)
from .spectra import (
    EnergyValues,
    SpectralError,
    Spectrum,
    eigenvalues,
    energy,
    energy_values,
    group_spectrum,
    huckel_energy,
)
from .bounds import (
    BoundReport,
    bound_report,
    classify_equality,
    lemma1_check,
    lower_bound,
    scan_order_bound,
    upper_bound,
    upper_bound_applies,
    upper_bound_even,
    upper_bound_odd,
    upper_bound_order,
    upper_bound_order_even,
    upper_bound_order_odd,
)
from .srg import (
    InfeasibleParamsError,
    SrgParams,
    extremal_family_params,
    predicted_extremal_he,
    predicted_spectrum,
    srg_params,
    switched_family_params,
)
from .gf import (
    FiniteField,
    is_prime_power,
    is_square,
    make_field,
    subfield_coset_partition,
)
from .constructions import (
    ConstructionError,
    RemarkSpectrumReport,
    build_extremal_srg,
    build_remark_graph,
    build_switched_srg,
    conference_he_closed_form,
    paley_graph,
    remark_cubic,
    verify_remark_spectrum,
)
from .sweep import (
    ALL_CHECKS,
    CheckTally,
    SweepReport,
    sweep,
    sweep_labeled,
)

__version__ = "0.1.0"
