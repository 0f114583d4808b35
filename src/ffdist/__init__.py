"""ffdist: exact counting over prime fields.

Distance and dot-product spectra of Cartesian powers and general point
sets, d-fold energies with brute-force oracles, weighted multiset pair
counts with exact deviation bounds, point-plane incidence counting, and
theorem-level verification harnesses, all in exact integer arithmetic.
"""

__version__ = "0.1.0"

from .encodings import (
    deviation_check,
    encode,
    pair_counts,
)
from .energy import (
    additive_energy,
    distance_energy,
    dot_energy,
    dyadic_levels,
    energy_bruteforce_oracle,
    energy_from_spectrum,
    recursion_diagnostic,
)
from .errors import GuardExceeded, InvariantViolation, ParseError
from .field import FieldElement, PrimeModulus, additive_character
from .incidence import (
    IncidenceInstance,
    PlaneSet,
    build_proof_instance,
    count_incidences,
    max_collinear,
    rudnev_diagnostic,
)
from .sets import (
    FieldSubset,
    WeightedPointSet,
    isotropic_line,
    parse_subset,
    random_multiset,
    random_pointset,
    random_subset,
)
from .spectra import (
    Spectrum,
    base_spectrum,
    cyclic_convolve,
    diff_square_spectrum,
    distance_spectrum_general,
    fold,
    power_spectrum,
    product_spectrum,
    sumset,
    support,
)
from .verify import (
    CoverageReport,
    Decomposition,
    balog_wooley_decompose,
    cauchy_davenport_check,
    coverage_check,
    delta_additivity_check,
    iosevich_rudnev_check,
    theorem_last_report,
    threshold_scan,
)
