"""Off-the-grid line spectral estimation from partial measurements.

The pipeline: synthesize or load sub-sampled observations, solve the
reduced semidefinite dual with ADMM, read frequencies off the dual
polynomial, and recover amplitudes by least squares. Multirate systems
are aligned on their minimal common grid first; random selections are
shifted to an admissible pattern.
"""

from .errors import (
    ConditioningError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    LocalizationError,
    NumericalError,
    SpectralSDPError,
)
from .localization import (
    AmplitudeFit,
    CertificateReport,
    EstimationConfig,
    PeakSet,
    SpectrumEstimate,
    dual_polynomial,
    estimate,
    locate_frequencies,
    recover_amplitudes,
    verify_certificate,
)
from .multirate import (
    CommonGrid,
    Grid,
    MultirateSystem,
    align_measurements,
    check_strong_condition,
    check_weak_condition,
    common_grid,
    random_bound_report,
)
from .sampling import (
    PartitionStructure,
    SelectionPattern,
    compute_partition,
    is_admissible_selection,
    normalize_to_admissible,
    random_selection,
)
from .signal_model import (
    RNG_ALGORITHM,
    NoiseSpec,
    SpikeSpectrum,
    add_noise,
    synthesize_grid,
    synthesize_uniform,
    torus_separation,
)
from .solver import ProblemSpec, SolveReport, assemble_problem, solve
from .trigops import poly_eval

__version__ = "0.1.0"
