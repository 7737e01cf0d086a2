"""homsim: joint spectral amplitude and Hong-Ou-Mandel dip simulator
for a degenerate photon-pair source pumped by two non-degenerate pulses
in a dispersion-shifted fiber.
"""

__version__ = "0.1.0"

from .units import (  # noqa: F401
    C_NM_PER_PS,
    ExperimentConfig,
    FiberParams,
    FilterShape,
    FilterSpec,
    PumpParams,
    build_config,
    default_config,
    fwhm_nm_to_sigma,
    fwhm_nm_to_sigma_supergaussian,
    wavelength_to_angular_frequency,
)
from .quadrature import (  # noqa: F401
    AccuracyError,
    QuadratureSettings,
)
from .jsa import (  # noqa: F401
    AmplitudeGrid,
    jsa_grid,
    phi_closed,
    q_amplitude,
    write_grid_csv,
)
from .hom import (  # noqa: F401
    AnalysisError,
    DipCurve,
    DipMetrics,
    dip_curve,
    dip_metrics,
)
from .imperfections import (  # noqa: F401
    BeamSplitter,
    SpatialGeometry,
    bessel_j1,
    bs_visibility_factor,
    solve_angle_for_overlap,
    spatial_overlap,
    visibility_budget,
)
from .fitdata import (  # noqa: F401
    CoincidenceDataset,
    FitResult,
    InsufficientDataError,
    ParseError,
    fit_gaussian_dip,
    fit_model,
    ingest_csv,
)
