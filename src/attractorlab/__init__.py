"""attractorlab: a numerical laboratory for semilinear parabolic systems
whose attractors defeat Lipschitz and log-Lipschitz finite-dimensional
reductions.

The lab constructs the counterexample machinery at explicit spectral
truncation and verifies its closed-form predictions: rotation-coupled
linearization spectra and the parity obstruction, the weighted-shift
Poincare map with its super-exponential iterate decay, almost-cube point
clouds with diverging log-doubling factor, and projected attractors whose
box-counting dimension depends on the Sobolev index.
"""

from .logspace import LogModeVector, NEG_INF, PLANAR_X, PLANAR_Y
from .spectral import (LinearizationSpectrum, ObstructionVerdict,
                       Spectrum, SpectrumError, block_eigenvalues,
                       c1_obstruction_check, cube_width, linearization_spectrum,
                       make_spectrum, regime_bound, spectral_gap)
from .cutoffs import (BumpFunction, CutoffError, PeriodicDrive, SmoothStep,
                      mollifier_bump, periodic_drive, smooth_step)
from .quadrature import adaptive_simpson
from .integrators import (IntegrationError, lawson_rk4, lawson_rk4_adaptive,
                          propagate_periods)
from .floquet import (DecayCertificate, FloquetError,
                      IterateNorms, NumericPoincare, PeriodicOperator,
                      WeightedShift, calibrate_epsilon, decay_certificate,
                      iterate_norm, make_periodic_operator, poincare_numeric,
                      poincare_predicted, ratio_bounds_check, shift_match_report)
from .geometry import (CoverReport, DimensionScan, GeometryError, PointCloud,
                       covering_number, cube_doubling_report, dimension_vs_s_scan,
                       doubling_factor, fractal_dimension_estimate,
                       log_doubling_estimate, separated_count_exact,
                       separated_count_log, smoothness_criterion)
from .simulate import (KickOperator, Scenario, Section4Laws, SimulationError,
                       TrajectoryRecord, bad_cube_cloud, build_kick_operator,
                       log_lipschitz_modulus, section4_attractor,
                       smooth_forcing_laws, thm44_laws, trajectory_pair_experiment)
from .config import (ConfigError, config_hash, drive_from_config, load_config,
                     parse_scales, resolve_config, scenario_from_config,
                     spectrum_from_config)
from .reports import RunReport, fmt17, load_cloud_csv, write_csv, write_json

__version__ = "0.1.0"
