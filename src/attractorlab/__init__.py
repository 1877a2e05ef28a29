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

from .outcome import Outcome
from .spectral import (ObstructionVerdict, Spectrum, SpectrumError,
                       c1_obstruction_check, cube_width, gap_check, make_spectrum,
                       regime_bound, site_pairs, spectral_gap)
from .cutoffs import (BumpFunction, CutoffError, PeriodicDrive, SmoothStep,
                      mollifier_bump)
from .quadrature import adaptive_simpson
from .integrators import (IntegrationError, lawson_rk4, lawson_rk4_adaptive,
                          propagate_periods)
from .floquet import (ClosingLaw, FloquetError,
                      IterateNorms, NumericPoincare, PeriodicOperator,
                      WeightedShift, calibrate_epsilon, closing_law,
                      iterate_norm, make_periodic_operator, poincare_numeric,
                      poincare_predicted, ratio_bounds_check)
from .phases import (floquet_check, phase_blocks, phase_constants, poincare_columns,
                     shift_match_report)
from .geometry import (NEG_INF, PLANAR_X, PLANAR_Y, CoordTable,
                       DimensionScan, GeometryError, PointCloud, cloud_rows,
                       covering_number, cube_dimension, cube_doubling_report,
                       doubling_factor, fractal_dimension_estimate,
                       log_doubling_estimate, slopes_diverge, sobolev_scan)
from .simulate import (KickOperator, Scenario, Section4Laws, SimulationError,
                       bad_cube_cloud, build_kick_operator, pair_check,
                       section4_attractor, smooth_forcing_laws, thm44_laws,
                       trajectory_pair_experiment)
from .config import (ConfigError, config_hash, dimension_from_config, drive_from_config,
                     load_config, parse_scales, resolve_config, scenario_from_config,
                     spectrum_from_config)
from .reports import fmt17, load_cloud_csv, unmet_expectation, write_csv, write_json

__version__ = "0.1.0"
