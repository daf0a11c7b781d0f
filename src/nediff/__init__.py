"""nediff: diffraction of slow electron wavepackets by optical near fields.

Two engines share one data model: a closed-form phase-mask engine resolving
the interaction into photon orders, and a split-step solver of the 2D
time-dependent Schrodinger equation used as ground truth.
"""

from .analysis import (Crosscut, DensityMap, SidebandTable, crosscut,
                       deflection_angle, energy_axis, energy_bandwidth_fwhm,
                       max_deflection, momentum_density, peak_spacing, rel_l2,
                       sideband_populations, transverse_splitting)
from .analytic import (OrderDecomposition, PhaseMask, apply_interaction,
                       build_phase_mask, order_amplitudes_exact,
                       order_series_taylor, vacuum_propagate, weak_field_order)
from .config import (PRESET_NAMES, ElectronSpec, NumericSpec, ScenarioConfig,
                     SweepSpec, build_preset, parse_config, parse_sweep_config,
                     serialize_config)
from .core import (Grid2D, MomentumSpectrum, Wavepacket, check_coverage,
                   from_momentum, gaussian_wavepacket, temporal_spread,
                   to_momentum)
from .errors import (AnalysisError, ConfigurationError, DomainError,
                     NediffError, NumericalError, StateError,
                     UnsupportedPathError)
from .gridio import read_grid, write_grid
from .nearfield import (CouplingProfile, GapResonatorModel, LaserParams,
                        UniformStripeModel, WireModel, calibrate_gap_amplitude,
                        coupling_integrals, coupling_profile,
                        profile_transform, retardation_phase)
from .numeric import (EvolutionParams, EvolutionTrace, choose_steps,
                      split_step_evolve)
from .scenario import SweepResult, run_scenario, run_sweep
from .units import electron_kinematics

__version__ = "0.1.0"
