"""Quantum-battery charging simulations at desk scale.

Exact spectral propagation of battery/charger models (independent-cell
chargers, string-coupled integrable chains, collective-spin, and cavity
models), per-step observables including the Fisher information in the
battery-energy eigenspace, energy-entropy diagram capacities, and numerical
certification of the power and entanglement bounds.
"""

from .bounds import (
    BoundReport,
    entanglement_power_bound,
    fisher_power_bound,
    heisenberg_power_bound,
    moment_rate_bound,
    producibility_variance_cap,
    witness_entangled_block_size,
)
from .capacity import (
    DiagramPoint,
    capacity_at_entropy,
    energy_amplitude_check,
    gibbs,
    solve_beta_for_entropy,
    thermal_curve,
)
from .errors import CapacityLimitError, ConfigError, QBatteryError, ValidationError
from .freefermion import (
    ModeSet,
    PairDistribution,
    dispersion,
    fisher_energy_analytic,
    pair_distribution,
)
from .linalg import (
    Basis,
    DensityMatrix,
    HermitianOperator,
    LevelStructure,
    StateVector,
    eigendecompose,
    evolve,
    group_levels,
    partial_trace_cavity,
    von_neumann_entropy,
)
from .models import (
    ModelSpec,
    build_battery,
    build_charger_paradigmatic,
    build_dicke,
    build_jw_chain,
    build_lmg,
    chain_spec,
    ghz_state,
    initial_state,
    register_spectrum,
)
from .observables import (
    PopulationRecord,
    battery_entanglement_entropy,
    bures_angle,
    cos_theta_power,
    fisher_energy,
    fubini_study,
    kl_divergence,
    populations_and_rates,
    power,
    qfi,
    stored_energy,
    time_average,
    trajectory_length,
    variance,
    variance_decomposition,
)
from .sweeps import ScalingResult, fit_exponent, sweep_scaling
from .trajectory import Trajectory, find_tf, run_trajectory
from .verification import (
    certify_trajectory,
    chain_oracle_comparison,
    run_oracle_checks,
    verify_benchmark_table,
)

__version__ = "0.1.0"
