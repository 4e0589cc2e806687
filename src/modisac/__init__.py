"""Hybrid beamforming and sensing toolkit for modular widely-spaced arrays.

Submodules
----------
geometry      array placement, steering vectors, per-subarray ranges and angles
channel       piecewise-far-field channel H (an array) and the per-object
              sensing responses (a tuple)
beamform      metrics, MVDR filter, hybrid checks, the joint subspace U_tilde
              (an array, also the analog beamformer)
opt_manifold  barrier + Riemannian Newton (RM-JGD) digital beamformer
opt_sdr       digital problem, det-max SDP relaxation, Gaussian randomization
music         near-field MUSIC localization on a Cartesian grid
harness       configs, scenarios with their one problem, runs, sweeps
validation    cross-module invariant checks behind `modisac validate`
"""

from .geometry import (
    ArrayGeometry,
    ConfigurationError,
    DegenerateGeometryError,
    PolarPoint,
    ScenarioConfig,
    SceneObject,
    build_geometry,
    rayleigh_distance,
    steering_vector,
    subarray_view,
)
from .channel import (
    ObjectResponse,
    PathSpec,
    build_comm_channel,
    build_responses,
    draw_paths,
    numerical_rank,
    rank_bounds,
    sensing_response,
    simulate_echoes,
)
from .beamform import (
    build_subspace,
    check_hybrid,
    mvdr_receive,
    optimal_analog,
    phi_matrices,
    scnr,
    spectral_efficiency,
    transmit_power,
    verify_covariance_subspace,
)
from .opt_manifold import (
    EigB,
    ManifoldState,
    phase1_feasible,
    reduce_b,
    rm_jgd,
    stiefel_retract,
    tangent_project,
)
from .opt_sdr import (
    MaxDetProblem,
    SdpSolution,
    randomize_rank,
    sdr_rrs,
    solve_maxdet,
)
from .music import GridSpec, MusicResult, music_spectrum, noise_subspace, sample_covariance
from .harness import ExperimentSpec, ResultRow, load_config, run_scenario, sweep
from .validation import validate

__version__ = "0.1.0"
