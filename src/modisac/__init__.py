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
