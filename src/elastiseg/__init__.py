"""Variational image segmentation with elastica (curvature + length) regularization.

The package provides discrete curvature estimators, an elastica-plus-region
segmentation energy on soft masks with hand-derived analytic gradients, a
direct gradient-descent segmentation solver, Dice/HD95 evaluation metrics,
deterministic synthetic benchmarks, and bit-exact file formats, all tied
together by the ``elastiseg`` command-line tool.
"""

from .curvature import (
    CurvatureMode,
    curvature,
    fast_curvature_3d,
    laplacian_3d,
    mean_curvature_2d,
    mean_curvature_3d,
)
from .diffops import deriv1, deriv2, deriv_mixed, grad_mag, tv_length
from .energy import (
    DegenerateMaskError,
    EnergyBreakdown,
    EnergyParams,
    elastica_term,
    estimate_region_means,
    region_terms,
    segmentation_energy,
)
from .field import FieldError, ScalarField, clamp01, is_binary, make_field
from .gradients import GradCheckReport, energy_gradient, fd_gradient, gradcheck
from .metrics import MetricsError, MetricsReport, count_components, dice, evaluate_pair, hd95
from .solver import NonFiniteEnergyError, SolverConfig, SolverTrace, segment, threshold
from .synth import SynthCase, broken_tube_case, disk_case, hemisphere_field, sphere_case_3d
from .volio import VolumeFormatError, read_pgm, read_volume, write_pgm, write_volume

__version__ = "0.1.0"

__all__ = [
    "CurvatureMode",
    "DegenerateMaskError",
    "EnergyBreakdown",
    "EnergyParams",
    "FieldError",
    "GradCheckReport",
    "MetricsError",
    "MetricsReport",
    "NonFiniteEnergyError",
    "ScalarField",
    "SolverConfig",
    "SolverTrace",
    "SynthCase",
    "VolumeFormatError",
    "broken_tube_case",
    "clamp01",
    "count_components",
    "curvature",
    "deriv1",
    "deriv2",
    "deriv_mixed",
    "dice",
    "disk_case",
    "elastica_term",
    "energy_gradient",
    "estimate_region_means",
    "evaluate_pair",
    "fast_curvature_3d",
    "fd_gradient",
    "grad_mag",
    "gradcheck",
    "hd95",
    "hemisphere_field",
    "is_binary",
    "laplacian_3d",
    "make_field",
    "mean_curvature_2d",
    "mean_curvature_3d",
    "read_pgm",
    "read_volume",
    "region_terms",
    "segment",
    "segmentation_energy",
    "sphere_case_3d",
    "threshold",
    "tv_length",
    "write_pgm",
    "write_volume",
]
