"""Elastic beam network solver.

The proximity graph becomes a frame of 2D Euler-Bernoulli beam elements with
three degrees of freedom per node (two translations and a rotation). Nodal
forces from the constraint model load the frame; solving the stiffness
system K d = f yields the energy-minimizing displacement field. Ground
springs on every DOF anchor each node to its current position, which both
keeps K positive definite and penalizes total movement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import HYPOT_RTOL
from .proximity import ProximityGraph
from .scene import BeamParams


class ZeroLengthEdgeError(ValueError):
    """Beam elements need a positive length."""


class SingularSystemError(RuntimeError):
    """The Cholesky factorization of the stiffness matrix failed.

    K is positive definite whenever the ground stiffness is, but in floating
    point a beam far stiffer than the ground springs can swamp them. The
    solve leaves out beams shorter than MIN_BEAM_LENGTH, which would.
    """


# Beams shorter than this (mm) join labels whose centers coincide, which
# the graph builders nudge nanometres apart: such a beam has no direction
# to hold, and a 12EI/L^3 near 1e27. Left out, the labels keep their other
# beams and ground springs, and their pair forces part them.
MIN_BEAM_LENGTH = 1e-3


@dataclass(frozen=True, slots=True, eq=False)
class DisplacementField:
    """The solve's result: the capped (n, 2) translations, the raw 3n
    solution vector (u, v, theta per node, uncapped) and how many nodes the
    cap shortened."""

    translations: np.ndarray
    solution: np.ndarray
    capped: int


def _local_stiffness_batch(length: np.ndarray, params: BeamParams) -> np.ndarray:
    """Local-frame 6x6 stiffness blocks for a batch of elements."""
    e = params.elastic_modulus
    a = params.cross_section
    i_m = params.moment_of_inertia
    ax = e * a / length
    b12 = 12.0 * e * i_m / length**3
    b6 = 6.0 * e * i_m / length**2
    b4 = 4.0 * e * i_m / length
    b2 = 2.0 * e * i_m / length
    m = length.shape[0]
    k = np.zeros((m, 6, 6))
    k[:, 0, 0] = ax
    k[:, 0, 3] = -ax
    k[:, 3, 0] = -ax
    k[:, 3, 3] = ax
    k[:, 1, 1] = b12
    k[:, 1, 4] = -b12
    k[:, 4, 1] = -b12
    k[:, 4, 4] = b12
    k[:, 1, 2] = b6
    k[:, 2, 1] = b6
    k[:, 1, 5] = b6
    k[:, 5, 1] = b6
    k[:, 2, 4] = -b6
    k[:, 4, 2] = -b6
    k[:, 4, 5] = -b6
    k[:, 5, 4] = -b6
    k[:, 2, 2] = b4
    k[:, 5, 5] = b4
    k[:, 2, 5] = b2
    k[:, 5, 2] = b2
    return k


def _global_stiffness_batch(
    x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray, params: BeamParams
) -> np.ndarray:
    dx = x2 - x1
    dy = y2 - y1
    length = np.hypot(dx, dy)
    if np.any(length <= 0.0):
        raise ZeroLengthEdgeError("beam element with zero length")
    c = dx / length
    s = dy / length
    k_local = _local_stiffness_batch(length, params)
    m = length.shape[0]
    t = np.zeros((m, 6, 6))
    for base in (0, 3):
        t[:, base + 0, base + 0] = c
        t[:, base + 0, base + 1] = s
        t[:, base + 1, base + 0] = -s
        t[:, base + 1, base + 1] = c
        t[:, base + 2, base + 2] = 1.0
    return np.transpose(t, (0, 2, 1)) @ k_local @ t


def _stiffness_matrix(graph: ProximityGraph, params: BeamParams) -> np.ndarray:
    """The 3n x 3n stiffness matrix: ground springs k_g on every DOF plus
    the element block of every edge of at least MIN_BEAM_LENGTH.

    One bincount sums all entries, the ground-spring diagonal listed first
    and then the element blocks edge by edge in row-major order, so each
    entry is summed in the same order as adding the blocks one by one onto
    the ground springs.
    """
    n = len(graph.positions)
    ndof = 3 * n
    diag = np.arange(ndof) * (ndof + 1)
    weights = np.full(ndof, params.ground_stiffness)
    x, y = graph.positions.T
    i_arr, j_arr = graph.edges.T
    kept = np.hypot(x[j_arr] - x[i_arr], y[j_arr] - y[i_arr]) >= MIN_BEAM_LENGTH
    i_arr, j_arr = i_arr[kept], j_arr[kept]
    if len(i_arr):
        blocks = _global_stiffness_batch(x[i_arr], y[i_arr], x[j_arr], y[j_arr], params)
        dofs = np.column_stack(
            (3 * i_arr, 3 * i_arr + 1, 3 * i_arr + 2, 3 * j_arr, 3 * j_arr + 1, 3 * j_arr + 2)
        )
        flat = dofs[:, :, None] * ndof + dofs[:, None, :]
        diag = np.concatenate((diag, flat.ravel()))
        weights = np.concatenate((weights, blocks.ravel()))
    return np.bincount(diag, weights, minlength=ndof * ndof).reshape(ndof, ndof)


def solve_displacements(
    graph: ProximityGraph, forces: np.ndarray, params: BeamParams
) -> DisplacementField:
    """Solve the loaded beam network for nodal displacements.

    forces is (n, 2), one row per graph node. Ground springs of stiffness
    k_g act on both translational DOFs and (with a 1 mm^2 lever factor) on
    rotations, so K is block diagonal across graph components and strictly
    positive definite; a single dense Cholesky factorization therefore
    solves every component independently. Isolated nodes reduce to
    d = f / k_g. Translations longer than max_step are scaled back onto the
    cap, preserving direction; rotations are in the solution but not capped
    since label rects stay axis aligned. A translation is measured by
    `math.hypot` wherever np.hypot puts it within HYPOT_RTOL of the cap or
    above it, so the capped floats are those of the scalar rule.
    """
    n = len(graph.positions)
    if len(forces) != n:
        raise ValueError(f"{len(forces)} forces for {n} graph nodes")
    if params.max_step is None:
        raise ValueError("BeamParams.max_step must be resolved before solving")
    k = _stiffness_matrix(graph, params)
    f = np.zeros((n, 3))
    f[:, 0:2] = forces
    try:
        factor = scipy.linalg.cho_factor(k, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    d = scipy.linalg.cho_solve(factor, f.ravel(), check_finite=False)

    translations = d.reshape(n, 3)[:, 0:2].copy()
    cap = params.max_step
    near = np.flatnonzero(
        np.hypot(translations[:, 0], translations[:, 1]) >= cap * (1.0 - HYPOT_RTOL)
    )
    norms = np.array([math.hypot(x, y) for x, y in translations[near].tolist()])
    over = norms > cap
    translations[near[over]] *= (cap / norms[over])[:, None]
    return DisplacementField(translations, d, int(np.count_nonzero(over)))
