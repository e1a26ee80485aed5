"""Elastic beam network solver.

The proximity graph becomes a frame of 2D Euler-Bernoulli beam elements with
three degrees of freedom per node (two translations and a rotation). Nodal
forces from the constraint model load the frame; solving the stiffness
system K d = f yields the energy-minimizing displacement field. Ground
springs on every DOF anchor each node to its current position, which both
keeps K positive definite and penalizes total movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .geometry import Vec2
from .proximity import ProximityGraph
from .scene import BeamParams


class ZeroLengthEdgeError(ValueError):
    """Beam elements need a positive length."""


class SingularSystemError(RuntimeError):
    """The assembled stiffness matrix was not positive definite.

    Cannot happen with a positive ground stiffness; raised defensively.
    """


@dataclass(frozen=True, slots=True)
class DisplacementField:
    """Per-node displacement: capped translations, rotations, and the raw
    uncapped translations for diagnostics."""

    translations: tuple[Vec2, ...]
    rotations: tuple[float, ...]
    raw_translations: tuple[Vec2, ...]


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


def element_stiffness(p1: Vec2, p2: Vec2, params: BeamParams) -> np.ndarray:
    """Global-frame 6x6 stiffness of one beam element between two nodes.

    DOF order is (u1, v1, theta1, u2, v2, theta2). The block is symmetric and
    positive semidefinite; rigid-body modes are its null space.
    """
    return _global_stiffness_batch(
        np.array([p1.x]), np.array([p1.y]), np.array([p2.x]), np.array([p2.y]), params
    )[0]


def solve_displacements(
    graph: ProximityGraph, forces: Sequence[Vec2], params: BeamParams
) -> DisplacementField:
    """Solve the loaded beam network for nodal displacements.

    Ground springs of stiffness k_g act on both translational DOFs and (with
    a 1 mm^2 lever factor) on rotations, so K is block diagonal across graph
    components and strictly positive definite; a single dense Cholesky
    factorization therefore solves every component independently. Isolated
    nodes reduce to d = f / k_g. Translations longer than max_step are scaled
    back onto the cap, preserving direction; rotations are reported but not
    capped since label rects stay axis aligned.
    """
    n = len(graph.positions)
    if len(forces) != n:
        raise ValueError(f"{len(forces)} forces for {n} graph nodes")
    if params.max_step is None:
        raise ValueError("BeamParams.max_step must be resolved before solving")
    k_g = params.ground_stiffness
    ndof = 3 * n
    k = np.zeros((ndof, ndof))
    idx = np.arange(n)
    k[3 * idx, 3 * idx] = k_g
    k[3 * idx + 1, 3 * idx + 1] = k_g
    k[3 * idx + 2, 3 * idx + 2] = k_g * 1.0

    if graph.edges:
        i_arr, j_arr = np.array(graph.edges).T
        x = np.array([p.x for p in graph.positions])
        y = np.array([p.y for p in graph.positions])
        blocks = _global_stiffness_batch(x[i_arr], y[i_arr], x[j_arr], y[j_arr], params)
        dofs = np.stack(
            [3 * i_arr, 3 * i_arr + 1, 3 * i_arr + 2, 3 * j_arr, 3 * j_arr + 1, 3 * j_arr + 2],
            axis=1,
        )
        np.add.at(k, (dofs[:, :, None], dofs[:, None, :]), blocks)

    f = np.zeros(ndof)
    f[3 * idx] = [v.x for v in forces]
    f[3 * idx + 1] = [v.y for v in forces]

    try:
        factor = scipy.linalg.cho_factor(k, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    d = scipy.linalg.cho_solve(factor, f, check_finite=False)

    raw = tuple(Vec2(float(d[3 * i]), float(d[3 * i + 1])) for i in range(n))
    rotations = tuple(float(d[3 * i + 2]) for i in range(n))
    capped = []
    cap = params.max_step
    for v in raw:
        norm = v.norm()
        capped.append(v if norm <= cap else v * (cap / norm))
    return DisplacementField(
        translations=tuple(capped), rotations=rotations, raw_translations=raw
    )
