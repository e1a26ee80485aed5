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
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import lapack

from .geometry import HYPOT_RTOL
from .proximity import ProximityGraph
from .scene import BeamParams


class ZeroLengthEdgeError(ValueError):
    """Beam elements need a positive length."""


class SingularSystemError(RuntimeError):
    """The in-place LAPACK factor of the column-major stiffness matrix
    failed, or its solution is not finite.

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
    solution vector (u, v, theta per node, uncapped) and the nodes the cap
    shortened, rising."""

    translations: np.ndarray
    solution: np.ndarray
    capped_nodes: np.ndarray


# Each 6x6 element block gathered through a constant pattern from a per-
# element coefficient table: the local block's table is (0, ax, b12, b6, b4,
# b2, -ax, -b12, -b6) and the rotation's (0, 1, c, s, -s).
_LOCAL_PATTERN = np.array([
    1, 0, 0, 6, 0, 0,
    0, 2, 3, 0, 7, 3,
    0, 3, 4, 0, 8, 5,
    6, 0, 0, 1, 0, 0,
    0, 7, 8, 0, 2, 8,
    0, 3, 5, 0, 8, 4,
])
_ROTATION_PATTERN = np.kron(np.eye(2, dtype=int), [[2, 3, 0], [4, 2, 0], [0, 0, 1]]).ravel()


def _table(columns: tuple) -> np.ndarray:
    """The columns, arrays of one length or scalars, written into one
    C-ordered (m, k) table: np.column_stack's layout at about half its cost
    on small batches."""
    table = np.empty((len(columns[-1]), len(columns)))
    for k, column in enumerate(columns):
        table[:, k] = column
    return table


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
    table = _table((0.0, ax, b12, b6, b4, b2, -ax, -b12, -b6))
    return table[:, _LOCAL_PATTERN].reshape(-1, 6, 6)


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
    table = _table((0.0, 1.0, c, s, -s))
    t = table[:, _ROTATION_PATTERN].reshape(-1, 6, 6)
    return np.transpose(t, (0, 2, 1)) @ k_local @ t


# The DOFs u, v, theta of a node, and of the two nodes of an edge.
_XYT = np.arange(3)
_EDGE_DOFS = np.tile(_XYT, 2)


class Frames(NamedTuple):
    """Networks of one graph's nodes solved apart, laid out by `frames_of`.

    Frame k holds the rising nodes rows[k] and has a K of sizes[k] square
    (three DOFs per node), numbered by the nodes' places in the frame and
    stored column-major in entries ends[k] - sizes[k]**2 to ends[k] of one
    flat array. For DOFs a and b of one frame (DOF c of node v is 3v + c),
    the entry of K in a's row and b's column lies at dof_col[b] +
    dof_row[a] of the flat array; diagonal lists the flat entries of every
    frame's diagonal.
    """

    rows: list[np.ndarray]
    sizes: list[int]
    ends: list[int]
    dof_row: np.ndarray
    dof_col: np.ndarray
    diagonal: np.ndarray


def frames_of(rows: Sequence[np.ndarray], n: int) -> Frames:
    """The layout of frames of the rising, disjoint nodes rows[k] of a
    graph of n nodes; nodes in no frame are not solved."""
    rows = [r for r in rows if len(r)]
    sizes = [3 * len(r) for r in rows]
    ends = np.cumsum([size * size for size in sizes], dtype=np.int64).tolist()
    # DOF c of a node at place p of frame k: row 3p + c and column
    # (3p + c) * sizes[k] of the frame's stretch, which begins at origin.
    origin, stride, place = (np.zeros(n, dtype=np.int64) for _ in range(3))
    for r, size, end in zip(rows, sizes, ends):
        origin[r], stride[r], place[r] = end - size * size, size, np.arange(0, size, 3)
    stride = np.repeat(stride, 3)
    dof_row = (place[:, None] + _XYT).ravel()
    dof_col = np.repeat(origin, 3) + dof_row * stride
    return Frames(rows, sizes, ends, dof_row, dof_col, (dof_col + dof_row)[stride > 0])


def _stiffness_matrices(
    frames: Frames, edges: np.ndarray, blocks: np.ndarray, params: BeamParams
) -> list[np.ndarray]:
    """The stiffness matrix of each of the frames: ground springs k_g on
    every DOF plus blocks[e], the 6x6 element block of edges[e], for each
    edge of the frame. Both nodes of every edge lie in one frame.

    One bincount sums the entries of all frames, the ground-spring
    diagonals listed first and then the element blocks edge by edge, so
    each entry is summed in the same order as adding its frame's blocks one
    by one onto the ground springs. Each frame's entries are placed at
    their column-major index in its own stretch of the output, and each
    matrix is an F-contiguous view that LAPACK factors in place.
    """
    index = frames.diagonal
    weights = np.full(len(index), params.ground_stiffness)
    if len(edges):
        # (u_i, v_i, theta_i, u_j, v_j, theta_j) of each edge.
        dofs = 3 * np.repeat(edges, 3, axis=1) + _EDGE_DOFS
        flat = frames.dof_col[dofs][:, None, :] + frames.dof_row[dofs][:, :, None]
        index = np.concatenate((index, flat.ravel()))
        weights = np.concatenate((weights, blocks.ravel()))
    out = np.bincount(index, weights, minlength=frames.ends[-1] if frames.ends else 0)
    return [
        out[end - size * size:end].reshape(size, size).T
        for end, size in zip(frames.ends, frames.sizes)
    ]


def solve_displacements(
    graph: ProximityGraph,
    forces: np.ndarray,
    params: BeamParams,
    frames: Frames | None = None,
) -> DisplacementField:
    """Solve the loaded beam network for nodal displacements.

    forces is (n, 2), one row per graph node. Ground springs of stiffness
    k_g act on both translational DOFs and (with a 1 mm^2 lever factor) on
    rotations, so K is block diagonal across graph components and strictly
    positive definite; one in-place LAPACK factor of a column-major K
    therefore solves every component independently. Isolated nodes reduce to
    d = f / k_g. Translations longer than max_step are scaled back onto the
    cap, preserving direction; rotations are in the solution but not capped
    since label rects stay axis aligned. A translation is measured by
    `math.hypot` wherever np.hypot puts it within HYPOT_RTOL of the cap or
    above it, so the capped floats are those of the scalar rule.

    frames (`frames_of`) splits the nodes into networks solved apart, and
    every edge joins two nodes of one frame; None is one frame of every
    node. The element blocks of all edges are computed at once, and each
    frame gets its own K over its own nodes, numbered by their place in
    the frame, and its own factor: the same floats as solving each frame's
    graph alone. Nodes in no frame get zero displacement.
    """
    n = len(graph.positions)
    if len(forces) != n:
        raise ValueError(f"{len(forces)} forces for {n} graph nodes")
    if params.max_step is None:
        raise ValueError("BeamParams.max_step must be resolved before solving")
    x, y = graph.positions.T
    i_arr, j_arr = graph.edges.T
    edges = graph.edges[np.hypot(x[j_arr] - x[i_arr], y[j_arr] - y[i_arr]) >= MIN_BEAM_LENGTH]
    i_arr, j_arr = edges.T
    blocks = _global_stiffness_batch(x[i_arr], y[i_arr], x[j_arr], y[j_arr], params)
    if frames is None:
        frames = frames_of([np.arange(n)], n)
    f = np.zeros((n, 3))
    f[:, 0:2] = forces
    d = np.zeros(3 * n)
    for rows, k_mat in zip(frames.rows, _stiffness_matrices(frames, edges, blocks, params)):
        c, info = lapack.dpotrf(k_mat, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise SingularSystemError(f"{info}-th leading minor of K is not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        solved, _ = lapack.dpotrs(c, f[rows].ravel(), lower=1)
        if not np.isfinite(solved).all():
            raise SingularSystemError("the solution of K d = f is not finite")
        d.reshape(n, 3)[rows] = solved.reshape(-1, 3)

    translations = d.reshape(n, 3)[:, 0:2].copy()
    cap = params.max_step
    near = np.flatnonzero(
        np.hypot(translations[:, 0], translations[:, 1]) >= cap * (1.0 - HYPOT_RTOL)
    )
    norms = np.array([math.hypot(x, y) for x, y in translations[near].tolist()])
    over = norms > cap
    translations[near[over]] *= (cap / norms[over])[:, None]
    return DisplacementField(translations, d, near[over])
