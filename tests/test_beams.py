import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from leaderlabels import beams
from leaderlabels.beams import ZeroLengthEdgeError, solve_displacements
from leaderlabels.geometry import Vec2, points_array
from leaderlabels.proximity import ProximityGraph, delaunay_graph, mst_graph, prune_graph
from leaderlabels.scene import BeamParams, initial_layout

from conftest import (
    column_stack_element_blocks,
    element_stiffness,
    label_layout,
    random_labels,
    reference_element_blocks,
    reference_solve,
)
from test_golden import _duplicated_scene


def params(**kw) -> BeamParams:
    kw.setdefault("elastic_modulus", 1.0)
    kw.setdefault("cross_section", 1.0)
    kw.setdefault("moment_of_inertia", 1.0)
    kw.setdefault("ground_stiffness", 1.0)
    kw.setdefault("max_step", 1000.0)
    return BeamParams(**kw)


def graph_of(positions: list[Vec2], pairs: list[tuple[int, int]]) -> ProximityGraph:
    return ProximityGraph(
        positions=points_array(positions), edges=np.array(pairs, dtype=np.int64).reshape(-1, 2)
    )


def assemble_global(graph: ProximityGraph, p: BeamParams) -> np.ndarray:
    n = len(graph.positions)
    k = np.zeros((3 * n, 3 * n))
    for i in range(n):
        k[3 * i, 3 * i] += p.ground_stiffness
        k[3 * i + 1, 3 * i + 1] += p.ground_stiffness
        k[3 * i + 2, 3 * i + 2] += p.ground_stiffness
    positions = [Vec2(x, y) for x, y in graph.positions.tolist()]
    for i, j in graph.edges.tolist():
        block = element_stiffness(positions[i], positions[j], p)
        dofs = [3 * i, 3 * i + 1, 3 * i + 2, 3 * j, 3 * j + 1, 3 * j + 2]
        for a in range(6):
            for b in range(6):
                k[dofs[a], dofs[b]] += block[a, b]
    return k


def solve(graph: ProximityGraph, forces: list[Vec2], p: BeamParams) -> beams.DisplacementField:
    return solve_displacements(graph, points_array(forces), p)


def raw_translations(field: beams.DisplacementField) -> list[Vec2]:
    """The uncapped translations, one Vec2 per node, from the solution."""
    return [Vec2(u, v) for u, v, _ in field.solution.reshape(-1, 3).tolist()]


def load_vector(forces: list[Vec2]) -> np.ndarray:
    f = np.zeros(3 * len(forces))
    for i, v in enumerate(forces):
        f[3 * i] = v.x
        f[3 * i + 1] = v.y
    return f


class TestElementStiffness:
    def test_canonical_horizontal_unit_element(self):
        k = element_stiffness(Vec2(0, 0), Vec2(1, 0), params())
        assert k[0, 0] == pytest.approx(1.0)  # EA/L
        assert k[1, 1] == pytest.approx(12.0)  # 12EI/L^3
        assert k[2, 2] == pytest.approx(4.0)  # 4EI/L
        assert k[2, 5] == pytest.approx(2.0)  # 2EI/L
        assert k[0, 3] == pytest.approx(-1.0)

    def test_symmetric_and_psd(self, rng):
        for _ in range(50):
            p1 = Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20))
            p2 = Vec2(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if (p2 - p1).norm() < 1e-6:
                continue
            k = element_stiffness(p1, p2, params())
            assert np.allclose(k, k.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(k)
            assert eigs.min() >= -1e-10

    def test_rotation_conjugation(self, rng):
        # Rotating the edge conjugates the stiffness by the block rotation.
        for _ in range(20):
            length = rng.uniform(0.5, 30.0)
            alpha = rng.uniform(0, 2 * math.pi)
            k0 = element_stiffness(Vec2(0, 0), Vec2(length, 0), params())
            k1 = element_stiffness(
                Vec2(0, 0), Vec2(length * math.cos(alpha), length * math.sin(alpha)), params()
            )
            c, s = math.cos(alpha), math.sin(alpha)
            r = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]])
            t = np.zeros((6, 6))
            t[:3, :3] = r
            t[3:, 3:] = r
            assert np.allclose(t.T @ k0 @ t, k1, atol=1e-9)

    def test_zero_length_rejected(self):
        with pytest.raises(ZeroLengthEdgeError):
            element_stiffness(Vec2(1, 1), Vec2(1, 1), params())
        with pytest.raises(ZeroLengthEdgeError):
            beams._global_stiffness_batch(*np.ones((4, 1)), params())


class TestSolve:
    def test_isolated_node_spring_equation(self):
        g = graph_of([Vec2(0, 0)], [])
        field = solve(g, [Vec2(3.0, 0.0)], params(ground_stiffness=1.0))
        assert raw_translations(field)[0].x == pytest.approx(3.0, abs=1e-12)
        assert raw_translations(field)[0].y == pytest.approx(0.0, abs=1e-12)

    def test_two_node_axial_equilibrium(self):
        # Symmetric pull-apart: u = F / (k_g + 2 EA / L), exact.
        g = graph_of([Vec2(0, 0), Vec2(1, 0)], [(0, 1)])
        p = params(ground_stiffness=1.0)
        field = solve(g, [Vec2(-1.0, 0.0), Vec2(1.0, 0.0)], p)
        u = 1.0 / (1.0 + 2.0 * 1.0 / 1.0)
        assert raw_translations(field)[0].x == pytest.approx(-u, abs=1e-12)
        assert raw_translations(field)[1].x == pytest.approx(u, abs=1e-12)

    def test_beams_shorter_than_the_minimum_are_left_out(self):
        # Nodes 1 and 2 stand where the graph builders put labels with the
        # same center, 2e-9 mm apart: their beam would swamp K. The solve
        # equals the one without that beam, to the bit.
        nodes = [Vec2(0.0, 0.0), Vec2(5.0, 1.0), Vec2(5.0 + 2e-9, 1.0 + 2e-9)]
        forces = [Vec2(0.5, 0.0), Vec2(-0.5, 0.25), Vec2(0.0, -0.25)]
        p = params(moment_of_inertia=100.0, cross_section=5.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(assemble_global(graph_of(nodes, [(0, 1), (0, 2), (1, 2)]), p))
        got = solve(graph_of(nodes, [(0, 1), (0, 2), (1, 2)]), forces, p)
        want = solve(graph_of(nodes, [(0, 1), (0, 2)]), forces, p)
        assert np.array_equal(got.solution, want.solution)

    def test_zero_forces_zero_displacements(self, rng):
        labels = random_labels(rng, 10)
        g = delaunay_graph(*label_layout(labels))
        field = solve(g, [Vec2(0.0, 0.0)] * 10, params())
        assert all(v == Vec2(0.0, 0.0) for v in raw_translations(field))
        assert all(r == 0.0 for r in field.solution[2::3])

    def _random_system(self, rng, n):
        labels = random_labels(rng, n, span=150.0)
        rects, live = label_layout(labels)
        g = prune_graph(delaunay_graph(rects, live), rects, live, t_d=60.0)
        forces = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        return g, forces

    def test_residual_small(self, rng):
        for _ in range(20):
            n = rng.randint(5, 40)
            g, forces = self._random_system(rng, n)
            p = params(ground_stiffness=0.5)
            field = solve(g, forces, p)
            k = assemble_global(g, p)
            d = field.solution
            f = load_vector(forces)
            residual = np.linalg.norm(k @ d - f)
            assert residual <= 1e-9 * max(np.linalg.norm(f), 1e-30)

    def test_energy_minimal_vs_perturbations(self, rng):
        n = 15
        g, forces = self._random_system(rng, n)
        p = params()
        field = solve(g, forces, p)
        k = assemble_global(g, p)
        d = field.solution
        f = load_vector(forces)

        def energy(vec):
            return 0.5 * vec @ k @ vec - f @ vec

        e0 = energy(d)
        for _ in range(50):
            delta = np.array([rng.gauss(0, 0.1) for _ in range(3 * n)])
            assert energy(d + delta) >= e0 - 1e-12

    def test_linearity_and_superposition(self, rng):
        n = 12
        g, f1 = self._random_system(rng, n)
        f2 = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        p = params()
        d1 = raw_translations(solve(g, f1, p))
        d2 = raw_translations(solve(g, f2, p))
        lam = 3.7
        d1s = raw_translations(solve(g, [v * lam for v in f1], p))
        dsum = raw_translations(solve(g, [a + b for a, b in zip(f1, f2)], p))
        for i in range(n):
            assert d1s[i].x == pytest.approx(lam * d1[i].x, rel=1e-9, abs=1e-12)
            assert d1s[i].y == pytest.approx(lam * d1[i].y, rel=1e-9, abs=1e-12)
            assert dsum[i].x == pytest.approx(d1[i].x + d2[i].x, rel=1e-9, abs=1e-12)
            assert dsum[i].y == pytest.approx(d1[i].y + d2[i].y, rel=1e-9, abs=1e-12)

    def test_ground_spring_bounds_graph_free(self, rng):
        n = 8
        positions = [Vec2(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)]
        g = graph_of(positions, [])
        forces = [Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
        k_g = 0.8
        field = solve(g, forces, params(ground_stiffness=k_g))
        for f, d in zip(forces, raw_translations(field)):
            assert abs(d.x) <= abs(f.x) / k_g + 1e-12
            assert abs(d.y) <= abs(f.y) / k_g + 1e-12

    def test_elastic_energy_decreases_with_stiffer_ground(self, rng):
        n = 10
        g, forces = self._random_system(rng, n)
        energies = []
        for k_g in (0.3, 1.5):
            p = params(ground_stiffness=k_g)
            field = solve(g, forces, p)
            k = assemble_global(g, p)
            d = field.solution
            energies.append(0.5 * d @ k @ d)
        assert energies[1] < energies[0]

    def test_translation_cap(self):
        g = graph_of([Vec2(0, 0)], [])
        field = solve(g, [Vec2(30.0, 40.0)], params(ground_stiffness=1.0, max_step=5.0))
        assert raw_translations(field)[0].norm() == pytest.approx(50.0)
        assert math.hypot(*field.translations[0]) == pytest.approx(5.0)
        # Direction preserved.
        assert field.translations[0, 0] == pytest.approx(3.0)
        assert field.translations[0, 1] == pytest.approx(4.0)
        assert len(field.capped_nodes) == 1

    def test_max_step_required(self):
        g = graph_of([Vec2(0, 0)], [])
        with pytest.raises(ValueError):
            solve(g, [Vec2(1, 0)], BeamParams(max_step=None))

    def test_force_count_mismatch(self):
        g = graph_of([Vec2(0, 0)], [])
        with pytest.raises(ValueError):
            solve(g, [Vec2(1, 0), Vec2(0, 0)], params())


# --- the array solve against the one-Vec2-per-node reference ------------------

_half_grid = st.integers(-80, 80).map(lambda k: k / 2.0)
_stiffness = st.floats(0.1, 10.0)


@st.composite
def beam_systems(draw):
    """A graph on distinct half-unit grid points, some nodes isolated, with
    drawn forces and beam parameters (max_step unset)."""
    n = draw(st.integers(1, 10))
    positions = draw(
        st.lists(st.tuples(_half_grid, _half_grid), min_size=n, max_size=n, unique=True)
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=2 * n))) if pairs else []
    force = st.floats(-5.0, 5.0)
    forces = draw(st.lists(st.tuples(force, force), min_size=n, max_size=n))
    p = BeamParams(
        elastic_modulus=draw(_stiffness),
        cross_section=draw(_stiffness),
        moment_of_inertia=draw(_stiffness),
        ground_stiffness=draw(st.sampled_from([1.0, 0.5]) | _stiffness),
    )
    return [Vec2(*q) for q in positions], edges, [Vec2(*f) for f in forces], p


class TestArraySolve:
    @settings(max_examples=300, deadline=None)
    @given(system=beam_systems(), data=st.data())
    # np.hypot of (x, y) is one ulp below math.hypot: at a cap equal to the
    # np.hypot value the scalar rule caps the row.
    @example(
        system=(
            [Vec2(0.0, 0.0)], [], [Vec2(0.03546964032188504, 0.060851756668864554)],
            BeamParams(ground_stiffness=1.0),
        ),
        data=None,
    )
    def test_equals_reference_bit_for_bit(self, system, data):
        positions, edges, forces, p = system
        graph = graph_of(positions, edges)
        if data is None:
            (x, y), = [(f.x, f.y) for f in forces]
            caps = [float(np.hypot(x, y))]
            assert caps[0] < math.hypot(x, y)
        else:
            uncapped = reference_solve(
                positions, edges, forces, dataclasses.replace(p, max_step=math.inf)
            )
            norms = [v.norm() for v in uncapped if v.norm() > 0.0]
            # Exactly a translation's norm, or a hair either side of it.
            caps = [data.draw(st.floats(1e-3, 10.0))]
            if norms:
                norm = data.draw(st.sampled_from(norms))
                # A cap must be positive: below the least subnormal norm,
                # the hair under it is 0.0.
                hairs = [norm, np.nextafter(norm, 0.0), np.nextafter(norm, math.inf)]
                caps += [c for c in hairs if c > 0.0]
        for cap in caps:
            q = dataclasses.replace(p, max_step=float(cap))
            want = reference_solve(positions, edges, forces, q)
            field = solve(graph, forces, q)
            assert field.translations.tobytes() == points_array(want).tobytes()
            assert len(field.capped_nodes) == sum(v.norm() > cap for v in raw_translations(field))

    @settings(max_examples=200, deadline=None)
    @given(system=beam_systems(), cap=st.floats(1e-3, 10.0))
    def test_zero_forces_give_positive_zero_translations(self, system, cap):
        # The optimizer skips the solve on a force-free step on this fact.
        positions, edges, _, p = system
        n = len(positions)
        q = dataclasses.replace(p, max_step=cap)
        field = solve_displacements(graph_of(positions, edges), np.zeros((n, 2)), q)
        assert field.translations.tobytes() == np.zeros((n, 2)).tobytes()
        assert len(field.capped_nodes) == 0

    def test_coincident_beam_raises_singular_system_error(self, monkeypatch):
        # Without the MIN_BEAM_LENGTH guard, the nanometre beams between
        # twin labels swamp the ground springs and the factor fails.
        features, cfg = _duplicated_scene()
        graph = mst_graph(*label_layout(initial_layout(features, cfg)), weight="center")
        monkeypatch.setattr(beams, "MIN_BEAM_LENGTH", 0.0)
        forces = np.ones((len(graph.positions), 2))
        with pytest.raises(beams.SingularSystemError, match="leading minor"):
            solve_displacements(graph, forces, cfg.resolved_beam())


class TestFramedSolve:
    """One solve over several frames gives each frame what solving its own
    graph alone gives, to the bit; a node in no frame stays put."""

    @settings(max_examples=150, deadline=None)
    @given(
        systems=st.lists(beam_systems(), min_size=1, max_size=4),
        cap=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_frame_equals_its_own_solve(self, systems, cap, seed):
        q = dataclasses.replace(systems[0][3], max_step=cap)
        sizes = [len(positions) for positions, *_ in systems]
        n = sum(sizes) + 1
        perm = np.random.default_rng(seed).permutation(n)
        frames = [np.sort(perm[a - s:a]) for a, s in zip(np.cumsum(sizes), sizes)]
        positions, forces = np.zeros((n, 2)), np.ones((n, 2))
        edges = []
        for (pos, pairs, f, _), rows in zip(systems, frames):
            positions[rows], forces[rows] = points_array(pos), points_array(f)
            edges += [(rows[i], rows[j]) for i, j in pairs]
        graph = ProximityGraph(positions, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
        got = solve_displacements(graph, forces, q, beams.frames_of(frames, n))
        for (pos, pairs, f, _), rows in zip(systems, frames):
            want = solve_displacements(graph_of(pos, pairs), points_array(f), q)
            assert got.translations[rows].tobytes() == want.translations.tobytes()
            assert got.solution.reshape(n, 3)[rows].tobytes() == want.solution.tobytes()
            capped = np.flatnonzero(np.isin(rows, got.capped_nodes))
            assert np.array_equal(capped, want.capped_nodes)
        idle = perm[-1]
        assert got.solution.reshape(n, 3)[idle].tolist() == [0.0, 0.0, 0.0]
        assert idle not in got.capped_nodes


class TestStiffnessAssembly:
    @settings(max_examples=200, deadline=None)
    @given(system=beam_systems())
    def test_bincount_equals_oracle_assembly(self, system):
        positions, edges, _, p = system
        graph = graph_of(positions, edges)
        e = graph.edges
        x, y = graph.positions.T
        blocks = beams._global_stiffness_batch(x[e[:, 0]], y[e[:, 0]], x[e[:, 1]], y[e[:, 1]], p)
        frames = beams.frames_of([np.arange(len(positions))], len(positions))
        (k,) = beams._stiffness_matrices(frames, e, blocks, p)
        assert k.flags.f_contiguous
        assert k.tobytes() == assemble_global(graph, p).tobytes()


_length = (
    st.floats(beams.MIN_BEAM_LENGTH, 2 * beams.MIN_BEAM_LENGTH)
    | st.floats(1e-3, 1e3)
    | st.floats(1e3, 1e7)
)
# The four axis directions exactly, then any angle.
_direction = st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]) | st.floats(
    -math.pi, math.pi
).map(lambda a: (math.cos(a), math.sin(a)))


class TestElementBlocks:
    @settings(max_examples=300, deadline=None)
    @given(
        elements=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), _length, _direction),
            min_size=1,
            max_size=8,
        ),
        p=st.builds(params, elastic_modulus=_stiffness, cross_section=_stiffness,
                    moment_of_inertia=_stiffness),
    )
    def test_pattern_blocks_equal_the_reference(self, elements, p):
        x1, y1, length, direction = (np.array(v) for v in zip(*elements))
        x2 = x1 + length * direction[:, 0]
        y2 = y1 + length * direction[:, 1]
        assume(np.all(np.hypot(x2 - x1, y2 - y1) > 0.0))
        got = beams._global_stiffness_batch(x1, y1, x2, y2, p)
        assert got.tobytes() == reference_element_blocks(x1, y1, x2, y2, p).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        elements=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), _length, _direction),
            min_size=0,
            max_size=40,
        ),
        p=st.builds(params, elastic_modulus=_stiffness, cross_section=_stiffness,
                    moment_of_inertia=_stiffness),
    )
    @example(elements=[], p=params())
    @example(elements=[(0.0, 0.0, 1.0, (1.0, 0.0))], p=params())
    def test_tables_equal_the_column_stack_layout(self, elements, p):
        x1, y1, length = (np.array([e[k] for e in elements], dtype=float) for k in range(3))
        direction = np.array([e[3] for e in elements], dtype=float).reshape(-1, 2)
        x2 = x1 + length * direction[:, 0]
        y2 = y1 + length * direction[:, 1]
        assume(np.all(np.hypot(x2 - x1, y2 - y1) > 0.0))
        got = beams._global_stiffness_batch(x1, y1, x2, y2, p)
        want = column_stack_element_blocks(x1, y1, x2, y2, p)
        assert got.shape == want.shape == (len(elements), 6, 6)
        assert got.tobytes() == want.tobytes()
