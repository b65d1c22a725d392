"""Benchmark manifolds with shipped closed-form data.

Three entries, selected by name through `benchmark_registry`:

* "S2"  - the round unit sphere. Two stereographic charts (north positively
  oriented; the antipodal chart is the plane inversion, orientation sign -1),
  the monopole line-bundle family, the spinor bundle with its Levi-Civita
  connection and tangent curvature with Gauss curvature 1.  Its three-chart
  frame cover, sampled along the equator for the lifting machinery, needs
  no atlas and is the module-level `sphere_frame_transitions`.
* "T2"  - the flat unit torus. One periodic chart, constant-curvature flux
  connections and zero tangent curvature; it ships no frame cover.
* "CP2" - the complex projective plane in exact cohomology-ring mode
  (one degree-2 generator x, relation x^3 = 0, x^2 integrating to 1).

Conventions shipped here: the monopole labeled m has curvature integrating to
2 pi i m, so the character normalization tr exp(F / 2 pi i) pairs to m; the
sphere's spin connection diagonalizes into the monopole connections labeled
-1 and +1, with constant extra transition factors diag(-i, +i).
"""

from math import comb

import numpy as np

from . import cech
from .clifford import CliffordModuleFiber
from .geometry import (Chart, ChartAtlas, FormField, ModuleConnection,
                       OverlapMap, tensor_connection)
from .gerbe import EdgeSampleGraph, TransitionData
from .symbolic import RingElement

# samples per overlap of the sphere's frame cover, taken evenly around the equator
FRAME_SAMPLES = 64


def _rotations(angles):
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], axis=-1),
                     np.stack([s, c], axis=-1)], axis=-2)


def _diag_phases(*entries):
    rank = len(entries)
    shape = np.broadcast(*entries).shape
    out = np.zeros(shape + (rank, rank), dtype=complex)
    for k, entry in enumerate(entries):
        out[..., k, k] = entry
    return out


def _sphere_atlas(order, panels, box):
    north = Chart("north", (-box, -box), (box, box), 1, order, panels)
    south = Chart("south", (-box, -box), (box, box), -1, order, panels)

    def invert(a, b):
        r2 = a * a + b * b
        return a / r2, b / r2

    def invert_jacobian(a, b):
        r2 = a * a + b * b
        r4 = r2 * r2
        row0 = np.stack([(b * b - a * a) / r4, -2.0 * a * b / r4], axis=-1)
        row1 = np.stack([-2.0 * a * b / r4, (a * a - b * b) / r4], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def mask(a, b):
        r2 = a * a + b * b
        # mapped point must land in the partner chart's coordinate box
        return (r2 > 1e-12) & (np.abs(a) < box * r2) & (np.abs(b) < box * r2)

    overlap = OverlapMap(invert, invert_jacobian, mask)
    return ChartAtlas("sphere", 2, [north, south],
                      {("north", "south"): overlap,
                       ("south", "north"): overlap})


def sphere_frame_transitions():
    """Frame-bundle samples of the sphere on the cover {north, equatorial
    band, south}.

    Vertices 0 = north, 1 = band, 2 = south. The north/south frame change
    along the equator is the rotation by pi - 2 theta (winding -2); both
    band transitions wind once, and the cocycle holds exactly sample by
    sample. Sample graphs are open chains, so no loop-closure holonomy is
    asserted on the odd-winding edges. No chart atlas is involved.
    """
    theta = 2.0 * np.pi * np.arange(FRAME_SAMPLES) / FRAME_SAMPLES
    nerve = cech.Nerve.from_simplices([(0, 1, 2)])
    edges = {
        (0, 1): EdgeSampleGraph(_rotations(np.pi / 2.0 - theta)),
        (1, 2): EdgeSampleGraph(_rotations(np.pi / 2.0 - theta)),
        (0, 2): EdgeSampleGraph(_rotations(np.pi - 2.0 * theta)),
    }
    step = FRAME_SAMPLES // 4
    triples = {(0, 1, 2): tuple((i, i, i) for i in range(0, FRAME_SAMPLES, step))}
    return TransitionData(nerve=nerve, dimension=2, edges=edges, triples=triples)


class SphereBenchmark:
    """Round unit 2-sphere: atlas, monopoles, and spin data."""

    name = "S2"
    dim = 2

    def __init__(self, order=32, panels=6, box=1.2):
        self.order = int(order)
        self.panels = int(panels)
        self.box = float(box)
        self.atlas = _sphere_atlas(self.order, self.panels, self.box)
        self._spin_conn = None
        self._monopole_conns = {}

    def tangent_curvature(self):
        """so(2)-valued curvature of the orthonormal frame, Gauss curvature 1."""
        comps = {}
        for cname, chart in self.atlas.charts.items():
            x, y = chart.coords()
            lam2 = (2.0 / (1.0 + x * x + y * y)) ** 2
            kappa = lam2 if cname == "north" else -lam2
            mat = np.zeros(chart.shape + (2, 2))
            mat[..., 0, 1] = kappa
            mat[..., 1, 0] = -kappa
            comps[cname] = {(0, 1): mat}
        return FormField(self.atlas, 2, comps, rank=2)

    def spin_connection(self):
        """Levi-Civita connection on the spinor bundle.

        The chirality blocks are the monopole connections labeled -1 and +1;
        the transition adds the constant factors diag(-i, +i), which drop out
        of the gluing identity.
        """
        if self._spin_conn is None:
            forms = {}
            x, y = self.atlas.charts["north"].coords()
            denom = 1.0 + x * x + y * y
            forms["north"] = [
                _diag_phases(1j * y / denom, -1j * y / denom),
                _diag_phases(-1j * x / denom, 1j * x / denom),
            ]
            u, v = self.atlas.charts["south"].coords()
            denom = 1.0 + u * u + v * v
            forms["south"] = [
                _diag_phases(-1j * v / denom, 1j * v / denom),
                _diag_phases(1j * u / denom, -1j * u / denom),
            ]

            def phi_ns(a, b):
                p = (a + 1j * b) / np.abs(a + 1j * b)
                return _diag_phases(-1j * p, 1j * p.conj())

            def phi_sn(a, b):
                p = (a + 1j * b) / np.abs(a + 1j * b)
                return _diag_phases(1j * p.conj(), -1j * p)

            self._spin_conn = ModuleConnection(
                self.atlas, 2, forms,
                {("north", "south"): phi_ns, ("south", "north"): phi_sn})
        return self._spin_conn

    def monopole_connection(self, m):
        """Monopole line bundle labeled by its character integral m."""
        m = int(m)
        if m not in self._monopole_conns:
            forms = {}
            x, y = self.atlas.charts["north"].coords()
            denom = 1.0 + x * x + y * y
            forms["north"] = [(-1j * m * y / denom)[..., None, None],
                              (1j * m * x / denom)[..., None, None]]
            u, v = self.atlas.charts["south"].coords()
            denom = 1.0 + u * u + v * v
            forms["south"] = [(1j * m * v / denom)[..., None, None],
                              (-1j * m * u / denom)[..., None, None]]

            def phi_ns(a, b):
                p = (a + 1j * b) / np.abs(a + 1j * b)
                return (p ** (-m))[..., None, None]

            def phi_sn(a, b):
                p = (a + 1j * b) / np.abs(a + 1j * b)
                return (p ** m)[..., None, None]

            self._monopole_conns[m] = ModuleConnection(
                self.atlas, 1, forms,
                {("north", "south"): phi_ns, ("south", "north"): phi_sn})
        return self._monopole_conns[m]

    def twisted_connection(self, m):
        """Spinor bundle twisted by the monopole labeled m."""
        return tensor_connection(self.spin_connection(),
                                 self.monopole_connection(m))

    def clifford_fiber(self, multiplicity=1):
        return CliffordModuleFiber.from_tensor(2, multiplicity)

    def perturbation_form(self, rank, seed):
        """Random globally defined anti-Hermitian diagonal 1-form.

        Built from the rotation-invariant 1-form (x dy - y dx)/(1+r^2)^2,
        whose coordinate expression is identical in both charts, multiplied
        by global scalar functions (the embedding coordinates) and constant
        imaginary diagonal matrices. Diagonal matrices commute with every
        shipped transition, so the form glues by conjugation.
        """
        rank = int(rank)
        rng = np.random.default_rng(seed)
        coeff = rng.uniform(-1.0, 1.0, size=(4, rank))
        comps = {}
        for cname, chart in self.atlas.charts.items():
            a, b = chart.coords()
            rho = a * a + b * b
            height = (1.0 - rho) / (1.0 + rho)
            if cname == "south":
                height = -height
            scalars = [np.ones_like(a), height,
                       2.0 * a / (1.0 + rho), 2.0 * b / (1.0 + rho)]
            denom = (1.0 + rho) ** 2
            base = [-b / denom, a / denom]
            entry = {(axis,): np.zeros(chart.shape + (rank, rank), dtype=complex)
                     for axis in range(2)}
            for k in range(rank):
                weight = sum(c[k] * s for c, s in zip(coeff, scalars))
                for axis in range(2):
                    entry[(axis,)][..., k, k] = 1j * weight * base[axis]
            comps[cname] = entry
        return FormField(self.atlas, 1, comps, rank=rank)


class TorusBenchmark:
    """Flat unit 2-torus: one periodic chart and constant-flux line bundles."""

    name = "T2"
    dim = 2

    def __init__(self, order=32, panels=6):
        self.order = int(order)
        self.panels = int(panels)
        chart = Chart("torus", (0.0, 0.0), (1.0, 1.0), 1, self.order, self.panels)
        self.atlas = ChartAtlas("torus", 2, [chart], {})

    def tangent_curvature(self):
        chart = self.atlas.charts["torus"]
        return FormField(self.atlas, 2,
                         {"torus": {(0, 1): np.zeros(chart.shape + (2, 2))}},
                         rank=2)

    def flux_connection(self, m):
        """Connection with constant curvature 2 pi i m dx dy."""
        m = int(m)
        chart = self.atlas.charts["torus"]
        x, _ = chart.coords()
        forms = {"torus": [np.zeros(chart.shape + (1, 1), dtype=complex),
                           (2j * np.pi * m * x)[..., None, None]]}
        return ModuleConnection(self.atlas, 1, forms, {})

    def clifford_fiber(self, multiplicity=1):
        return CliffordModuleFiber.from_tensor(2, multiplicity)


class ProjectivePlaneBenchmark:
    """Complex projective plane in exact cohomology-ring mode.

    The ring has one degree-2 generator x with x^3 = 0 and x^2 integrating
    to 1. The tangent data is the total Chern class (1+x)^3 of the Euler
    sequence; p1 is derived in-ring as c1^2 - 2 c2. Twist modules are shipped
    as exact Chern characters exp((k + c1/2) x) with c1 = 3x; the
    half-integral exponent is the weight-1 phenomenon, and pairings remain
    integers.
    """

    name = "CP2"
    dim = 4
    top = 2

    def generator(self):
        return RingElement.generator(self.top)

    def total_tangent_chern(self):
        one = RingElement.constant(self.top, 1)
        return (one + self.generator()) ** 3

    def p1_class(self):
        chern = self.total_tangent_chern()
        c1 = RingElement(self.top, {1: chern.coefficient(1)})
        c2 = RingElement(self.top, {2: chern.coefficient(2)})
        return c1 * c1 - 2 * c2

    def module_character(self, k):
        # the weight-1 shift is c1/2, read off the total Chern class
        half_c1 = self.total_tangent_chern().coefficient(1) / 2
        return (self.generator() * (int(k) + half_c1)).exp()

    def section_count(self, k):
        """Monomial count of degree k in three variables: independent oracle."""
        return comb(int(k) + 2, 2)


def perturbed_connection(conn, one_form):
    """Shift a connection by a matrix 1-form that glues by conjugation."""
    if one_form.degree != 1:
        raise ValueError("perturbation must be a 1-form")
    if one_form.rank != conn.rank:
        raise ValueError("perturbation rank must match the module rank")
    forms = {cname: [conn.forms[cname][axis] + one_form.comps[cname][(axis,)]
                     for axis in range(chart.dim)]
             for cname, chart in conn.atlas.charts.items()}
    return ModuleConnection(conn.atlas, conn.rank, forms,
                            conn.transitions, tol=conn.tol)


_BENCHMARKS = {
    "S2": SphereBenchmark,
    "T2": TorusBenchmark,
    "CP2": ProjectivePlaneBenchmark,
}


def benchmark_registry(name, **kwargs):
    """Construct the named benchmark manifold entry."""
    try:
        factory = _BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choose from {sorted(_BENCHMARKS)}"
        ) from None
    return factory(**kwargs)
