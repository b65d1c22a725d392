"""Chart atlases with composite Gauss-Legendre quadrature and bump partitions
of unity, matrix-valued differential forms on grids, and rank-r connections.

Conventions:
  - Each chart is a coordinate box with an orientation sign; its quadrature
    grid is a product Gauss-Legendre rule of the configured order on each of
    `panels` equal subdivisions per axis (composite rule).
  - The partition of unity is built from the bump exp(1 - 1/(1 - t^2))
    applied per axis with t the box-centered normalized coordinate, multiplied
    over axes, then normalized pointwise across charts; the atlas works with
    its log, log_bump, so the normalization survives where the bump
    underflows.
  - Grid differentiation is barycentric-Lagrange spectral differentiation per
    panel (exact on each panel's polynomial space, one-sided at panel edges).
  - Each overlap (a, b) is sampled once per atlas, up to the cap
    MAX_OVERLAP_SAMPLES, and every descent check (form pullback, connection
    gluing, curvature and difference conjugation) shares that sample. Each
    transition is evaluated once per sample: its values and derivatives at
    the sampled nodes are cached on the sample while the callable lives.
  - Real matrices (differentiation, interpolation bases) apply to complex
    grid data as one real product over the (re, im) float view.
  - Form components are stored as true chart-coordinate coefficients on
    strictly increasing index tuples; orientation signs enter only in
    integrate_top.
  - Connection 1-forms A are anti-Hermitian; gluing across charts follows
    A_a = phi A_b phi^-1 - (d phi) phi^-1 and curvature is F = dA + A ^ A.
"""
import weakref
from itertools import combinations

import numpy as np

__all__ = [
    "composite_gauss_legendre",
    "Chart",
    "OverlapMap",
    "ChartAtlas",
    "FormField",
    "ModuleConnection",
    "curvature",
    "connection_difference",
    "tensor_connection",
    "integrate_top",
]

# An overlap sample keeps every k-th overlap node, k = nodes // this cap (>= 1).
MAX_OVERLAP_SAMPLES = 2000


def log_bump(t):
    """log of the bump exp(1 - 1/(1-t^2)): 1 - 1/(1-t^2) inside the support,
    -inf outside.

    Working in logs keeps the pointwise-normalized partition of unity exact
    even where the bump itself underflows near box edges.
    """
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, -np.inf)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = 1.0 - 1.0 / (1.0 - ti * ti)
    return out


def _barycentric_weights(nodes):
    n = len(nodes)
    weights = np.empty(n)
    for i in range(n):
        weights[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    return weights / np.max(np.abs(weights))


def _diff_matrix(nodes, bary):
    n = len(nodes)
    diff = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                diff[i, j] = (bary[j] / bary[i]) / (nodes[i] - nodes[j])
    np.fill_diagonal(diff, -np.sum(diff, axis=1))
    return diff


def composite_gauss_legendre(lo, hi, order, panels):
    """Nodes and weights of the order-`order` GL rule on `panels` equal panels."""
    if order < 1 or panels < 1:
        raise ValueError("order and panels must be positive")
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * ref_nodes[None, :]).ravel()
    weights = np.tile(half * ref_weights, panels)
    return nodes, weights


class GridAxis:
    """One chart axis: composite GL nodes, weights, and spectral differentiation."""

    def __init__(self, lo, hi, order, panels):
        if not hi > lo:
            raise ValueError("axis requires hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.order = int(order)
        self.panels = int(panels)
        self.center = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)
        self.nodes, self.weights = composite_gauss_legendre(
            self.lo, self.hi, self.order, self.panels)
        self.panel_edges = np.linspace(self.lo, self.hi, self.panels + 1)
        ref_nodes, _ = np.polynomial.legendre.leggauss(self.order)
        self.bary = _barycentric_weights(ref_nodes)
        panel_half = 0.5 * (self.panel_edges[1] - self.panel_edges[0])
        self.diff = _diff_matrix(ref_nodes, self.bary) / panel_half

    def locate(self, x):
        """Panel of each coordinate and its barycentric basis on that panel."""
        panel = np.clip(np.searchsorted(self.panel_edges, x, side="right") - 1,
                        0, self.panels - 1)
        local = self.nodes[panel[:, None] * self.order + np.arange(self.order)]
        diff = x[:, None] - local
        hit = np.abs(diff) < 1e-14
        terms = np.where(hit, 0.0, self.bary / np.where(hit, 1.0, diff))
        rows = hit.any(axis=1)
        terms[rows] = hit[rows]
        return panel, terms / np.sum(terms, axis=1, keepdims=True)


class Chart:
    """Coordinate box with an orientation sign and a composite GL grid."""

    def __init__(self, name, lo, hi, orientation, order=32, panels=6):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be equal-length nonempty tuples")
        self.name = str(name)
        self.lo = lo
        self.hi = hi
        self.orientation = int(orientation)
        self.order = int(order)
        self.panels = int(panels)
        self.dim = len(lo)
        self.axes = [GridAxis(a, b, order, panels) for a, b in zip(lo, hi)]
        self.shape = tuple(len(ax.nodes) for ax in self.axes)
        self._coords = None
        self._weights = None

    def coords(self):
        """Meshgrid coordinate arrays (ij indexing), one per axis."""
        if self._coords is None:
            self._coords = np.meshgrid(*(ax.nodes for ax in self.axes),
                                       indexing="ij")
        return self._coords

    def node_weights(self):
        """Product quadrature weight at every grid node."""
        if self._weights is None:
            total = self.axes[0].weights
            for ax in self.axes[1:]:
                total = np.multiply.outer(total, ax.weights)
            self._weights = total
        return self._weights

    def log_bump_values(self, points=None):
        """Sum of per-axis log-bumps, on the grid or at given points."""
        if points is None:
            total = log_bump((self.axes[0].nodes - self.axes[0].center)
                             / self.axes[0].half)
            for ax in self.axes[1:]:
                total = np.add.outer(
                    total, log_bump((ax.nodes - ax.center) / ax.half))
            return total
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for k, ax in enumerate(self.axes):
            out = out + log_bump((pts[..., k] - ax.center) / ax.half)
        return out

    def contains(self, points, tol=1e-9):
        pts = np.asarray(points, dtype=float)
        inside = np.ones(pts.shape[:-1], dtype=bool)
        for k, ax in enumerate(self.axes):
            inside &= (pts[..., k] >= ax.lo - tol) & (pts[..., k] <= ax.hi + tol)
        return inside

    def differentiate(self, values, axis):
        """Spectral derivative of grid data along one axis, panel by panel."""
        ax = self.axes[axis]
        moved = np.moveaxis(np.asarray(values), axis, 0)
        panels = moved.reshape((ax.panels, ax.order, -1))
        out = _real_product(ax.diff, panels).reshape(moved.shape)
        return np.moveaxis(out, 0, axis)


def _real_product(matrix, values):
    """np.matmul(matrix, values) for a real matrix.

    NumPy would promote the real factor to complex and do twice the
    arithmetic, so complex values multiply as one real product over the
    (re, im) float view of a contiguous copy. Real values keep the plain
    product.
    """
    if not np.iscomplexobj(values):
        return np.matmul(matrix, values)
    pairs = np.ascontiguousarray(values, dtype=complex).view(float)
    return np.matmul(matrix, pairs).view(complex)


class _CellPlan:
    """Interpolation at fixed points of one chart, grouped by panel cell.

    A group is its cell's grid-block slices, its point rows and their
    per-axis barycentric bases; applying it contracts the block in place.
    """

    def __init__(self, chart, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != chart.dim:
            raise ValueError("points must have one coordinate per axis")
        if chart.dim > 2:
            raise NotImplementedError("interpolation implemented for 1 and 2 axes")
        self.dim = chart.dim
        self.count = pts.shape[0]
        located = [ax.locate(pts[:, k]) for k, ax in enumerate(chart.axes)]
        panel = np.stack([p for p, _ in located], axis=-1)
        self.groups = []
        for cell in np.unique(panel, axis=0):
            rows = np.flatnonzero((panel == cell).all(axis=1))
            block = tuple(slice(i * ax.order, (i + 1) * ax.order)
                          for i, ax in zip(cell, chart.axes))
            self.groups.append((block, rows,
                                [basis[rows] for _, basis in located]))

    def __call__(self, values):
        values = np.asarray(values)
        trail = values.shape[self.dim:]
        out = np.empty((self.count,) + trail,
                       dtype=np.result_type(values.dtype, float))
        for block, rows, bases in self.groups:
            acc = _real_product(
                bases[0], values[block].reshape(bases[0].shape[1], -1))
            for basis in bases[1:]:
                acc = _real_product(basis[:, None, :], acc.reshape(
                    rows.size, basis.shape[1], -1))[:, 0]
            out[rows] = acc.reshape((rows.size,) + trail)
        return out


class OverlapMap:
    """Transition a -> b: coordinate map, its Jacobian, and a validity mask.

    `mapper(*coords)` returns b-chart coordinates of points given in a-chart
    coordinates; `jacobian(*coords)` returns (..., dim, dim) arrays with
    jac[..., i, j] = d(b-coord i)/d(a-coord j); `mask(*coords)` flags a-points
    lying in the overlap.
    """

    def __init__(self, mapper, jacobian, mask):
        self.mapper = mapper
        self.jacobian = jacobian
        self.mask = mask


class ChartAtlas:
    """Charts, overlap maps, and the normalized bump partition of unity."""

    def __init__(self, name, dim, charts, overlaps, pou_tol=1e-12):
        self.name = str(name)
        self.dim = int(dim)
        self.charts = {}
        for chart in charts:
            if chart.name in self.charts:
                raise ValueError(f"duplicate chart name {chart.name!r}")
            if chart.dim != self.dim:
                raise ValueError(f"chart {chart.name!r} has dimension {chart.dim}")
            self.charts[chart.name] = chart
        self.overlaps = {}
        for key, overlap in overlaps.items():
            a, b = key
            if a not in self.charts or b not in self.charts or a == b:
                raise ValueError(f"overlap key {key!r} does not name two charts")
            if not isinstance(overlap, OverlapMap):
                raise ValueError("overlap values must be OverlapMap instances")
            self.overlaps[(a, b)] = overlap
        self.pou = {}
        for cname, chart in self.charts.items():
            own = chart.log_bump_values()
            self.pou[cname] = self._normalized(cname, own, chart.coords())
        self._validate_pou(pou_tol)
        self._samples = {}

    def overlap_sample(self, a, b):
        """The sample of overlap (a, b), built on first use."""
        if (a, b) not in self._samples:
            self._samples[(a, b)] = _OverlapSample(
                (a, b), self.charts[a], self.charts[b], self.overlaps[(a, b)])
        return self._samples[(a, b)]

    def _foreign_log_bumps(self, cname, coord_arrays):
        """Per-overlap log-bumps of the other charts at cname-coordinate points."""
        logs = []
        for (a, b), overlap in self.overlaps.items():
            if a != cname:
                continue
            inside = np.asarray(overlap.mask(*coord_arrays), dtype=bool)
            contrib = np.full(np.shape(coord_arrays[0]), -np.inf)
            if inside.any():
                mapped = overlap.mapper(*(c[inside] for c in coord_arrays))
                pts = np.stack([np.asarray(m, dtype=float) for m in mapped],
                               axis=-1)
                contrib[inside] = self.charts[b].log_bump_values(pts)
            logs.append(contrib)
        return logs

    def _normalized(self, cname, own_log, coord_arrays):
        """Pointwise-normalized share of cname's bump among all charts' bumps.

        Softmax in log space: exact ratios even where bumps underflow.
        """
        logs = [own_log] + self._foreign_log_bumps(cname, coord_arrays)
        stack = np.stack(logs, axis=0)
        peak = np.max(stack, axis=0)
        covered = np.isfinite(peak)
        out = np.zeros(own_log.shape)
        if covered.any():
            terms = np.exp(stack[:, covered] - peak[covered])
            out[covered] = terms[0] / np.sum(terms, axis=0)
        return out

    def _rho_at(self, cname, coord_arrays):
        """Partition value of chart cname at points given in its coordinates."""
        pts = np.stack([np.asarray(c, dtype=float) for c in coord_arrays], axis=-1)
        own = self.charts[cname].log_bump_values(pts)
        return self._normalized(cname, own, coord_arrays)

    def _validate_pou(self, tol):
        worst = 0.0
        for cname, chart in self.charts.items():
            coords = chart.coords()
            total = self.pou[cname].copy()
            for (a, b), overlap in self.overlaps.items():
                if a != cname:
                    continue
                inside = np.asarray(overlap.mask(*coords), dtype=bool)
                if not inside.any():
                    continue
                mapped = overlap.mapper(*(c[inside] for c in coords))
                total[inside] += self._rho_at(b, mapped)
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
        if worst > tol:
            raise ValueError(
                f"partition of unity sums to 1 only within {worst:.3e}; "
                "check overlap maps and masks for consistency")


def _form_keys(dim, degree):
    return tuple(combinations(range(dim), degree))


class FormField:
    """Degree-p form as chart-coefficient arrays on strictly increasing keys."""

    def __init__(self, atlas, degree, comps, rank=None):
        if not 0 <= degree <= atlas.dim:
            raise ValueError(f"degree must lie in 0..{atlas.dim}")
        if rank is not None and int(rank) < 1:
            raise ValueError("rank must be a positive integer or None")
        self.atlas = atlas
        self.degree = int(degree)
        self.rank = None if rank is None else int(rank)
        keys = _form_keys(atlas.dim, self.degree)
        trail = () if self.rank is None else (self.rank, self.rank)
        store = {}
        for cname, chart in atlas.charts.items():
            if cname not in comps:
                raise ValueError(f"missing components for chart {cname!r}")
            supplied = comps[cname]
            unknown = set(supplied) - set(keys)
            if unknown:
                raise ValueError(f"unexpected component keys {sorted(unknown)}")
            chart_comps = {}
            for key in keys:
                if key not in supplied:
                    raise ValueError(f"missing component {key} on chart {cname!r}")
                arr = np.asarray(supplied[key])
                if arr.shape != chart.shape + trail:
                    raise ValueError(
                        f"component {key} on chart {cname!r} has shape "
                        f"{arr.shape}, expected {chart.shape + trail}")
                chart_comps[key] = arr
            store[cname] = chart_comps
        self.comps = store

    def _zip_with(self, other, op):
        if not isinstance(other, FormField):
            raise TypeError("expected a FormField")
        if self.atlas is not other.atlas:
            raise ValueError("fields live on different atlases")
        if self.degree != other.degree or self.rank != other.rank:
            raise ValueError("degree or rank mismatch")
        comps = {cname: {key: op(arr, other.comps[cname][key])
                         for key, arr in chart_comps.items()}
                 for cname, chart_comps in self.comps.items()}
        return FormField(self.atlas, self.degree, comps, rank=self.rank)

    def __add__(self, other):
        return self._zip_with(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip_with(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        if isinstance(scalar, FormField):
            raise TypeError("use wedge for form products")
        comps = {cname: {key: scalar * arr for key, arr in chart_comps.items()}
                 for cname, chart_comps in self.comps.items()}
        return FormField(self.atlas, self.degree, comps, rank=self.rank)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def wedge(self, other):
        """Wedge product; matrix-valued coefficients compose by matmul."""
        if not isinstance(other, FormField):
            raise TypeError("expected a FormField")
        if self.atlas is not other.atlas:
            raise ValueError("fields live on different atlases")
        degree = self.degree + other.degree
        if degree > self.atlas.dim:
            raise ValueError("wedge degree exceeds the atlas dimension")
        if self.rank is not None and other.rank is not None \
                and self.rank != other.rank:
            raise ValueError("matrix ranks differ")
        rank = self.rank if self.rank is not None else other.rank
        comps = {}
        for cname, chart in self.atlas.charts.items():
            out = {}
            for key_a, arr_a in self.comps[cname].items():
                for key_b, arr_b in other.comps[cname].items():
                    if set(key_a) & set(key_b):
                        continue
                    inversions = sum(1 for i in key_a for j in key_b if i > j)
                    sign = -1.0 if inversions % 2 else 1.0
                    merged = tuple(sorted(key_a + key_b))
                    term = sign * _coef_product(arr_a, self.rank,
                                                arr_b, other.rank)
                    if merged in out:
                        out[merged] = out[merged] + term
                    else:
                        out[merged] = term
            comps[cname] = out
        return FormField(self.atlas, degree, comps, rank=rank)

    def trace(self):
        """Pointwise matrix trace, producing a scalar-valued field."""
        if self.rank is None:
            raise ValueError("trace requires a matrix-valued field")
        comps = {cname: {key: np.einsum("...aa->...", arr)
                         for key, arr in chart_comps.items()}
                 for cname, chart_comps in self.comps.items()}
        return FormField(self.atlas, self.degree, comps, rank=None)

    def overlap_residual(self):
        """Max deviation from Jacobian-pullback consistency on overlaps."""
        return _descent_residual(self.atlas, self.degree, self.comps)


def _coef_product(arr_a, rank_a, arr_b, rank_b):
    if rank_a is None and rank_b is None:
        return arr_a * arr_b
    if rank_a is not None and rank_b is not None:
        return np.einsum("...ab,...bc->...ac", arr_a, arr_b)
    if rank_a is None:
        return arr_a[..., None, None] * arr_b
    return arr_a * arr_b[..., None, None]


class _OverlapSample:
    """Strided overlap nodes of chart a whose images land in chart b.

    `idx` are their flat chart-a indices, `coords` their a-coordinates,
    `points` their b-coordinates and `jacobian` the transition Jacobians;
    `plan` interpolates chart-b grid data at `points`, and `minors` holds
    the Jacobian minors that pull forms of every degree back. `transition`
    caches each transition's sampled values, weakly keyed by its callable.
    """

    def __init__(self, key, chart_a, chart_b, overlap):
        self.key = key
        self.chart = chart_a
        self._transitions = weakref.WeakKeyDictionary()
        coords = chart_a.coords()
        idx = np.flatnonzero(np.asarray(overlap.mask(*coords), dtype=bool).ravel())
        idx = idx[::max(1, idx.size // MAX_OVERLAP_SAMPLES)]
        mapped = overlap.mapper(*(c.ravel()[idx] for c in coords))
        pts = np.stack([np.asarray(m, dtype=float) for m in mapped], axis=-1)
        keep = chart_b.contains(pts)
        self.idx = idx[keep]
        self.coords = [c.ravel()[self.idx] for c in coords]
        self.points = pts[keep]
        self.jacobian = np.asarray(overlap.jacobian(*self.coords), dtype=float)
        self.plan = _CellPlan(chart_b, self.points)
        keys = [key for p in range(chart_b.dim + 1)
                for key in _form_keys(chart_b.dim, p)]
        self.minors = {(ki, kj): np.linalg.det(self.jacobian[:, kj][:, :, ki])
                       for ki in keys for kj in keys if len(ki) == len(kj)}

    def gather(self, grid_array):
        """Chart-a grid data at the sampled nodes."""
        trail = grid_array.shape[len(self.coords):]
        return grid_array.reshape((-1,) + trail)[self.idx]

    def transition(self, fn, rank):
        """phi and (d phi along each axis) at the sampled nodes, for the
        transition callable `fn` of a rank-`rank` bundle.

        `fn` is evaluated once on chart a's grid and differentiated there;
        the gathered values are kept until `fn` is garbage collected. A
        callable that cannot be weakly referenced is evaluated every time.
        """
        try:
            entry = self._transitions.get(fn)
        except TypeError:
            entry = None
        if entry is None:
            grid = np.asarray(fn(*self.chart.coords()), dtype=complex)
            if grid.shape != self.chart.shape + (rank, rank):
                raise ValueError(f"transition on {self.key} has wrong shape")
            entry = (self.gather(grid),
                     tuple(self.gather(self.chart.differentiate(grid, axis))
                           for axis in range(self.chart.dim)))
            for arr in (entry[0],) + entry[1]:
                arr.flags.writeable = False
            try:
                self._transitions[fn] = entry
            except TypeError:
                pass
        if entry[0].shape[1:] != (rank, rank):
            raise ValueError(f"transition on {self.key} has wrong shape")
        return entry

    def pullback(self, comps_b, degree):
        """Pull chart-b form components back to the sampled a-nodes."""
        keys = _form_keys(len(self.coords), degree)
        interp = {key: self.plan(comps_b[key]) for key in keys}
        return {ki: sum(self.minors[ki, kj].reshape((-1,) + (1,) * (v.ndim - 1))
                        * v for kj, v in interp.items())
                for ki in keys}


def _descent_residual(atlas, degree, comps, conn=None, shifted=False):
    """Max over overlaps (a, b) of |X_a - phi (pullback X_b) phi^-1 - shift|.

    `comps[chart][key]` are the grid coefficients of a degree-`degree` form
    X.  Without `conn`, phi is the identity and there is no shift.  With it,
    phi is the transition phi_ab of `conn`; `shifted` (1-forms only) adds
    the shift (d phi) phi^-1, which makes X = A the gluing check of `conn`.
    """
    worst = 0.0
    for a, b in atlas.overlaps:
        sample = atlas.overlap_sample(a, b)
        if conn is not None:
            phi, dphi = sample.transition(conn.transitions[(a, b)], conn.rank)
            phi_inv = phi.conj().swapaxes(-1, -2)
        if sample.idx.size == 0:
            continue
        for key, rhs in sample.pullback(comps[b], degree).items():
            if conn is not None:
                rhs = phi @ rhs @ phi_inv
            if shifted:
                rhs = rhs - dphi[key[0]] @ phi_inv
            stored = sample.gather(comps[a][key])
            worst = max(worst, float(np.max(np.abs(stored - rhs))))
    return worst


def integrate_top(form):
    """Pair a scalar top-degree form with the fundamental class by quadrature."""
    if not isinstance(form, FormField):
        raise TypeError("expected a FormField")
    atlas = form.atlas
    if form.degree != atlas.dim:
        raise ValueError("integrate_top requires a top-degree form")
    if form.rank is not None:
        raise TypeError("integrate_top requires scalar-valued coefficients; "
                        "take a trace first")
    key = tuple(range(atlas.dim))
    total = 0.0
    for cname, chart in atlas.charts.items():
        comp = form.comps[cname][key]
        total = total + chart.orientation * np.sum(
            chart.node_weights() * atlas.pou[cname] * comp)
    return total


class ModuleConnection:
    """Per-chart anti-Hermitian connection 1-forms of a rank-r bundle.

    `forms[chart]` lists one (grid + rank x rank) array per coordinate axis;
    `transitions[(a, b)]` evaluates the unitary transition phi_ab at points
    given in a-chart coordinates. Gluing is validated on construction.
    """

    def __init__(self, atlas, rank, forms, transitions, tol=1e-6):
        if (isinstance(rank, bool) or not isinstance(rank, (int, np.integer))
                or rank < 1):
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        self.atlas = atlas
        self.rank = rank = int(rank)
        self.tol = float(tol)
        self.forms = {}
        for cname, chart in atlas.charts.items():
            if cname not in forms:
                raise ValueError(f"missing connection forms for chart {cname!r}")
            entry = list(forms[cname])
            if len(entry) != chart.dim:
                raise ValueError("one connection matrix per axis is required")
            converted = []
            for arr in entry:
                arr = np.asarray(arr, dtype=complex)
                if arr.shape != chart.shape + (rank, rank):
                    raise ValueError(
                        f"connection form on {cname!r} must have shape "
                        f"{chart.shape + (rank, rank)}")
                herm = np.max(np.abs(arr + arr.conj().swapaxes(-1, -2)))
                if herm > 1e-10:
                    raise ValueError(
                        f"connection form on {cname!r} is not anti-Hermitian "
                        f"(residual {herm:.2e})")
                converted.append(arr)
            self.forms[cname] = converted
        self.transitions = dict(transitions)
        for key in atlas.overlaps:
            if key not in self.transitions:
                raise ValueError(f"missing transition function for overlap {key}")
        residual = self.gluing_residual()
        if residual > self.tol:
            raise ValueError(
                f"connection gluing residual {residual:.3e} exceeds "
                f"{self.tol:.1e}; connection rejected")

    def gluing_residual(self):
        """Max residual of A_a = phi A_b phi^-1 - (d phi) phi^-1 on overlaps."""
        comps = {cname: {(axis,): arr for axis, arr in enumerate(forms)}
                 for cname, forms in self.forms.items()}
        return _descent_residual(self.atlas, 1, comps, self, shifted=True)


def curvature(conn, tol=1e-6):
    """F = dA + A ^ A per chart, with the descent check on overlaps."""
    atlas = conn.atlas
    comps = {}
    for cname, chart in atlas.charts.items():
        forms = conn.forms[cname]
        out = {}
        for i in range(chart.dim):
            for j in range(i + 1, chart.dim):
                out[(i, j)] = (chart.differentiate(forms[j], i)
                               - chart.differentiate(forms[i], j)
                               + forms[i] @ forms[j] - forms[j] @ forms[i])
        comps[cname] = out
    field = FormField(atlas, 2, comps, rank=conn.rank)
    residual = _descent_residual(atlas, 2, field.comps, conn)
    if residual > tol:
        raise ValueError(
            f"curvature fails to descend: overlap residual {residual:.3e} "
            f"exceeds {tol:.1e}")
    return field


def connection_difference(c1, c2, tol=1e-6):
    """Difference of two connections with the same transitions, a global 1-form."""
    if c1.atlas is not c2.atlas:
        raise ValueError("connections live on different atlases")
    if c1.rank != c2.rank or c1.transitions != c2.transitions:
        raise ValueError("connection difference requires the same module")
    atlas = c1.atlas
    comps = {}
    for cname, chart in atlas.charts.items():
        comps[cname] = {(axis,): c1.forms[cname][axis] - c2.forms[cname][axis]
                        for axis in range(chart.dim)}
    field = FormField(atlas, 1, comps, rank=c1.rank)
    residual = _descent_residual(atlas, 1, field.comps, c1)
    if residual > tol:
        raise ValueError(
            f"difference does not glue by conjugation: residual {residual:.3e}")
    return field


def tensor_connection(c1, c2):
    """Product connection A_1 x 1 + 1 x A_2 on the tensor-product bundle."""
    if c1.atlas is not c2.atlas:
        raise ValueError("tensor product requires a common atlas")
    atlas = c1.atlas
    r1 = c1.rank
    r2 = c2.rank
    eye1 = np.eye(r1, dtype=complex)
    eye2 = np.eye(r2, dtype=complex)
    forms = {}
    for cname, chart in atlas.charts.items():
        combined = []
        for axis in range(chart.dim):
            a1 = c1.forms[cname][axis]
            a2 = c2.forms[cname][axis]
            t1 = np.einsum("...ab,cd->...acbd", a1, eye2)
            t2 = np.einsum("ab,...cd->...acbd", eye1, a2)
            combined.append((t1 + t2).reshape(chart.shape + (r1 * r2, r1 * r2)))
        forms[cname] = combined
    transitions = {key: _kron_transition(c1.transitions[key],
                                         c2.transitions[key], r1, r2)
                   for key in atlas.overlaps}
    return ModuleConnection(atlas, r1 * r2, forms, transitions,
                            tol=max(c1.tol, c2.tol))


def _kron_transition(f1, f2, r1, r2):
    def combined(*coords):
        phi1 = np.asarray(f1(*coords), dtype=complex)
        phi2 = np.asarray(f2(*coords), dtype=complex)
        out = np.einsum("...ab,...cd->...acbd", phi1, phi2)
        return out.reshape(phi1.shape[:-2] + (r1 * r2, r1 * r2))
    return combined
