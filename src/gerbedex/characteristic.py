"""Characteristic forms, relative characters, and the topological index.

A `MixedForm` collects the even-degree pieces of a character as numeric
scalar fields over a chart atlas.  A benchmark handled symbolically ships
its characters as `RingElement`s of a truncated polynomial ring instead,
whose power-k coefficient is the degree-2k piece.  The index pairing
multiplies the genus of the tangent data against a twist character and
integrates the top piece.

Sign conventions.  `twisted_chern_character` consumes geometric curvature
(`F = dA + A ^ A` of an anti-Hermitian connection) and normalizes so that
the degree-2 piece is tr(F)/2 pi i.  The relative supertrace character
uses the operator convention, which differs from the geometric one by a
sign; `relative_character_of_module` performs that negation internally so
both entry points take geometric data.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .clifford import spinor_rep
from .geometry import FormField, ModuleConnection, curvature, integrate_top
from .symbolic import RingElement

TWO_PI_I = 2.0j * np.pi


def _zero_scalar_field(atlas, degree):
    comps = {cname: {key: np.zeros(chart.shape)
                     for key in combinations(range(atlas.dim), degree)}
             for cname, chart in atlas.charts.items()}
    return FormField(atlas, degree, comps)


def _realized(field, tol, label):
    """Strip a vanishing imaginary part, complaining if it is not vanishing."""
    comps = {}
    for cname, chart_comps in field.comps.items():
        out = {}
        for key, arr in chart_comps.items():
            arr = np.asarray(arr)
            if np.iscomplexobj(arr):
                stray = float(np.abs(arr.imag).max()) if arr.size else 0.0
                if not stray <= tol:
                    raise ValueError(
                        f"{label} has imaginary part {stray:.3e}")
                arr = arr.real
            out[key] = np.asarray(arr, dtype=float)
        comps[cname] = out
    return FormField(field.atlas, field.degree, comps)


class MixedForm:
    """Inhomogeneous even-degree form over a chart atlas.

    Holds one scalar `FormField` per even degree up to the atlas
    dimension, with absent degrees filled by zero.
    """

    def __init__(self, parts):
        if not parts:
            raise ValueError("parts must contain at least one field")
        atlas = None
        for degree, field in parts.items():
            if not isinstance(field, FormField):
                raise TypeError("parts must be FormField instances")
            if field.rank is not None:
                raise ValueError("mixed form parts must be scalar fields")
            if degree % 2 != 0 or field.degree != degree:
                raise ValueError("parts are indexed by their even degree")
            if atlas is None:
                atlas = field.atlas
            elif field.atlas is not atlas:
                raise ValueError("parts live on different atlases")
        allowed = set(range(0, atlas.dim + 1, 2))
        extra = set(parts) - allowed
        if extra:
            raise ValueError(
                f"part degrees {sorted(extra)} exceed the atlas dimension")
        self.atlas = atlas
        self.parts = {degree: parts[degree] if degree in parts
                      else _zero_scalar_field(atlas, degree)
                      for degree in sorted(allowed)}

    @classmethod
    def constant(cls, atlas, value):
        comps = {cname: {(): np.full(chart.shape, float(value))}
                 for cname, chart in atlas.charts.items()}
        return cls(parts={0: FormField(atlas, 0, comps)})

    @property
    def dim(self):
        return self.atlas.dim

    def part(self, degree):
        if degree % 2 != 0 or not 0 <= degree <= self.dim:
            raise ValueError(f"no part in degree {degree}")
        return self.parts[degree]

    def __mul__(self, other):
        if not isinstance(other, MixedForm):
            raise TypeError("expected a MixedForm")
        if self.atlas is not other.atlas:
            raise ValueError("mixed forms live on different atlases")
        out = {}
        for total in range(0, self.dim + 1, 2):
            acc = None
            for low in range(0, total + 1, 2):
                term = self.parts[low].wedge(other.parts[total - low])
                acc = term if acc is None else acc + term
            out[total] = acc
        return MixedForm(parts=out)

    def integrate(self):
        """Pair with the fundamental class: top piece integrated."""
        return integrate_top(self.parts[self.dim])


def twisted_chern_character(source, tol=1e-6, reality_tol=1e-9):
    """Character of a twist module: rank, tr(F)/2 pi i, tr(F ^ F)/2(2 pi i)^2.

    Accepts a `ModuleConnection` (curvature computed and descent-checked)
    or a matrix-valued curvature 2-form.  The pieces are checked to be real
    and to glue across overlaps after tracing.
    """
    if isinstance(source, ModuleConnection):
        field = curvature(source, tol=tol)
    elif isinstance(source, FormField):
        field = source
    else:
        raise TypeError("expected a ModuleConnection or curvature FormField")
    if field.degree != 2 or field.rank is None:
        raise ValueError("curvature must be a matrix-valued 2-form")
    atlas = field.atlas
    parts = {0: MixedForm.constant(atlas, field.rank).part(0)}
    parts[2] = _realized(field.trace() * (1.0 / TWO_PI_I),
                         reality_tol, "degree-2 character piece")
    if atlas.dim >= 4:
        squared = field.wedge(field).trace()
        parts[4] = _realized(squared * (1.0 / (2.0 * TWO_PI_I ** 2)),
                             reality_tol, "degree-4 character piece")
    for degree in sorted(parts):
        if degree == 0:
            continue
        residual = parts[degree].overlap_residual()
        if not residual <= tol:
            raise ValueError(
                f"character does not descend: degree-{degree} overlap "
                f"residual {residual:.3e}")
    return MixedForm(parts=parts)


def a_hat(source, tol=1e-6, reality_tol=1e-9):
    """Genus of the tangent curvature, truncated as 1 - p1/24.

    Given the tangent curvature 2-form it returns a `MixedForm`; given the
    first Pontryagin class as a `RingElement` it returns the `RingElement`.
    Dimensions above four would need higher genus terms and are rejected.
    """
    if isinstance(source, RingElement):
        if 2 * source.top > 4:
            raise ValueError("genus truncation only covers dimension up to 4")
        return RingElement.constant(source.top, 1) - source * Fraction(1, 24)
    if not isinstance(source, FormField):
        raise TypeError("expected a tangent curvature FormField or RingElement")
    if source.degree != 2 or source.rank is None:
        raise ValueError("tangent curvature must be a matrix-valued 2-form")
    atlas = source.atlas
    if atlas.dim > 4:
        raise ValueError("genus truncation only covers dimension up to 4")
    parts = {0: MixedForm.constant(atlas, 1.0).part(0)}
    if atlas.dim >= 4:
        pontryagin = _realized(
            source.wedge(source).trace() * (-1.0 / (8.0 * np.pi ** 2)),
            reality_tol, "first Pontryagin form")
        residual = pontryagin.overlap_residual()
        if not residual <= tol:
            raise ValueError(
                f"Pontryagin form does not descend: residual {residual:.3e}")
        parts[4] = pontryagin * (-1.0 / 24.0)
    return MixedForm(parts=parts)


def clifford_commutant_residual(field, fiber):
    """Worst commutator norm of the coefficients against the Clifford actions.

    Each side of each commutator is one matrix product over all grid nodes:
    X a as rows (nodes * r, r) times a, and a X as a times columns
    (r, nodes * r).
    """
    worst = 0.0
    r = fiber.dim
    for chart_comps in field.comps.values():
        for arr in chart_comps.values():
            if not arr.size:
                continue
            rows = arr.reshape(-1, r)
            cols = arr.reshape(-1, r, r).transpose(1, 0, 2).reshape(r, -1)
            for action in fiber.actions:
                right = (rows @ action).reshape(-1, r, r)
                left = (action @ cols).reshape(r, -1, r).transpose(1, 0, 2)
                worst = float(np.maximum(worst, np.abs(right - left).max()))
    return worst


def _check_commutant(field, fiber, tol, message):
    """Raise ValueError(message, residual) unless the field commutes.

    The commutant residual is compared with `tol` times the largest
    coefficient magnitude, floored at 1.
    """
    residual = clifford_commutant_residual(field, fiber)
    magnitude = max(1.0, max(
        (float(np.abs(arr).max()) for cc in field.comps.values()
         for arr in cc.values() if arr.size), default=1.0))
    if not residual <= tol * magnitude:
        raise ValueError(f"{message} {residual:.3e}")


def twisting_curvature(module_curvature, tangent_curvature, fiber, tol=1e-8):
    """Split off the Clifford part: F_E minus the curvature insertion c(R).

    The remainder must commute with every Clifford generator; a residual
    above `tol` (relative to the coefficient magnitude) means the module
    curvature is not Clifford-compatible with the given tangent data.
    """
    for name, field in (("module", module_curvature),
                        ("tangent", tangent_curvature)):
        if not isinstance(field, FormField) or field.degree != 2 \
                or field.rank is None:
            raise ValueError(f"{name} curvature must be a matrix-valued 2-form")
    if module_curvature.atlas is not tangent_curvature.atlas:
        raise ValueError("curvatures live on different atlases")
    if module_curvature.rank != fiber.dim:
        raise ValueError("module curvature rank must match the fiber dimension")
    if tangent_curvature.rank != fiber.n:
        raise ValueError("tangent curvature rank must match the algebra dimension")
    pair = np.stack([np.stack([a @ b for b in fiber.actions])
                     for a in fiber.actions])
    comps = {}
    for cname, chart_comps in tangent_curvature.comps.items():
        out = {}
        for key, omega in chart_comps.items():
            scale = max(1.0, float(np.abs(omega).max()))
            if np.abs(omega + np.swapaxes(omega, -1, -2)).max() > 1e-9 * scale:
                raise ValueError("tangent curvature matrices must be antisymmetric")
            inserted = 0.25 * np.einsum("...ij,ijab->...ab", omega, pair)
            out[key] = module_curvature.comps[cname][key] - inserted
        comps[cname] = out
    relative = FormField(module_curvature.atlas, 2, comps, rank=fiber.dim)
    _check_commutant(relative, fiber, tol, "relative curvature is not "
                     "Clifford-compatible: commutant residual")
    return relative


def relative_chern_character(relative, fiber, tol=1e-8, reality_tol=1e-9):
    """Supertrace character of a relative curvature in the operator convention.

    Degree-0 is the twist multiplicity; degree-2 is -Str(F)/2 pi i and
    degree-4 is Str(F ^ F)/2(2 pi i)^2, where Str is the supertrace
    relative to the spinor factor.  The coefficients must commute with the
    Clifford action for the supertrace to be defined.
    """
    if not isinstance(relative, FormField) or relative.degree != 2 \
            or relative.rank != fiber.dim:
        raise ValueError("expected a fiber-sized relative curvature 2-form")
    _check_commutant(relative, fiber, tol, "relative curvature does not "
                     "commute with the Clifford action: residual")
    return _supertrace_character(relative, fiber, reality_tol)


def _supertrace_character(relative, fiber, reality_tol=1e-9):
    """relative_chern_character of a field whose commutant check has passed."""
    kernel = fiber.grading @ fiber.volume_chirality() / spinor_rep(fiber.n).dim

    def supertraced(field):
        comps = {cname: {key: np.einsum("ab,...ba->...", kernel, arr)
                         for key, arr in chart_comps.items()}
                 for cname, chart_comps in field.comps.items()}
        return FormField(field.atlas, field.degree, comps)

    atlas = relative.atlas
    parts = {0: MixedForm.constant(atlas, fiber.multiplicity).part(0)}
    parts[2] = _realized(supertraced(relative) * (-1.0 / TWO_PI_I),
                         reality_tol, "degree-2 relative character piece")
    if atlas.dim >= 4:
        squared = supertraced(relative.wedge(relative))
        parts[4] = _realized(squared * (1.0 / (2.0 * TWO_PI_I ** 2)),
                             reality_tol, "degree-4 relative character piece")
    return MixedForm(parts=parts)


def relative_character_of_module(module_source, tangent_curvature, fiber,
                                 tol=1e-6, commutant_tol=1e-8):
    """End-to-end relative character ch(E/S) from geometric curvature data.

    The supertrace formula consumes curvature in the operator convention,
    the negative of the geometric `F = dA + A ^ A`; both the module and
    tangent inputs are negated here so callers pass geometric data
    unchanged.  For a module built as spinors tensor W this reproduces the
    twist character of W.
    """
    if isinstance(module_source, ModuleConnection):
        field = curvature(module_source, tol=tol)
    elif isinstance(module_source, FormField):
        field = module_source
    else:
        raise TypeError("expected a ModuleConnection or curvature FormField")
    relative = twisting_curvature(-field, -tangent_curvature, fiber,
                                  tol=commutant_tol)
    return _supertrace_character(relative, fiber)


@dataclass(frozen=True)
class IndexReport:
    """Index pairing value with its nearest integer and the distance."""

    value: object
    nearest: int
    gap: float


def topological_index(manifold, twist, tol=1e-6):
    """Pair the genus of the tangent data with a twist character.

    Symbolic twists (ring elements) use the manifold's symbolic Pontryagin
    class and return an exact rational value; connections and curvature
    fields go through quadrature.  The report carries the raw value, the
    nearest integer, and the integrality gap.
    """
    if isinstance(twist, RingElement):
        if not hasattr(manifold, "p1_class"):
            raise ValueError(
                "symbolic twist needs a benchmark with a symbolic tangent class")
        value = (a_hat(manifold.p1_class()) * twist).integrate()
    elif isinstance(twist, (MixedForm, ModuleConnection, FormField)):
        character = (twist if isinstance(twist, MixedForm)
                     else twisted_chern_character(twist, tol=tol))
        genus = a_hat(manifold.tangent_curvature(), tol=tol)
        value = float((genus * character).integrate())
    else:
        raise TypeError(
            "expected a ModuleConnection, FormField, RingElement, or MixedForm")
    nearest = int(round(value))
    return IndexReport(value, nearest, abs(float(value - nearest)))
