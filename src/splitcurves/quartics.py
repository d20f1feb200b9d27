"""Nodal quartic surfaces in P^3 and the projection correspondence.

A quartic with a node at (0:0:0:1) is stored node-centered as the triple
(g2, g3, g4) with equation g2 w^2 + 2 g3 w + g4 = 0; projecting from the
node yields the sextic g3^2 - g2 g4 with even contact conic g2.  Hyperplanes
and quadrics through the ambient space map to cubics and quartics through
the tangency divisor, carrying node incidence along.  Eight nodes in
general position with a net of quadrics through them detect the syzygetic
shape, which is what makes the projected sextic split with type (2, 4).
"""

import itertools

from .arith import binary_form_sqrt, binform_gcd, binform_quotient, scalar_is_zero
from .conics import (
    classify_conic,
    contact_profile,
    rational_parametrization,
    restrict_to_conic,
)
from .curves import curve_is_reduced, singular_locus_complete, verify_node
from .errors import (
    CannotCertify,
    FieldMismatch,
    HyperplaneThroughNode,
    LineThroughNode,
    NodeDegenerate,
    PointNotOnConic,
    QuadricSingularAtNode,
    SplitCurvesError,
)
from .forms import (
    PLANE_VARS,
    SPACE_VARS,
    Form,
    ProjPoint,
    compose_form,
    monomial_basis,
    w_slices,
)
from .linalg import dependent_subsets, kernel_basis, rank_bareiss, solve_linear
from .linsys import FormSpace, SubsetSystems, cond_point, system_solve
from .scalars import QQ, ZERO, ONE

CENTER = ProjPoint([ZERO, ZERO, ZERO, ONE])


class QuarticSurface:
    """Quartic surface with a distinguished node moved to (0:0:0:1)."""

    __slots__ = ("g2", "g3", "g4", "_projection")

    def __init__(self, g2, g3, g4):
        if (g2.degree, g3.degree, g4.degree) != (2, 3, 4):
            raise FieldMismatch("node-centered data needs degrees (2, 3, 4)")
        self.g2 = g2
        self.g3 = g3
        self.g4 = g4
        self._projection = None

    @classmethod
    def from_raw(cls, quartic, node):
        """Recenter a raw quartic so a verified node sits at (0:0:0:1)."""
        if len(quartic.variables) != 4 or quartic.degree != 4:
            raise FieldMismatch("need a quartic form in four variables")
        if not verify_node(quartic, [node])[0].is_node:
            raise NodeDegenerate("%r is not a node of the quartic" % (node,))
        cols = [list(node.primitive())]
        for k in range(4):
            unit = [ONE if i == k else ZERO for i in range(4)]
            if rank_bareiss(cols + [unit]) == len(cols) + 1:
                cols.append(unit)
            if len(cols) == 4:
                break
        # matrix sending e4 to the node: columns (c2, c3, c4, node)
        move = [[cols[1][i], cols[2][i], cols[3][i], cols[0][i]] for i in range(4)]
        recentered = compose_form(quartic, move)
        slices = w_slices(recentered)
        if not slices[4].is_zero() or not slices[3].is_zero():
            raise NodeDegenerate("recentering did not kill the top w-terms")
        return cls(slices[2], slices[1].scale(QQ(1, 2)), slices[0])

    def form(self):
        """The defining quartic g2 w^2 + 2 g3 w + g4 in (x, y, z, w)."""
        w = Form.variable(SPACE_VARS, "w")
        return (
            _lift(self.g2) * w * w
            + _lift(self.g3).scale(2) * w
            + _lift(self.g4)
        )

    def projection(self):
        """``project_quartic(self, check_contact=False)``, computed on first use.

        The surface is immutable, so one projection serves every caller.
        """
        if self._projection is None:
            self._projection = project_quartic(self, check_contact=False)
        return self._projection

    def __repr__(self):
        return "QuarticSurface(g2=%r)" % (self.g2,)


def _lift(plane_form_):
    """A plane form viewed in (x, y, z, w)."""
    return Form(
        SPACE_VARS,
        plane_form_.degree,
        {(e[0], e[1], e[2], 0): c for e, c in plane_form_.terms.items()},
    )


def project_quartic(surface, check_contact=True):
    """Project from the distinguished node: the sextic and its contact conic.

    Returns (gamma_x, delta_x, info); the conic is g2 verbatim and the
    sextic is g3^2 - g2 g4.  Raises when the center is degenerate or the
    surface contains a line through it.  The line and contact checks run on
    a rational parametrization of g2, which info keeps as "param"; they are
    skipped, and info says so, only when g2 has no rational point.
    """
    g2, g3, g4 = surface.g2, surface.g3, surface.g4
    if classify_conic(g2) != "smooth":
        raise NodeDegenerate("center quadratic part has rank < 3")
    gamma_x = g3 * g3 - g2 * g4
    delta_x = g2
    info = {}
    if check_contact:
        info["reduced"] = curve_is_reduced(gamma_x)
        if not info["reduced"]:
            # degenerate construction; the correspondence hypotheses fail,
            # so the flag is reported instead of analyzing contact
            return gamma_x, delta_x, info
    try:
        param = rational_parametrization(g2)
    except PointNotOnConic:
        info["line_check"] = "skipped (the conic has no rational point)"
        return gamma_x, delta_x, info
    r3 = restrict_to_conic(g3, param)
    r4 = restrict_to_conic(g4, param)
    if r3.is_zero() or r4.is_zero():
        raise LineThroughNode("a ruling line lies on the surface")
    if binform_gcd(r3, r4).degree >= 1:
        raise LineThroughNode("the surface contains a line through the node")
    info["param"] = param
    if check_contact:
        info["contact"] = contact_profile(gamma_x, delta_x, param)
    return gamma_x, delta_x, info


def alpha1_map(surface, hyperplane):
    """Image of a hyperplane avoiding the node: the cubic g2*l - g3.

    The hyperplane is w + l = 0 (given either as the linear form l in the
    plane variables or as a 4-variable linear form with nonzero
    w-coefficient, which is normalized to 1).
    """
    ell = hyperplane
    if len(hyperplane.variables) == 4:
        if hyperplane.degree != 1:
            raise FieldMismatch("hyperplane must be linear")
        ell, wc = w_slices(hyperplane)
        if wc.is_zero():
            raise HyperplaneThroughNode("hyperplane contains the projection center")
        ell = ell.scale(ONE / wc.terms[(0, 0, 0)])
    cubic = surface.g2 * ell - surface.g3
    _check_contact_divisor(surface, cubic)
    return cubic


def alpha2_map(surface, a1, a2):
    """Image of the quadric a1*w + a2 = 0 (smooth at the node): a1*g3 - a2*g2."""
    if a1.is_zero():
        raise QuadricSingularAtNode("quadric needs a nonzero linear w-part")
    if a1.degree != 1 or a2.degree != 2:
        raise FieldMismatch("quadric data must have degrees (1, 2)")
    quartic = a1 * surface.g3 - a2 * surface.g2
    _check_contact_divisor(surface, quartic)
    return quartic


def _check_contact_divisor(surface, curve):
    """The image curve meets the conic exactly along the tangency divisor.

    Checked on the rational parametrization of g2 that the surface's
    projection keeps, so skipped only when g2 has no rational point.
    """
    param = surface.projection()[2].get("param")
    if param is None:
        return
    restriction = restrict_to_conic(curve, param)
    if restriction.is_zero():
        raise SplitCurvesError("image curve contains the contact conic")
    r3 = restrict_to_conic(surface.g3, param)
    # restriction of g3 cuts the tangency divisor; divisibility must hold
    if binform_quotient(restriction, r3.primitive()) is None:
        raise SplitCurvesError("image curve misses the tangency divisor")


class GeneralPositionResult:
    __slots__ = ("ok", "kind", "indices")

    def __init__(self, ok, kind=None, indices=None):
        self.ok = ok
        self.kind = kind
        self.indices = indices

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "GeneralPositionResult(ok)"
        return "GeneralPositionResult(%s %r)" % (self.kind, self.indices)


def general_position_p3(points):
    """No three collinear, no five on a hyperplane (rational points, <= 8)."""
    if any(p.field is not None for p in points):
        raise CannotCertify("general position over number fields not supported")
    rows = [p.primitive() for p in points]
    for kind, size, rank in (("collinear_triple", 3, 2), ("coplanar_five", 5, 3)):
        for subset in dependent_subsets(rows, size, rank):
            return GeneralPositionResult(False, kind, subset)
    return GeneralPositionResult(True)


class SyzygeticResult:
    """Outcome of ``syzygetic_test``.

    ``position`` is the ``general_position_p3`` verdict of the nodes when
    there are exactly eight, the one subset tried, and None otherwise;
    ``report`` is the witness subset's system, kernel included.
    """

    __slots__ = ("syzygetic", "subset", "report", "position")

    def __init__(self, syzygetic, subset, report, position):
        self.syzygetic = syzygetic
        self.subset = subset
        self.report = report
        self.position = position

    def __bool__(self):
        return self.syzygetic

    def __repr__(self):
        if self.syzygetic:
            return "SyzygeticResult(dim=%d)" % self.report.dimension
        return "SyzygeticResult(not detected)"


def syzygetic_test(surface_form, nodes):
    """Eight nodes in general position with a net of quadrics through them.

    Detected exactly when some 8-subset passes general_position_p3 and the
    linear system of quadrics through it has projective dimension 2; the
    witness subset consists of the assigned nodes.  Each subset is decided
    by rank, and only the witness's system is solved for its net.
    """
    if len(nodes) < 8:
        return SyzygeticResult(False, None, None, None)
    space = FormSpace(2, surface_form.variables)
    systems = SubsetSystems(space, [], nodes)
    for subset in itertools.combinations(range(len(nodes)), 8):
        gp = general_position_p3([nodes[i] for i in subset])
        position = gp if len(nodes) == 8 else None
        if gp and systems.dimension(subset) == 2:
            report = system_solve(space, [r for i in subset for r in cond_point(space, nodes[i])])
            return SyzygeticResult(True, subset, report, position)
    return SyzygeticResult(False, None, None, position)


def detect_33_configuration(surface, nodes):
    """Six non-center nodes on a conic in a hyperplane, no four collinear.

    Searches 6-subsets of the given nodes (the center (0:0:0:1) excluded);
    returns (subset, hyperplane kernel vector, conic witness) or None.
    """
    rest = [p for p in nodes if not p.eq_proj(CENTER)]
    if any(p.field is not None for p in rest):
        raise CannotCertify("conjugate surface nodes are not supported here")
    for subset in itertools.combinations(range(len(rest)), 6):
        pts = [rest[i] for i in subset]
        rows = [p.primitive() for p in pts]
        if rank_bareiss(rows) != 3:
            continue
        hyper = kernel_basis(rows, 4)
        if len(hyper) != 1:
            continue
        # coordinates inside the hyperplane: solve basis * c = point
        basis = kernel_basis([hyper[0]], 4)  # 3 spanning vectors
        plane_pts = []
        ok = True
        for p in pts:
            cols = [list(col) for col in zip(*basis)]
            sol = solve_linear(cols, list(p.primitive()))
            if sol is None:
                ok = False
                break
            plane_pts.append(ProjPoint(sol))
        if not ok:
            continue
        plane_rows = [q.primitive() for q in plane_pts]
        if next(dependent_subsets(plane_rows, 4, 2), None) is not None:
            continue
        space = FormSpace(2, PLANE_VARS)
        report = system_solve(space, [r for q in plane_pts for r in cond_point(space, q)])
        if report.dimension < 0:
            continue
        return {
            "subset": subset,
            "hyperplane": hyper[0],
            "conic": report.kernel[0],
            "dimension": report.dimension,
        }
    return None


def surface_singular_locus_complete(surface, claimed):
    """Are the claimed points exactly the singular locus of the surface?
    The verdict of ``check_surface_claim``."""
    return check_surface_claim(surface, claimed)[1]


def check_surface_claim(surface, claimed):
    """(reports, complete): ``verify_node``'s report on each claimed point
    of the surface, and whether the claim is exactly its singular locus.

    The node test runs once, on the whole claim.  The check uses the
    projection correspondence: away from the center, singular points of the
    surface are in bijection with the nodes of the projected sextic, the
    lift over a node P being w = -g3(P) / g2(P).  The claim is therefore
    reduced to the plane-curve completeness check.

    The correspondence needs g2 to be an even contact conic of the sextic,
    and ``project_quartic``'s line check settles that.  On g2 = 0 the
    sextic restricts to r3^2, so every contact multiplicity is even.  Each
    partial of the sextic restricts to 2 r3 (dg3)| - r4 (dg2)|, and grad g2
    vanishes nowhere on a smooth conic, so at a root of r3 the partials all
    vanish only where r4 does, which the line check excludes.  Without a
    rational point on g2 that check cannot run: ``PointNotOnConic``.
    """
    reports = verify_node(surface.form(), claimed)
    rest = [p for p in claimed if not (p.field is None and p.eq_proj(CENTER))]
    if len(rest) == len(claimed):
        return reports, False
    gamma_x, _delta_x, info = surface.projection()
    if "param" not in info:
        raise PointNotOnConic("conic has no rational point")
    # g2 w^2 + 2 g3 w + g4 is singular at the center, so this tests the rest
    if not all(rep.is_singular for rep in reports):
        return reports, False
    projections = []
    for p in rest:
        proj = ProjPoint(list(p.coords[:3]))
        # the lift over the projection must be the claimed point itself:
        # g2(P) * w + g3(P) = 0 homogeneously (g3 evaluated on (x, y, z))
        g2v = surface.g2.eval(list(p.coords[:3]))
        g3v = surface.g3.eval(list(p.coords[:3]))
        if not scalar_is_zero(g2v * p.coords[3] + g3v):
            return reports, False
        projections.append(proj)
    keys = [q.canonical_key() for q in projections]
    if len(set(keys)) != len(keys):
        return reports, False
    return reports, singular_locus_complete(gamma_x, projections)


def quartic_from_sextic(gamma, conic):
    """A quartic surface whose projection recovers (a multiple of) the curve.

    Follows the correspondence backwards: a cubic g3 restricting to the
    square root of the curve on the conic, then g4 = (g3^2 - c*gamma)/g2.
    The curve may need the recorded rational rescaling c for the square
    root to be rational; no uniqueness is claimed.
    """
    param = rational_parametrization(conic)
    restriction = restrict_to_conic(gamma, param)
    if restriction.is_zero():
        raise SplitCurvesError("curve contains the conic")
    content, factors = restriction.factor()
    if any(mult % 2 for _h, mult in factors):
        raise SplitCurvesError("conic is not an even contact conic of the curve")
    scale = content
    target = restriction.scale(scale)
    root = binary_form_sqrt(target)
    if root is None:
        raise SplitCurvesError("restriction is not a square after rescaling")
    # solve restrict(g3) == root on the 10 cubic coefficients
    space3 = FormSpace(3, gamma.variables)
    cols = []
    for expo in space3.basis:
        r = restrict_to_conic(Form.monomial(gamma.variables, expo), param)
        cols.append(list(r.coeffs))
    rows = [list(rw) for rw in zip(*cols)]
    sol = solve_linear(rows, list(root.coeffs))
    if sol is None:
        raise SplitCurvesError("no cubic restricts to the square root")
    g3 = space3.from_vector(sol)
    # g4 = (g3^2 - scale*gamma) / conic, solved exactly
    numerator = g3 * g3 - gamma.scale(scale)
    space4 = FormSpace(4, gamma.variables)
    basis6 = monomial_basis(3, 6)
    cols = []
    for expo in space4.basis:
        prod = conic * Form.monomial(gamma.variables, expo)
        cols.append([prod.terms.get(e, ZERO) for e in basis6])
    rows = [list(rw) for rw in zip(*cols)]
    rhs = [numerator.terms.get(e, ZERO) for e in basis6]
    sol = solve_linear(rows, rhs)
    if sol is None:
        raise SplitCurvesError("division by the conic failed")
    g4 = space4.from_vector(sol)
    surface = QuarticSurface(conic, g3, g4)
    gamma_check = g3 * g3 - conic * g4
    if gamma_check != gamma.scale(scale):
        raise SplitCurvesError("reconstruction identity failed")
    return surface, scale
