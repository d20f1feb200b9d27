"""Homogeneous forms over the rationals, biforms on P1 x P1, and points.

Forms are sparse term maps from exponent vectors to rational coefficients,
always homogeneous; a biform keeps a dense tuple of its coefficients and
shows the same term map as ``terms``.  The text grammar accepted by
``parse_form`` is the wire format used by the CLI.  Printing iterates terms
in descending graded-lexicographic order so output is reproducible, and
``parse_form(form_to_str(f)) == f`` exactly.
"""

import math
from operator import mul

from .arith import GENERATOR, BinForm, NFElem, UPoly, power, quotient_terms, scalar_is_zero
from .errors import (
    FieldMismatch,
    InhomogeneousImage,
    NotHomogeneous,
    ParseError,
)
from .linalg import mat_vec, primitive_vector
from .scalars import QQ, ZERO, ONE, over_common_denominator, rat_str, signed_sum

# the variables of plane forms and of forms on P^3
PLANE_VARS = ("x", "y", "z")
SPACE_VARS = ("x", "y", "z", "w")


def monomial_basis(nvars, degree):
    """Exponent vectors of total degree ``degree``, descending lex order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec(tuple(), degree, nvars)
    return out


def monomial_values(coords, expos, field):
    """The monomials ``expos``, all of one degree d, at a point, in integers.

    Returns (values, D): the value of monomial i is values[i] / D.  At a
    rational point (``field`` None) the coordinates are put over one
    denominator, so each value is an integer and D is that denominator to
    the power d.  Over a degree-n field QQ[a]/(p) a coordinate is an
    integer vector in the power basis, its powers and the monomials are
    products by ``NumberField._zz_product``, each of which carries one
    factor P_n^(n - 1), so every monomial carries d - 1 of them: each value
    is an integer vector and D also has the factor P_n^((n - 1)(d - 1)).
    """
    if not expos:
        return [], 1
    degree = sum(expos[0])
    if field is None:
        xs, den = over_common_denominator(coords)
        values = []
        for expo in expos:
            v = 1
            for x, e in zip(xs, expo):
                if e:
                    v *= x**e
            values.append(v)
        return values, den**degree
    n = field.degree
    flat, den = over_common_denominator(
        [c for x in coords for c in field.coerce(x).coords]
    )
    # powers[i][e] is P_n^((n - 1)(e - 1)) X_i^e, X_i = D x_i
    powers = [[None, flat[i : i + n]] for i in range(0, len(flat), n)]
    product = field._zz_product
    one = [1] + [0] * (n - 1)
    values = []
    for expo in expos:
        mono = None
        for pw, e in zip(powers, expo):
            if e:
                while len(pw) <= e:
                    pw.append(product(pw[-1], pw[1]))
                mono = pw[e] if mono is None else product(mono, pw[e])
        values.append(one if mono is None else mono)
    return values, den**degree * field._red_den ** max(degree - 1, 0)


def coordinate_field(coords):
    """The number field of the first ``NFElem`` coordinate, or None."""
    return next((c.owner for c in coords if isinstance(c, NFElem)), None)


def combine_values(nums, values, den, field):
    """sum(nums[i] * values[i]) / den, for integer ``nums`` and the integer
    monomial values of ``monomial_values`` (vectors over a ``field``): a
    rational, or an ``NFElem`` of that field."""
    if field is None:
        return QQ(sum(map(mul, nums, values)), den)
    total = [0] * field.degree
    for a, vec in zip(nums, values):
        total = [t + a * v for t, v in zip(total, vec)]
    return NFElem(field, tuple(QQ(t, den) for t in total))


# Every Form keys its terms by the same exponent tuple objects: own key
# tuples would be about a third of the memory of a form that is kept.
_EXPONENTS = {}


class Form:
    """Homogeneous multivariate form in 3 or 4 variables over QQ.

    A plane curve keeps one datum that ``curves`` computes about it: its
    discriminant (``_disc``: the shear m and D = Res_y(F, dF/dy) there), so
    every check on the same curve reads one D.  Nothing else is kept, never
    a verdict on a claim.
    """

    __slots__ = ("variables", "degree", "terms", "_disc")

    def __init__(self, variables, degree, terms):
        variables = tuple(variables)
        if len(variables) not in (3, 4):
            raise ValueError("forms live in 3 or 4 variables")
        clean = {}
        for expo, coeff in terms.items():
            if type(coeff) is not QQ:
                coeff = QQ(coeff)
            if coeff == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(variables) or sum(expo) != degree:
                raise NotHomogeneous(
                    "exponent %r does not have total degree %d" % (expo, degree)
                )
            clean[_EXPONENTS.setdefault(expo, expo)] = coeff
        self.variables = variables
        self.degree = degree
        self.terms = clean
        self._disc = None

    @classmethod
    def _clean(cls, variables, degree, terms):
        """A form from terms that are already clean: nonzero rationals keyed
        by shared exponent tuples of total degree ``degree``, as the
        arithmetic below produces them."""
        out = cls.__new__(cls)
        out.variables = variables
        out.degree = degree
        out.terms = terms
        out._disc = None
        return out

    # -- constructors
    @classmethod
    def zero(cls, variables, degree):
        return cls(variables, degree, {})

    @classmethod
    def monomial(cls, variables, expo):
        return cls(variables, sum(expo), {tuple(expo): ONE})

    @classmethod
    def variable(cls, variables, name):
        i = list(variables).index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, 1, {expo: ONE})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.variables == other.variables
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.variables, self.degree, tuple(sorted(self.terms.items())))
        )

    def _check(self, other):
        if self.variables != other.variables:
            raise FieldMismatch("forms in different variables")

    def __add__(self, other):
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise NotHomogeneous(
                "adding forms of degrees %d and %d" % (self.degree, other.degree)
            )
        terms = dict(self.terms)
        for e, c in other.terms.items():
            total = terms.get(e, ZERO) + c
            if total:
                terms[e] = total
            else:
                del terms[e]
        return Form._clean(self.variables, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form._clean(
            self.variables, self.degree, {e: -c for e, c in self.terms.items()}
        )

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return Form.zero(self.variables, self.degree)
        return Form._clean(
            self.variables, self.degree, {e: c * v for e, v in self.terms.items()}
        )

    def __mul__(self, other):
        """The product, expanded in integers as ``substitute_form`` expands:
        each factor's coefficients over one denominator, exponents packed
        into integer keys, one ``_packed_mul`` and one division at the end."""
        if not isinstance(other, Form):
            return self.scale(other)
        self._check(other)
        degree = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return Form.zero(self.variables, degree)
        base = degree + 1
        places = [base**j for j in range(len(self.variables))]
        (a, da), (b, db) = (_packed_terms(f.terms, places) for f in (self, other))
        return _unpacked_form(self.variables, degree, _packed_mul(a, b), da * db)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, Form(self.variables, 0, {(0,) * len(self.variables): ONE}))

    def eval(self, coords):
        """Exact value at coordinates (rationals or NFElem of one field).

        The value lies in the point's field: an ``NFElem`` when any
        coordinate is one, also for a zero or constant form, and a rational
        otherwise.  It is one integer sum, divided once: the coefficients
        are put over one denominator C, and ``monomial_values`` gives every
        monomial's value over one denominator D.
        """
        if len(coords) != len(self.variables):
            raise FieldMismatch(
                "point has %d coordinates, form has %d variables"
                % (len(coords), len(self.variables))
            )
        field = coordinate_field(coords)
        nums, cden = over_common_denominator(list(self.terms.values()))
        values, den = monomial_values(coords, list(self.terms), field)
        return combine_values(nums, values, den * cden, field)

    def partial(self, i):
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                e = tuple(e)
                terms[_EXPONENTS.setdefault(e, e)] = coeff * expo[i]
        return Form._clean(self.variables, max(self.degree - 1, 0), terms)

    def partials(self):
        return [self.partial(i) for i in range(len(self.variables))]

    def coefficient_vector(self):
        basis = monomial_basis(len(self.variables), self.degree)
        return [self.terms.get(e, ZERO) for e in basis]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        return "Form(%s)" % form_to_str(self)


# A biform of bidegree (d1, d2) keeps its coefficients densely: the
# coefficient of s^i t^(d1-i) u^j v^(d2-j) sits at index i * (d2 + 1) + j.
# A kept biform (a pullback, a factor) is mostly its coefficient store, and
# a tuple holds a (6, 6) pullback in a fifth of the memory of a dict.  Each
# bidegree has one shared bidegree tuple and one tuple of (i, j) keys.
_LAYOUTS = {}


def _layout(d1, d2):
    """(bidegree, keys in index order) of the given bidegree, shared."""
    layout = _LAYOUTS.get((d1, d2))
    if layout is None:
        keys = tuple((i, j) for i in range(d1 + 1) for j in range(d2 + 1))
        layout = _LAYOUTS.setdefault((d1, d2), ((d1, d2), keys))
    return layout


class BiForm:
    """Bihomogeneous form on P1 x P1 in (s,t) x (u,v).

    ``terms[(i, j)]`` is the coefficient of s^i t^(d1-i) u^j v^(d2-j);
    ``coeffs`` holds all (d1+1)(d2+1) coefficients, zeros included, with
    that of (i, j) at index i * (d2 + 1) + j.
    """

    __slots__ = ("bidegree", "coeffs")

    def __init__(self, bidegree, terms):
        d1, d2 = bidegree
        coeffs = [ZERO] * ((d1 + 1) * (d2 + 1))
        for (i, j), coeff in terms.items():
            if type(coeff) is not QQ:
                coeff = QQ(coeff)
            if coeff == 0:
                continue
            if not (0 <= i <= d1 and 0 <= j <= d2):
                raise NotHomogeneous("exponent (%d,%d) outside bidegree" % (i, j))
            coeffs[i * (d2 + 1) + j] = coeff
        self.bidegree = _layout(d1, d2)[0]
        self.coeffs = tuple(coeffs)

    @classmethod
    def _dense(cls, bidegree, coeffs):
        """A biform from rational coefficients already in dense order."""
        out = cls.__new__(cls)
        out.bidegree = _layout(*bidegree)[0]
        out.coeffs = tuple(coeffs)
        return out

    @classmethod
    def zero(cls, bidegree):
        return cls(bidegree, {})

    def _nonzero(self):
        """((i, j), coefficient) pairs of the nonzero terms, in index order."""
        keys = _layout(*self.bidegree)[1]
        return [(e, c) for e, c in zip(keys, self.coeffs) if c]

    @property
    def terms(self):
        """The nonzero coefficients, keyed by (i, j)."""
        return dict(self._nonzero())

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BiForm)
            and self.bidegree == other.bidegree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.bidegree, tuple(self._nonzero())))

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.bidegree != other.bidegree:
            raise NotHomogeneous(
                "adding biforms of bidegrees %r and %r"
                % (self.bidegree, other.bidegree)
            )
        # a zero summand keeps the other coefficient object as it is
        return BiForm._dense(
            self.bidegree,
            [
                (a + b if b else a) if a else b
                for a, b in zip(self.coeffs, other.coeffs)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiForm._dense(
            self.bidegree, [-c if c else ZERO for c in self.coeffs]
        )

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return BiForm.zero(self.bidegree)
        return BiForm._dense(
            self.bidegree, [c * v if v else ZERO for v in self.coeffs]
        )

    def __mul__(self, other):
        if not isinstance(other, BiForm):
            return self.scale(other)
        (a1, a2), (b1, b2) = self.bidegree, other.bidegree
        # in the product's rows of width w, index (i1 + i2) * w + (j1 + j2)
        # is the sum of the factors' indices remapped to that width
        w = a2 + b2 + 1
        right = [
            (k + k // (b2 + 1) * (w - b2 - 1), c)
            for k, c in enumerate(other.coeffs)
            if c
        ]
        coeffs = [ZERO] * ((a1 + b1 + 1) * w)
        for k1, c1 in enumerate(self.coeffs):
            if c1:
                base = k1 + k1 // (a2 + 1) * (w - a2 - 1)
                for k2, c2 in right:
                    coeffs[base + k2] += c1 * c2
        return BiForm._dense((a1 + b1, a2 + b2), coeffs)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, BiForm((0, 0), {(0, 0): ONE}))

    def quotient(self, g):
        """The exact quotient self / g, or None when g does not divide self.

        The division (``arith.quotient_terms``) runs on the full exponents
        (i, d1 - i, j, d2 - j) of s, t, u and v, so that a power of t, a
        constant in (i, j), divides only what its exponents do.
        """
        (d1, d2), (e1, e2) = self.bidegree, g.bidegree
        if e1 > d1 or e2 > d2:
            return None
        q = quotient_terms(
            {(i, d1 - i, j, d2 - j): c for (i, j), c in self._nonzero()},
            {(i, e1 - i, j, e2 - j): c for (i, j), c in g._nonzero()},
        )
        if q is None:
            return None
        return BiForm((d1 - e1, d2 - e2), {(i, j): c for (i, _t, j, _v), c in q.items()})

    def involution(self):
        """Swap the rulings: (s,t) <-> (u,v); bidegree (d1,d2) -> (d2,d1)."""
        d1, d2 = self.bidegree
        w = d2 + 1
        return BiForm._dense(
            (d2, d1), [c for j in range(w) for c in self.coeffs[j::w]]
        )

    def specialize_second(self, u0, v0):
        """Plug (u,v) = (u0,v0); returns the (s,t) binary form coefficients.

        The result is a list c of length d1+1 with c[i] the coefficient of
        s^i t^(d1-i).
        """
        d1, d2 = self.bidegree
        u0, v0 = QQ(u0), QQ(v0)
        coeffs = [ZERO] * (d1 + 1)
        for (i, j), coeff in self._nonzero():
            coeffs[i] = coeffs[i] + coeff * u0**j * v0 ** (d2 - j)
        return BinForm(d1, coeffs)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        return "BiForm(%s)" % biform_to_str(self)


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


class ProjPoint:
    """Point of P^1, P^2 or P^3; coordinates rational or in one number field.

    A point with number-field coordinates stands for the full Galois orbit
    of conjugate points wherever node lists are consumed.
    """

    __slots__ = ("coords", "field")

    def __init__(self, coords):
        coords = list(coords)
        if not 2 <= len(coords) <= 4:
            raise ValueError("points have 2 to 4 coordinates")
        field = None
        for c in coords:
            if isinstance(c, NFElem):
                if field is not None and c.owner != field:
                    raise FieldMismatch("coordinates from different fields")
                field = c.owner
        if field is None:
            coords = [QQ(c) for c in coords]
        else:
            coords = [field.coerce(c) for c in coords]
        if all(scalar_is_zero(c) for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        self.coords = tuple(coords)
        self.field = field

    def orbit_size(self):
        return 1 if self.field is None else self.field.degree

    def last_nonzero(self):
        for i in range(len(self.coords) - 1, -1, -1):
            if not scalar_is_zero(self.coords[i]):
                return i
        raise AssertionError("zero point")

    def canonical_key(self):
        """Hashable projective normal form: last nonzero coordinate = 1."""
        i = self.last_nonzero()
        c = self.coords[i]
        inv = (ONE / c) if self.field is None else c.inv()
        return tuple(x * inv for x in self.coords)

    def eq_proj(self, other):
        if self.field is not None or other.field is not None:
            if self.field != other.field:
                return False
        if len(self.coords) != len(other.coords):
            return False
        return self.canonical_key() == other.canonical_key()

    def affine(self, chart=None):
        """Coordinates scaled so the chart coordinate equals one."""
        if chart is None:
            chart = self.last_nonzero()
        c = self.coords[chart]
        if scalar_is_zero(c):
            raise ValueError("point not in this chart")
        inv = (ONE / c) if self.field is None else c.inv()
        return [x * inv for x in self.coords]

    def primitive(self):
        """For rational points: primitive integer coordinates."""
        if self.field is not None:
            raise FieldMismatch("primitive() needs rational coordinates")
        return primitive_vector(self.coords)

    def __repr__(self):
        if self.field is None:
            return "(%s)" % " : ".join(rat_str(c) for c in self.primitive())
        return "(%s)" % " : ".join(str(c) for c in self.coords)


def point(*coords):
    return ProjPoint(coords)


# ---------------------------------------------------------------------------
# substitution, transforms, differentiation helpers
# ---------------------------------------------------------------------------


def substitute_form(f, images):
    """f(images): substitute each variable by its image, exactly.

    The images are all ``Form``s, all ``BinForm``s or all ``BiForm``s of one
    degree k (or bidegree), so the composite is again homogeneous, of degree
    d k for d = deg f, and of the images' kind.  A zero f gives the zero of
    that kind and degree; a nonzero constant cannot be substituted.

    Expanded in integers.  Image i is scaled to an integer polynomial P_i by
    the lcm s_i of its denominators, and the coefficients of f are put over
    one denominator D, c_e = a_e / D.  Then

        f(images) = sum_e a_e prod_i s_i^(d - e_i) P_i^(e_i) / (D prod_i s_i^d),

    so the powers of each P_i are built once as integer polynomials, every
    term is an integer product, and the one division happens at the end;
    the result is exact.  Exponents are packed into one integer key whose
    digits in base d k + 1 (the largest exponent of the result, plus one)
    are the exponents, so multiplying monomials is adding keys.
    """
    vals = [images[v] for v in f.variables]
    kind = type(vals[0])
    if kind not in (Form, BinForm, BiForm) or any(type(v) is not kind for v in vals):
        raise InhomogeneousImage("images must all be Form, all BinForm or all BiForm")
    d = f.degree
    if kind is Form:
        if len({(v.variables, v.degree) for v in vals}) != 1:
            raise InhomogeneousImage("images of mixed degree")
        variables, k = vals[0].variables, vals[0].degree
        base = d * k + 1
        places = [base**j for j in range(len(variables))]
        rows = [
            [(sum(e * p for e, p in zip(expo, places)), c)
             for expo, c in v.terms.items()]
            for v in vals
        ]

        def build(coeffs):
            return Form(
                variables,
                d * k,
                {_unpacked(key, base, len(variables)): c for key, c in coeffs.items()},
            )

    elif kind is BinForm:
        if len({v.degree for v in vals}) != 1:
            raise InhomogeneousImage("images of mixed degree")
        k = vals[0].degree
        # the key of s^i t^(k - i) is i, the index of its coefficient
        rows = [[(i, c) for i, c in enumerate(v.coeffs) if c] for v in vals]

        def build(coeffs):
            return BinForm(d * k, [coeffs.get(i, ZERO) for i in range(d * k + 1)])

    else:
        if len({v.bidegree for v in vals}) != 1:
            raise InhomogeneousImage("images of mixed bidegree")
        k1, k2 = vals[0].bidegree
        # the key of (i, j) is its index in the result's dense layout
        w = d * k2 + 1
        rows = [[(i * w + j, c) for (i, j), c in v._nonzero()] for v in vals]

        def build(coeffs):
            dense = [coeffs.get(i, ZERO) for i in range((d * k1 + 1) * w)]
            return BiForm._dense((d * k1, d * k2), dense)

    if f.is_zero():
        return build({})
    if d == 0:
        raise InhomogeneousImage("constant form cannot be substituted")
    scales = []
    powers = []
    top = [max(expo[i] for expo in f.terms) for i in range(len(vals))]
    for row, e_max in zip(rows, top):
        s = math.lcm(*(c.denominator for _, c in row))
        scales.append(s)
        poly = {key: c.numerator * (s // c.denominator) for key, c in row}
        pw = [{0: 1}]
        for _ in range(e_max):
            pw.append(_packed_mul(pw[-1], poly))
        powers.append(pw)
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    total = {}
    for expo, c in f.terms.items():
        scalar = c.numerator * (den // c.denominator)
        for s, e in zip(scales, expo):
            scalar *= s ** (d - e)
        term = {0: scalar}
        for pw, e in zip(powers, expo):
            if e:
                term = _packed_mul(term, pw[e])
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    den *= math.prod(scales) ** d
    # equal coefficients share one object (a kept pullback has ~d^2/2
    # mirrored pairs of them)
    values = {v: QQ(v, den) for v in set(total.values()) if v}
    return build({key: values[v] for key, v in total.items() if v})


def compose_form(f, matrix):
    """f(M x): substitute variable i by the linear form with row M[i]."""
    if f.is_zero():
        return f
    n = len(f.variables)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    images = {
        v: Form(f.variables, 1, {units[j]: c for j, c in enumerate(row)})
        for v, row in zip(f.variables, matrix)
    }
    return substitute_form(f, images)


def _packed_terms(terms, places):
    """A form's terms as integers keyed by packed exponents (digit j of a key
    in base ``places[1]`` is exponent j), and their common denominator."""
    nums, den = over_common_denominator(list(terms.values()))
    return {sum(map(mul, expo, places)): c for expo, c in zip(terms, nums)}, den


def _unpacked(key, base, nvars):
    """The exponent vector whose packed key in base ``base`` is ``key``."""
    expo = []
    for _ in range(nvars):
        key, e = divmod(key, base)
        expo.append(e)
    return tuple(expo)


def _unpacked_form(variables, degree, packed, den):
    """The form of degree ``degree`` with coefficients packed[key] / den."""
    base = degree + 1
    terms = {}
    for key, v in packed.items():
        if v:
            expo = _unpacked(key, base, len(variables))
            terms[_EXPONENTS.setdefault(expo, expo)] = QQ(v, den)
    return Form._clean(variables, degree, terms)


def _packed_mul(a, b):
    """Product of two integer polynomials keyed by packed exponent vectors."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return out


def transform_point(matrix, p):
    """Apply a rational matrix to a point (works over number fields too).

    A row whose length is not the point's dimension raises FieldMismatch.
    """
    if any(len(row) != len(p.coords) for row in matrix):
        raise FieldMismatch("point/matrix dimension mismatch")
    if p.field is None:
        return ProjPoint(mat_vec(matrix, list(p.coords)))
    rows = []
    for row in matrix:
        acc = p.field.zero()
        for c, x in zip(row, p.coords):
            acc = acc + x * QQ(c)
        rows.append(acc)
    return ProjPoint(rows)


# ---------------------------------------------------------------------------
# parser / printer
# ---------------------------------------------------------------------------

_OPS = set("+-*^()")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                den = int(text[j + 1 : k])
                if den == 0:
                    raise ParseError("zero denominator", i)
                tokens.append(("rat", QQ(num) / QQ(den), i))
                i = k
            else:
                tokens.append(("int", QQ(num), i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


def _split_name_run(run, variables, pos):
    """Greedy longest-match split of a letter run into declared variables."""
    out = []
    rest = run
    offset = 0
    while rest:
        best = None
        for v in variables:
            if rest.startswith(v) and (best is None or len(v) > len(best)):
                best = v
        if best is None:
            raise ParseError(
                "unknown variable %r (declared: %s)" % (rest, ", ".join(variables)),
                pos + offset,
            )
        out.append(best)
        offset += len(best)
        rest = rest[len(best) :]
    return out


# Parentheses nest at most this deep: each level costs the recursive
# descent three stack frames, and deeper input would exhaust the stack.
MAX_NESTING = 200


class _Parser:
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)
        self.nvars = len(variables)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, at)

    # raw polynomials: dict exponent tuple -> coefficient (not nec. homogeneous)
    def _raw_const(self, c):
        return {(0,) * self.nvars: QQ(c)} if c != 0 else {}

    def _raw_add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            v = out.get(e, ZERO) + c
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
        return out

    def _raw_mul(self, a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = out.get(e, ZERO) + c1 * c2
                if v == 0:
                    out.pop(e, None)
                else:
                    out[e] = v
        return out

    def _raw_pow(self, a, k):
        out = self._raw_const(1)
        for _ in range(k):
            out = self._raw_mul(out, a)
        return out

    def parse_expr(self):
        # leading signs are absorbed by parse_factor
        sign = 1
        acc = None
        while True:
            term = self.parse_term()
            if sign < 0:
                term = {e: -c for e, c in term.items()}
            acc = term if acc is None else self._raw_add(acc, term)
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                sign = 1 if val == "+" else -1
                continue
            return acc

    def parse_term(self):
        acc, _ = self.parse_factor()
        while True:
            kind, val, _at = self.peek()
            if kind == "op" and val == "*":
                self.next()
                nxt, _ = self.parse_factor()
                acc = self._raw_mul(acc, nxt)
            elif kind == "name":
                # juxtaposition, e.g. "4xy" or "x^2y"
                nxt, _ = self.parse_factor()
                acc = self._raw_mul(acc, nxt)
            else:
                return acc

    def _parse_exponent(self):
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, at = self.next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", at)
            e = int(val.numerator)
            if val.denominator != 1:
                raise ParseError("exponent must be an integer", at)
            return e
        return None

    def parse_factor(self):
        sign = QQ(1)
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
                continue
            break
        kind, val, at = self.next()
        if kind in ("int", "rat"):
            e = self._parse_exponent()
            c = val**e if e is not None else val
            return self._raw_const(sign * c), True
        if kind == "name":
            names = _split_name_run(val, self.variables, at)
            expo = [0] * self.nvars
            for nm in names[:-1]:
                expo[self.variables.index(nm)] += 1
            e = self._parse_exponent()
            expo[self.variables.index(names[-1])] += e if e is not None else 1
            return {tuple(expo): sign}, False
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    "parentheses nest deeper than %d levels" % MAX_NESTING, at
                )
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            e = self._parse_exponent()
            if e is not None:
                inner = self._raw_pow(inner, e)
            if sign < 0:
                inner = {k: -c for k, c in inner.items()}
            return inner, False
        raise ParseError("unexpected token", at)


def _monomial_str(variables, expo, coeff=None):
    parts = []
    if coeff is not None:
        parts.append(rat_str(coeff))
    for v, e in zip(variables, expo):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append("%s^%d" % (v, e))
    return "*".join(parts) if parts else "1"


def parse_polynomial_raw(text, variables):
    """Parse to a raw exponent-to-coefficient map (homogeneity not enforced)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, variables)
    raw = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", at)
    return raw


def parse_univariate(text):
    """Parse a univariate polynomial in the generator ``a`` into a UPoly."""
    raw = parse_polynomial_raw(text, (GENERATOR,))
    if not raw:
        return UPoly.zero()
    degree = max(e[0] for e in raw)
    coeffs = [ZERO] * (degree + 1)
    for (e,), c in raw.items():
        coeffs[e] = c
    return UPoly(coeffs)


def parse_form(text, variables):
    """Parse the grammar into a homogeneous Form; exact round trip with print."""
    raw = parse_polynomial_raw(text, variables)
    if not raw:
        raise NotHomogeneous("the zero polynomial has no defined degree")
    degrees = {sum(e) for e in raw}
    if len(degrees) != 1:
        ordered = sorted(raw, key=sum)
        a, b = ordered[0], ordered[-1]
        raise NotHomogeneous(
            "mixed degrees: %s (degree %d) vs %s (degree %d)"
            % (
                _monomial_str(variables, a, raw[a]),
                sum(a),
                _monomial_str(variables, b, raw[b]),
                sum(b),
            )
        )
    return Form(variables, degrees.pop(), raw)


def form_to_str(f):
    """Deterministic rendering, graded-lex descending; parses back exactly."""
    return signed_sum(
        (_monomial_str(f.variables, expo), coeff) for expo, coeff in f.sorted_terms()
    )


def biform_to_str(f):
    d1, d2 = f.bidegree
    return signed_sum(
        (_monomial_str("stuv", (i, d1 - i, j, d2 - j)), coeff)
        for (i, j), coeff in f.sorted_terms()
    )


def w_slices(form):
    """The coefficient forms of w^0, ..., w^d of a form of degree d in
    (x, y, z, w), as plane forms: slice k has degree d - k."""
    slices = [{} for _ in range(form.degree + 1)]
    for (ex, ey, ez, ew), c in form.terms.items():
        slices[ew][(ex, ey, ez)] = c
    return [Form(PLANE_VARS, form.degree - k, t) for k, t in enumerate(slices)]
