"""Homogeneous forms over the rationals, biforms on P1 x P1, and points.

Forms are sparse term maps from exponent vectors to rational coefficients,
always homogeneous; a biform keeps a dense tuple of its coefficients and
shows the same term map as ``terms``.  The text grammar accepted by
``parse_form`` is the wire format used by the CLI.  Printing iterates terms
in descending graded-lexicographic order so output is reproducible, and
``parse_form(form_to_str(f)) == f`` exactly.
"""

import itertools

from .arith import NFElem, scalar_is_zero
from .errors import (
    FieldMismatch,
    InhomogeneousImage,
    NotHomogeneous,
    ParseError,
)
from .linalg import mat_vec, primitive_vector
from .scalars import QQ, ZERO, ONE, rat_str


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


def plane_basis_size(degree):
    return (degree + 1) * (degree + 2) // 2


# Every Form keys its terms by the same exponent tuple objects: own key
# tuples would be about a third of the memory of a form that is kept.
_EXPONENTS = {}


class Form:
    """Homogeneous multivariate form in 3 or 4 variables over QQ."""

    __slots__ = ("variables", "degree", "terms")

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

    # -- constructors
    @classmethod
    def zero(cls, variables, degree):
        return cls(variables, degree, {})

    @classmethod
    def monomial(cls, variables, expo, coeff=ONE):
        return cls(variables, sum(expo), {tuple(expo): coeff})

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
            terms[e] = terms.get(e, ZERO) + c
        return Form(self.variables, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(
            self.variables, self.degree, {e: -c for e, c in self.terms.items()}
        )

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return Form.zero(self.variables, self.degree)
        return Form(
            self.variables, self.degree, {e: c * v for e, v in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, Form):
            return self.scale(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, ZERO) + c1 * c2
        return Form(self.variables, self.degree + other.degree, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Form(self.variables, 0, {(0,) * len(self.variables): ONE})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, coords):
        """Exact value at coordinates (rationals or NFElem of one field)."""
        if len(coords) != len(self.variables):
            raise FieldMismatch(
                "point has %d coordinates, form has %d variables"
                % (len(coords), len(self.variables))
            )
        total = None
        for expo, coeff in sorted(self.terms.items()):
            term = coeff
            for c, e in zip(coords, expo):
                if e:
                    term = term * c**e
            total = term if total is None else total + term
        if total is None:
            first = coords[0]
            return first * 0 if isinstance(first, NFElem) else ZERO
        return total

    def partial(self, i):
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            e = list(expo)
            e[i] -= 1
            terms[tuple(e)] = coeff * expo[i]
        return Form(self.variables, max(self.degree - 1, 0), terms)

    def partials(self):
        return [self.partial(i) for i in range(len(self.variables))]

    def coefficient_vector(self, basis=None):
        if basis is None:
            basis = monomial_basis(len(self.variables), self.degree)
        return [self.terms.get(e, ZERO) for e in basis]

    @classmethod
    def from_coefficient_vector(cls, variables, degree, vec):
        basis = monomial_basis(len(variables), degree)
        return cls(variables, degree, dict(zip(basis, vec)))

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
        d1 = self.bidegree[0] + other.bidegree[0]
        d2 = self.bidegree[1] + other.bidegree[1]
        # index (i1 + i2) * w + (j1 + j2) is the sum of the factors' indices
        w = d2 + 1
        left = [(i * w + j, c) for (i, j), c in self._nonzero()]
        right = [(i * w + j, c) for (i, j), c in other._nonzero()]
        coeffs = [ZERO] * ((d1 + 1) * w)
        for k1, c1 in left:
            for k2, c2 in right:
                k = k1 + k2
                coeffs[k] = coeffs[k] + c1 * c2
        return BiForm._dense((d1, d2), coeffs)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = BiForm((0, 0), {(0, 0): ONE})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def involution(self):
        """Swap the rulings: (s,t) <-> (u,v); bidegree (d1,d2) -> (d2,d1)."""
        d1, d2 = self.bidegree
        w = d2 + 1
        return BiForm._dense(
            (d2, d1), [c for j in range(w) for c in self.coeffs[j::w]]
        )

    def eval(self, s, t, u, v):
        d1, d2 = self.bidegree
        total = None
        for (i, j), coeff in self._nonzero():
            term = coeff * s**i * t ** (d1 - i) * u**j * v ** (d2 - j)
            total = term if total is None else total + term
        return ZERO if total is None else total

    def specialize_second(self, u0, v0):
        """Plug (u,v) = (u0,v0); returns the (s,t) binary form coefficients.

        The result is a list c of length d1+1 with c[i] the coefficient of
        s^i t^(d1-i).
        """
        from .arith import BinForm

        d1, d2 = self.bidegree
        u0, v0 = QQ(u0), QQ(v0)
        coeffs = [ZERO] * (d1 + 1)
        for (i, j), coeff in self._nonzero():
            coeffs[i] = coeffs[i] + coeff * u0**j * v0 ** (d2 - j)
        return BinForm(d1, coeffs)

    def coefficient_vector(self, basis=None):
        if basis is None:
            basis = biform_basis(*self.bidegree)
        terms = self.terms
        return [terms.get(e, ZERO) for e in basis]

    @classmethod
    def from_coefficient_vector(cls, bidegree, vec):
        basis = biform_basis(*bidegree)
        return cls(bidegree, dict(zip(basis, vec)))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        return "BiForm(%s)" % biform_to_str(self)


def biform_basis(d1, d2):
    """(i, j) exponent pairs in deterministic descending order."""
    return [
        (i, j) for i in range(d1, -1, -1) for j in range(d2, -1, -1)
    ]


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

    def dim(self):
        return len(self.coords) - 1

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
    """Ring-homomorphism substitution variable -> Form/BiForm.

    All images must share a degree pattern (same class, same degree or
    bidegree) so the composite is again (bi)homogeneous.
    """
    vals = [images[v] for v in f.variables]
    kinds = {type(v) for v in vals}
    if len(kinds) != 1:
        raise InhomogeneousImage("images must all be Form or all BiForm")
    if isinstance(vals[0], Form):
        degs = {v.degree for v in vals}
        varsets = {v.variables for v in vals}
        if len(degs) != 1 or len(varsets) != 1:
            raise InhomogeneousImage("images of mixed degree")
        img_deg = vals[0].degree
        acc = Form.zero(vals[0].variables, f.degree * img_deg)
    else:
        bidegs = {v.bidegree for v in vals}
        if len(bidegs) != 1:
            raise InhomogeneousImage("images of mixed bidegree")
        d1, d2 = vals[0].bidegree
        acc = BiForm.zero((f.degree * d1, f.degree * d2))
    powers = [dict() for _ in vals]

    def power(i, e):
        cache = powers[i]
        if e not in cache:
            cache[e] = vals[i] ** e
        return cache[e]

    for expo, coeff in f.sorted_terms():
        term = None
        for i, e in enumerate(expo):
            if e == 0:
                continue
            p = power(i, e)
            term = p if term is None else term * p
        if term is None:
            raise InhomogeneousImage("constant form cannot be substituted")
        acc = acc + term.scale(coeff)
    return acc


def compose_form(f, matrix):
    """f(M x): substitute variable i by the linear form with row M[i]."""
    variables = f.variables
    images = {}
    for i, v in enumerate(variables):
        terms = {}
        for j in range(len(variables)):
            expo = tuple(1 if k == j else 0 for k in range(len(variables)))
            c = QQ(matrix[i][j])
            if c != 0:
                terms[expo] = c
        images[v] = Form(variables, 1, terms)
    if f.is_zero():
        return f
    return substitute_form(f, images)


def transform_point(matrix, p):
    """Apply a rational matrix to a point (works over number fields too)."""
    if p.field is None:
        return ProjPoint(mat_vec(matrix, list(p.coords)))
    rows = []
    for row in matrix:
        acc = p.field.zero()
        for c, x in zip(row, p.coords):
            acc = acc + x * QQ(c)
        rows.append(acc)
    return ProjPoint(rows)


def euler_check(f):
    """Euler identity: sum_i x_i df/dx_i == deg(f) * f."""
    n = len(f.variables)
    total = Form.zero(f.variables, f.degree)
    for i in range(n):
        xi = Form.variable(f.variables, f.variables[i])
        total = total + xi * f.partial(i)
    return total == f.scale(f.degree)


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


class _Parser:
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
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
            inner = self.parse_expr()
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


def parse_univariate(text, name="a"):
    """Parse a univariate polynomial in the named variable into a UPoly."""
    from .arith import UPoly

    raw = parse_polynomial_raw(text, (name,))
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
    if f.is_zero():
        return "0"
    chunks = []
    for expo, coeff in f.sorted_terms():
        mono = _monomial_str(f.variables, expo)
        if mono == "1":
            body = rat_str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = "%s*%s" % (rat_str(abs(coeff)), mono)
        chunks.append(("-" if coeff < 0 else "+", body))
    first_sign, first_body = chunks[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += " %s %s" % (sign, body)
    return out


def biform_to_str(f):
    if f.is_zero():
        return "0"
    d1, d2 = f.bidegree
    chunks = []
    for (i, j), coeff in f.sorted_terms():
        parts = []
        if i:
            parts.append("s^%d" % i if i > 1 else "s")
        if d1 - i:
            parts.append("t^%d" % (d1 - i) if d1 - i > 1 else "t")
        if j:
            parts.append("u^%d" % j if j > 1 else "u")
        if d2 - j:
            parts.append("v^%d" % (d2 - j) if d2 - j > 1 else "v")
        mono = "*".join(parts) if parts else "1"
        if mono == "1":
            body = rat_str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = "%s*%s" % (rat_str(abs(coeff)), mono)
        chunks.append(("-" if coeff < 0 else "+", body))
    first_sign, first_body = chunks[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += " %s %s" % (sign, body)
    return out


def all_monomial_points(height, dim):
    """Deterministic enumeration of primitive rational points by height."""
    seen = set()
    for h in range(1, height + 1):
        for coords in itertools.product(range(-h, h + 1), repeat=dim + 1):
            if max(abs(c) for c in coords) != h and h != 1:
                continue
            if all(c == 0 for c in coords):
                continue
            p = ProjPoint([QQ(c) for c in coords])
            key = tuple(QQ(c) for c in p.primitive())
            if key in seen:
                continue
            seen.add(key)
            yield p
