"""Truncated formal series in hbar over exact rationals.

One number convention holds in every module: an integral value is an
`int`, any other rational is a `Fraction`, and no value is ever a float.
`canonical(x)` puts a rational in that form and `quotient(a, den)`
divides exactly into it.  Every stored coefficient, every HSeries
operation and every `linalg` output keeps it, so a kernel whose values
are integral sums on ints and builds no Fraction at all.  Nothing in
the package uses true division: `/` of two ints would be a float.

All arithmetic is exact modulo hbar^(N+1).  Mixing two series of different
truncation orders is allowed and truncates to the smaller order, which is
the canonical quotient map between the two rings.

`HSeries` is the scalar ring; `SparseSeries` is the common base of every
sparse element over it (algebraic and formal twists, classical
cochains): a map from monomial keys to HSeries coefficients.

Every product kernel works one hbar layer at a time.  It reads its
factors through `SparseSeries.layer_terms`, one (key, value, power,
weight) entry per nonzero hbar coefficient sorted by weight, accumulates
one {key: value} dict per output hbar power, and builds each output
key's HSeries once, through `from_layers`.  A pair of entries whose
weights add up to more than the product's order N contributes nothing
mod hbar^(N+1), so the inner loop stops at the first such pair.  The
weight is the hbar power; a formal twist adds the leg degree, the
grading of its truncation triangle.  Every stored coefficient has
exactly its element's order, so a kernel's output layers run from 0 to
its order N.

The product kernels (b, cup, brace, the twist residual and the
slotwise products) compute on Python ints: `SparseSeries.int_layer_terms`
gives the same entries scaled by the lcm D of the element's denominators
(the entries themselves when D = 1), they multiply through
`UEnvelope.straighten`, whose integral coefficients are ints, and
`from_layers(..., den=)` divides each output coefficient once, exactly,
by the product of the factors' D.  The integer sums are D times the
rational sums, so they vanish at the same steps: values and key order
are those of rational kernels.  A rational structure constant stays a
Fraction in `straighten`, and an int times a Fraction is a Fraction, so
the same path serves it.

Every linear map works on the same layers: `SparseSeries.map_keys`
sends each (key, value, power) entry through f(key), which yields
(image key, hbar power, rational), and builds the image through
`from_layers`.  So this module alone knows that a coefficient is stored
as a per-key HSeries.

Closed arithmetic builds its result once: sums of one type and order,
negation and nonzero rational scaling store their terms directly
(`SparseSeries._direct`), as their operands' terms are already
normalized, and so does `from_layers` (keys aside) except for a formal
twist, whose triangle the constructor cuts.  Mixed orders, mixed types
and scaling by zero or by an HSeries go through the constructor.
Equality and subtraction read the stored terms: at one order `==`
compares the two term dicts, with no difference built, and `-`
subtracts each shared coefficient in one pass, with no negated copy of
the subtrahend.  Scaling by 1 or -1 is self or -self.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub

from .errors import GradingMismatch


def canonical(x):
    """The rational x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def quotient(a, den: int):
    """a / den, exactly and in canonical form, for an int den > 0.

    a is an int or a Fraction.  An exact division costs one divmod and
    builds no Fraction.
    """
    q, r = divmod(a, den)
    return Fraction(a, den) if r else q


def add_into(acc: dict, key, val):
    """acc[key] += val, dropping the key when the sum is zero.

    Serves rational and HSeries values alike; an HSeries sum
    keeps the smaller truncation order of its summands.
    """
    old = acc.get(key)
    if old is not None:
        val = old + val
    if val:
        acc[key] = val
    elif old is not None:
        del acc[key]


class HSeries:
    """Element of Q[hbar]/(hbar^(N+1)), coefficients in canonical form."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int, *, normalized: bool = False):
        """normalized: coeffs is already a tuple of order + 1 canonical
        rationals (see `canonical`)."""
        if not normalized:
            coeffs = tuple(map(canonical, coeffs))
            if len(coeffs) < order + 1:
                coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
            elif len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
        self.coeffs = coeffs
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "HSeries":
        return cls((), order)

    @classmethod
    def constant(cls, c, order: int) -> "HSeries":
        return cls((c,), order)

    @classmethod
    def hbar(cls, order: int, power: int = 1, coeff=1) -> "HSeries":
        if power > order:
            return cls.zero(order)
        return cls((0,) * power + (coeff,), order)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def valuation(self):
        """Smallest n with nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if c != 0:
                return n
        return None

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "HSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, HSeries):
            other = HSeries.constant(other, self.order)
        # map stops at the shorter tuple, the common order
        return HSeries(tuple(map(canonical, map(add, self.coeffs,
                                                other.coeffs))),
                       self._common(other), normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return HSeries(tuple(-c for c in self.coeffs), self.order,
                       normalized=True)

    def __sub__(self, other):
        if not isinstance(other, HSeries):
            other = HSeries.constant(other, self.order)
        return HSeries(tuple(map(canonical, map(sub, self.coeffs,
                                                other.coeffs))),
                       self._common(other), normalized=True)

    def __rsub__(self, other):
        return HSeries.constant(other, self.order) - self

    def __mul__(self, other):
        if not isinstance(other, HSeries):
            c = canonical(other)
            return HSeries(tuple(canonical(a * c) for a in self.coeffs),
                           self.order, normalized=True)
        n = self._common(other)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return HSeries(out, n)

    __rmul__ = __mul__

    def coeff(self, n: int):
        if n > self.order:
            return 0
        return self.coeffs[n]

    def truncate(self, order: int) -> "HSeries":
        return HSeries(self.coeffs, min(order, self.order))

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, HSeries):
            n = self._common(other)
            return self.coeffs[: n + 1] == other.coeffs[: n + 1]
        return self == HSeries.constant(other, self.order)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            elif n == 1:
                terms.append(f"{c}*h" if c != 1 else "h")
            else:
                terms.append(f"{c}*h^{n}" if c != 1 else f"h^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"HSeries({body}; N={self.order})"


class SparseSeries:
    """Sparse element {monomial key: HSeries} truncated mod hbar^(order+1).

    Subclasses fix the space.  `_space` names the attributes that come
    before `terms` in the constructor, so that
    `type(self)(*space values, terms, order)` builds an element of the
    same space; an `arity` attribute, where there is one, must agree
    between summands.  The constructor takes HSeries or rational
    coefficients, truncates longer series to `order` and drops zeros, so
    every stored coefficient is a nonzero HSeries of exactly the
    element's order; a shorter series raises GradingMismatch.  Results
    that hold this already (see the module docstring) skip it through
    `_direct`.
    Elements are never mutated after construction.
    """

    __slots__ = ("terms", "order", "_vkey", "_layered", "_int_layered")
    _space: tuple = ()
    # a formal twist weighs its terms by hbar power plus leg degree and
    # keeps only those of weight at most its order
    _leg_weighted = False

    def __init__(self, terms: dict, order: int):
        self.order = order
        self.terms = out = {}
        key = self._key
        leg = self._leg_weighted
        for k, c in terms.items():
            if not isinstance(c, HSeries):
                c = HSeries.constant(c, order)
            elif c.order != order:
                if c.order < order:
                    raise GradingMismatch(
                        f"coefficient of order {c.order} in an element "
                        f"of order {order}"
                    )
                c = c.truncate(order)
            k = key(k)
            if leg and k[-1]:
                # keep the triangle: hbar power + leg degree <= order
                cap = max(order + 1 - len(k[-1]), 0)
                if any(c.coeffs[cap:]):
                    c = HSeries(c.coeffs[:cap], c.order)
            if not c.is_zero():
                out[k] = c

    def _key(self, key):
        """Normalize and validate a monomial key given to the constructor."""
        return key

    def _space_values(self):
        return [getattr(self, a) for a in self._space]

    def _like(self, terms: dict, order: int):
        return type(self)(*self._space_values(), terms, order)

    @classmethod
    def _direct(cls, space, terms: dict, order: int):
        """cls(*space, terms, order) with terms stored as they are.

        For closed arithmetic, whose terms are already what the
        constructor would store: normalized keys, nonzero HSeries
        coefficients of order `order`, on the triangle.
        """
        new = cls.__new__(cls)
        for a, v in zip(cls._space, space):
            setattr(new, a, v)
        new.terms = terms
        new.order = order
        return new

    @classmethod
    def from_layers(cls, *args, den=None):
        """An element of cls(*space) from per-power coefficient dicts.

        layers[n] = {key: rational} holds the nonzero hbar^n
        coefficients, and the element's order is len(layers) - 1; every
        key's HSeries is built once, in canonical form, straight from
        its row of coefficients.  With den given, layers[n] holds den
        times them (as ints, or Fractions where a factor was rational),
        and each is divided by den once (`quotient`).  The keys are a
        kernel's, built from validated ones: where the space has an
        arity, only their width is checked.  A formal twist, whose
        triangle the constructor cuts, goes through the constructor.
        """
        *space, layers = args
        order = len(layers) - 1
        scaled = den is not None and den != 1
        rows: dict = {}
        for n, layer in enumerate(layers):
            for k, a in layer.items():
                if scaled:
                    a = quotient(a, den)
                elif type(a) is not int:
                    a = canonical(a)
                row = rows.get(k)
                if row is None:
                    rows[k] = row = [0] * (order + 1)
                row[n] = a
        if cls._leg_weighted:
            terms = {k: HSeries(tuple(row), order, normalized=True)
                     for k, row in rows.items()}
            return cls(*space, terms, order)
        # no triangle cuts a series: only the keys' width needs the
        # constructor's check, and each row is replaced by its HSeries
        # in place
        new = cls._direct(space, rows, order)
        arity = getattr(new, "arity", None)
        zero_rows = []
        for k, row in rows.items():
            if arity is not None and len(k) != arity + 1:
                new._key(k)  # raises GradingMismatch
            if any(row):
                rows[k] = HSeries(tuple(row), order, normalized=True)
            else:
                zero_rows.append(k)
        for k in zero_rows:
            del rows[k]
        return new

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other with each coefficient negated."""
        if getattr(self, "arity", None) != getattr(other, "arity", None):
            # zero is compatible with every arity (degenerate
            # compositions); the sum still has the smaller order
            if self.is_zero():
                return (-other if negate else other).truncate(self.order)
            if other.is_zero():
                return self.truncate(other.order)
            raise GradingMismatch("arity mismatch in sum")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            old = terms.get(k)
            if old is not None:
                c = old - c if negate else old + c
            elif negate:
                c = -c
            if c:
                terms[k] = c
            elif old is not None:
                del terms[k]
        if type(other) is type(self) and other.order == self.order:
            return self._direct(self._space_values(), terms, self.order)
        return self._like(terms, min(self.order, other.order))

    def __neg__(self):
        return self._direct(
            self._space_values(),
            {k: -c for k, c in self.terms.items()}, self.order,
        )

    def scale(self, c):
        """Multiply every coefficient by a rational or an HSeries.

        Scaling by an HSeries truncates to the smaller of the two
        orders.  Scaling by the rational 1 returns self and by -1
        returns -self: elements are immutable, so the result may share
        self.
        """
        if isinstance(c, HSeries):
            return self._like({k: v * c for k, v in self.terms.items()},
                              min(self.order, c.order))
        if not c:
            return self._like({}, self.order)
        if c == 1:
            return self
        if c == -1:
            return -self
        return self._direct(
            self._space_values(),
            {k: v * c for k, v in self.terms.items()}, self.order,
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        """Whether self - other is zero, read off the stored terms.

        At one order the difference vanishes exactly when both elements
        store the same keys with equal coefficients: stored coefficients
        are nonzero, and HSeries equality, like HSeries subtraction,
        works up to the common order of the two series.  Mixed orders
        take the difference, which truncates to the smaller order.
        Elements of different arities are equal only when both are zero.
        """
        if type(other) is not type(self):
            return NotImplemented
        if getattr(self, "arity", None) != getattr(other, "arity", None):
            return self.is_zero() and other.is_zero()
        if self.order == other.order:
            return self.terms == other.terms
        return self._sum(other, True).is_zero()

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    # -- hbar layers -------------------------------------------------------

    def layer(self, n: int) -> dict:
        """The hbar^n coefficients as {key: rational}, zeros left out."""
        if n > self.order:
            return {}
        out = {}
        for k, c in self.terms.items():
            a = c.coeff(n)
            if a:
                out[k] = a
        return out

    def hbar_component(self, n: int):
        """The hbar^n layer as an element with constant coefficients."""
        return self._like(self.layer(n), self.order)

    def layer_terms(self):
        """(key, rational, power, weight) per nonzero hbar coefficient.

        Sorted by weight (the hbar power, plus the leg degree for a
        formal twist) and built once per element.  A product loop over
        two elements stops its inner loop at the first entry whose
        weight, added to the outer entry's, exceeds the product's order.
        """
        try:
            return self._layered
        except AttributeError:
            pass
        leg = self._leg_weighted
        self._layered = sorted(
            (
                (k, a, n, n + len(k[-1]) if leg else n)
                for k, c in self.terms.items()
                for n, a in enumerate(c.coeffs)
                if a
            ),
            key=lambda t: t[3],
        )
        return self._layered

    def int_layer_terms(self):
        """(D, entries): `layer_terms` with each value a as the int D a.

        D is the lcm of the denominators of the layer terms; when it is
        1 the entries are `layer_terms()` itself, whose values are ints
        already.  A kernel that multiplies the entries of factors with
        scales D_1, ..., D_r sums D_1 ... D_r times its rational result
        and hands that product to `from_layers` as `den`.  Built once
        per element.
        """
        try:
            return self._int_layered
        except AttributeError:
            pass
        terms = self.layer_terms()
        den = lcm(*{a.denominator for _, a, _, _ in terms})
        self._int_layered = den, terms if den == 1 else [
            (k, a.numerator * (den // a.denominator), n, w)
            for k, a, n, w in terms
        ]
        return self._int_layered

    def truncate(self, n: int):
        """The image mod hbar^(n+1) (self when n is not below the order).

        Truncation is a ring map, so the order-n layer of any product or
        residual can be computed from truncated factors.
        """
        if n >= self.order:
            return self
        return self._like(self.terms, n)

    def hbar_valuation(self):
        """Smallest hbar power with a nonzero coefficient (None for zero)."""
        return min((c.valuation() for c in self.terms.values()), default=None)

    def map_keys(self, f, cls, *space):
        """The linear map key -> f(key), as an element of cls(*space).

        f(key) yields (key, hbar power, rational): each hbar^n
        coefficient a of key adds a times the rational to the image key's
        hbar^(n + power) coefficient.  f is called once per key.  Terms
        above the order are dropped, and each image key's HSeries is
        built once, by `cls.from_layers`, at this element's order.
        """
        order = self.order
        outs = [{} for _ in range(order + 1)]
        images: dict = {}
        for k, a, n, _ in self.layer_terms():
            image = images.get(k)
            if image is None:
                images[k] = image = tuple(f(k))
            for key, q, c in image:
                if n + q <= order:
                    add_into(outs[n + q], key, a * c)
        return cls.from_layers(*space, outs)

    def shift(self, k: int):
        """Multiply by hbar^k."""
        return self.map_keys(
            lambda key: ((key, k, 1),),
            type(self), *self._space_values(),
        )

    def value_key(self):
        """Hashable exact value, built once per element.

        linfinity's tower memo keys structure-map arguments by it.
        """
        try:
            return self._vkey
        except AttributeError:
            pass
        self._vkey = (
            self.order,
            getattr(self, "arity", None),
            frozenset((k, c.coeffs) for k, c in self.terms.items()),
        )
        return self._vkey
