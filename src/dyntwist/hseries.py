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
cochains).  An element stores its coefficients by hbar power:
`layers[n]` is one {key: rational} dict of the nonzero hbar^n
coefficients, for n = 0, ..., N.  So this module alone knows the format;
the per-key HSeries of an element are a read-only view,
`SparseSeries.terms`, built on its first read.

Every product kernel works one hbar layer at a time.  It reads its
factors through `SparseSeries.layer_terms`, one (key, value, power)
entry per stored coefficient in order of power, accumulates one
{key: value} dict per output hbar power, and hands those dicts to
`from_layers`, which keeps them as the output's layers.  A pair of
entries whose powers add up to more than the product's order N
contributes nothing mod hbar^(N+1), so the inner loop stops at the first
such pair.

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
the same path serves it.  When D is 1 and every structure constant is
an int (`UEnvelope.integral`), b, cup, brace and the twist residual
hand over nonzero int sums on keys of their width, and
`from_layers(..., integral=True)` keeps them as the element's layers
without a scan.

Every linear map works on the same layers: `SparseSeries.map_keys`
sends each (key, value, power) entry through f(key), which yields
(image key, hbar power, rational), and builds the image through
`from_layers`.

Closed arithmetic works on the layers too and builds no HSeries: a sum
adds the two dicts of each power, negation and rational scaling map
each value, scaling by an HSeries convolves the layers with its
coefficients, and `truncate` and `shift` slice the list of layers.
Equality at one order compares the two lists of layers, with
no difference built.  Scaling by 1 or -1 is self or -self.  Elements,
and their layer dicts, are never mutated after construction, so a
result may share a layer with its operand.

An element is built by its constructor or by `SparseSeries._direct`
(closed arithmetic and `from_layers`), and both set its caches (the
`terms` view, `layer_terms`, `int_layer_terms` and `value_key`) to
None; each is filled on its first read and then kept.  The constructor
stores an int coefficient on a fast path: its key still goes through
`_key`, zero coefficients included, but no HSeries or canonical form is
made.  `int_layer_terms` of an element whose values are all ints is
`layer_terms` itself, found by one type check and no lcm, and
`from_layers` checks the widths of a layer's keys in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, itemgetter, sub

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


def sum_layers(a: dict, b: dict, negate: bool = False) -> dict:
    """a + b, or a - b, of two {key: canonical rational} dicts.

    The sum keeps a's keys in their order, then adds the keys that only
    b has, and drops the keys whose sum vanishes; it is a itself when b
    is empty.  Neither input is changed.
    """
    if not b:
        return a
    s = dict(a)
    for k, c in b.items():
        old = s.get(k)
        if old is None:
            s[k] = -c if negate else c
            continue
        c = old - c if negate else old + c
        if not c:
            del s[k]
        else:
            s[k] = c if type(c) is int else canonical(c)
    return s


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

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, HSeries):
            n = self._common(other)
            return self.coeffs[: n + 1] == other.coeffs[: n + 1]
        return self == HSeries.constant(other, self.order)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return _series_text(self.coeffs, self.order)


def _series_text(coeffs, order: int) -> str:
    """The repr of the HSeries with these coefficients and order."""
    terms = []
    for n, c in enumerate(coeffs):
        if c == 0:
            continue
        if n == 0:
            terms.append(str(c))
        elif n == 1:
            terms.append(f"{c}*h" if c != 1 else "h")
        else:
            terms.append(f"{c}*h^{n}" if c != 1 else f"h^{n}")
    body = " + ".join(terms) if terms else "0"
    return f"HSeries({body}; N={order})"




class SparseSeries:
    """Sparse element sum_n hbar^n layers[n], truncated mod hbar^(order+1).

    `layers` holds exactly order + 1 dicts {key: rational}: the nonzero
    hbar^n coefficients, in canonical form.  Subclasses fix the space:
    `_space_values()` gives the values that come before the coefficients
    in the constructor, so that `type(self)(*space values, terms,
    order)` builds an element of the same space, and `_set_space` stores
    them; a space with an `arity` (None here) must agree between
    summands.  The constructor takes {key: HSeries or rational},
    truncates longer series to `order` and drops zeros; a shorter series
    raises GradingMismatch.  Every other path builds the layers directly
    (see the module docstring).
    """

    __slots__ = ("layers", "order", "_terms", "_vkey", "_layered",
                 "_int_layered")
    arity = None

    def __init__(self, terms: dict, order: int):
        self.order = order
        self.layers = layers = [{} for _ in range(order + 1)]
        self._terms = self._vkey = self._layered = self._int_layered = None
        key = self._key
        first = layers[0]
        for k, c in terms.items():
            if type(c) is int:  # an hbar^0 coefficient, or zero
                k = key(k)
                if c:
                    first[k] = c
                continue
            if isinstance(c, HSeries):
                if c.order < order:
                    raise GradingMismatch(
                        f"coefficient of order {c.order} in an element "
                        f"of order {order}"
                    )
                coeffs = c.coeffs
            else:
                coeffs = (canonical(c),)
            k = key(k)
            for n, a in enumerate(coeffs[: order + 1]):
                if a:
                    layers[n][k] = a

    def _key(self, key):
        """Normalize and validate a monomial key given to the constructor."""
        return key

    def _space_values(self):
        return ()

    def _set_space(self):
        """Store the space values of `_space_values` on a new element."""

    @classmethod
    def _direct(cls, space, layers: list):
        """The element of cls(*space) that stores `layers` as they are.

        For closed arithmetic, whose layers are already what the
        constructor would store: validated keys and nonzero canonical
        values.  The order is len(layers) - 1.
        """
        new = cls.__new__(cls)
        new._set_space(*space)
        new.layers = layers
        new.order = len(layers) - 1
        new._terms = new._vkey = new._layered = new._int_layered = None
        return new

    def _same_space(self, layers: list):
        """An element of self's space that stores `layers` as they are."""
        return self._direct(self._space_values(), layers)

    @classmethod
    def from_layers(cls, *args, den=None, integral=False):
        """An element of cls(*space) from per-power coefficient dicts.

        layers[n] = {key: rational} holds the hbar^n coefficients, and
        the element's order is len(layers) - 1.  A dict of nonzero ints
        is kept as it is, so the caller hands it over; any other is
        copied once, without zeros and in canonical form.  With den
        given, layers[n] holds den times the coefficients (as ints, or
        Fractions where a factor was rational), each divided by den once
        (`quotient`).  The keys are a kernel's, built from validated
        ones: where the space has an arity, only their width is checked,
        one pass per layer, and a key of the wrong width goes to `_key`,
        which raises GradingMismatch.

        integral: the caller summed ints times integral factors (b, or
        cup, brace and the twist residual over an envelope whose
        structure constants are ints, `UEnvelope.integral`) into keys of
        its output width, dropping each sum that vanished.  With den 1
        as well, every value is a nonzero int, so the layers are the
        element as they are (`_direct`), with no type, zero or width
        scan.
        """
        *space, layers = args
        if integral and den == 1:
            return cls._direct(space, layers)
        scaled = den is not None and den != 1
        out = []
        for layer in layers:
            if scaled:
                layer = {k: quotient(a, den) for k, a in layer.items() if a}
            elif not {int}.issuperset(map(type, layer.values())) \
                    or 0 in layer.values():
                layer = {k: canonical(a) for k, a in layer.items() if a}
            out.append(layer)
        new = cls._direct(space, out)
        arity = new.arity
        if arity is not None:
            width = {arity + 1}
            for layer in out:
                if not width.issuperset(map(len, layer)):
                    for k in layer:
                        new._key(k)  # raises GradingMismatch
        return new

    # -- the per-key view --------------------------------------------------

    @property
    def terms(self) -> dict:
        """{key: HSeries}, the coefficients by key: a read-only view.

        Built once, on its first read, with the keys in order of first
        appearance over the layers.  The package itself reads the
        layers; the view serves callers that want whole series.
        """
        if self._terms is not None:
            return self._terms
        order = self.order
        rows: dict = {}
        for n, layer in enumerate(self.layers):
            for k, a in layer.items():
                rows.setdefault(k, [0] * (order + 1))[n] = a
        self._terms = {k: HSeries(tuple(row), order, normalized=True)
                       for k, row in rows.items()}
        return self._terms

    def keys(self) -> list:
        """The keys with a nonzero coefficient, in order of first appearance."""
        return list(dict.fromkeys(k for layer in self.layers for k in layer))

    def series_repr(self, key) -> str:
        """The coefficient of key, written as the repr of its HSeries."""
        return _series_text([layer.get(key, 0) for layer in self.layers],
                            self.order)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        """self + other, or self - other, one hbar power at a time.

        Each layer keeps self's keys in their order, then adds the keys
        that only other has.  A sum of mixed orders truncates to the
        smaller one.
        """
        if self.arity != other.arity:
            # zero is compatible with every arity (degenerate
            # compositions); the sum still has the smaller order
            if self.is_zero():
                return (-other if negate else other).truncate(self.order)
            if other.is_zero():
                return self.truncate(other.order)
            raise GradingMismatch("arity mismatch in sum")
        # zip stops at the common order
        out = [sum_layers(a, b, negate)
               for a, b in zip(self.layers, other.layers)]
        return self._same_space(out)

    def __neg__(self):
        return self._same_space(
            [{k: -a for k, a in layer.items()} for layer in self.layers])

    def scale(self, c):
        """Multiply every coefficient by a rational or an HSeries.

        Scaling by an HSeries truncates to the smaller of the two
        orders; each layer of the product collects the keys of
        self.layers[n - i] times hbar^i, for ascending i.  Scaling by the
        rational 1 returns self and by -1 returns -self: elements are
        immutable, so the result may share self.
        """
        if isinstance(c, HSeries):
            coeffs = c.coeffs
            out = []
            for n in range(min(self.order, c.order) + 1):
                acc: dict = {}
                for i in range(n + 1):
                    if coeffs[i]:
                        for k, a in self.layers[n - i].items():
                            acc[k] = acc.get(k, 0) + a * coeffs[i]
                out.append({k: canonical(a) for k, a in acc.items() if a})
            return self._same_space(out)
        if not c:
            return self._same_space([{} for _ in self.layers])
        if c == 1:
            return self
        if c == -1:
            return -self
        c = canonical(c)
        return self._same_space(
            [{k: canonical(a * c) for k, a in layer.items()}
             for layer in self.layers])

    def is_zero(self) -> bool:
        return not any(self.layers)

    def __eq__(self, other):
        """Whether self - other is zero, read off the stored layers.

        At one order the difference vanishes exactly when both elements
        store the same layers: stored values are nonzero and canonical.
        Mixed orders compare the layers of both truncations to the
        smaller order.  Elements of different arities are equal only
        when both are zero.
        """
        if type(other) is not type(self):
            return NotImplemented
        if self.arity != other.arity:
            return self.is_zero() and other.is_zero()
        if self.order == other.order:
            return self.layers == other.layers
        order = min(self.order, other.order)
        return self.truncate(order).layers == other.truncate(order).layers

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    # -- hbar layers -------------------------------------------------------

    def layer(self, n: int) -> dict:
        """The hbar^n coefficients as a new {key: rational} dict."""
        return dict(self.layers[n]) if n <= self.order else {}

    def hbar_component(self, n: int):
        """The hbar^n layer as an element with constant coefficients."""
        out = [{} for _ in self.layers]
        if n <= self.order:
            out[0] = self.layers[n]
        return self._same_space(out)

    def layer_terms(self):
        """(key, rational, power) per stored coefficient.

        The layers one after the other, so the entries ascend in power.
        Built once per element.  A product loop over two elements stops
        its inner loop at the first entry whose power, added to the outer
        entry's, exceeds the product's order.
        """
        if self._layered is None:
            self._layered = [(k, a, n)
                             for n, layer in enumerate(self.layers)
                             for k, a in layer.items()]
        return self._layered

    def int_layer_terms(self):
        """(D, entries): `layer_terms` with each value a as the int D a.

        D is the lcm of the denominators of the layer terms.  When every
        value is an int, D is 1 and the entries are `layer_terms()`
        itself, found by one type check and no lcm.  A kernel that
        multiplies the entries of factors with scales D_1, ..., D_r sums
        D_1 ... D_r times its rational result and hands that product to
        `from_layers` as `den`.  Built once per element.
        """
        if self._int_layered is None:
            terms = self.layer_terms()
            if {int}.issuperset(map(type, map(itemgetter(1), terms))):
                self._int_layered = 1, terms
            else:
                den = lcm(*{a.denominator for _, a, _ in terms})
                self._int_layered = den, [
                    (k, a.numerator * (den // a.denominator), n)
                    for k, a, n in terms
                ]
        return self._int_layered

    def truncate(self, n: int):
        """The image mod hbar^(n+1) (self when n is not below the order).

        Truncation is a ring map, so the order-n layer of any product or
        residual can be computed from truncated factors.
        """
        if n >= self.order:
            return self
        return self._same_space(self.layers[: n + 1])

    def hbar_valuation(self):
        """Smallest hbar power with a nonzero coefficient (None for zero)."""
        return next((n for n, layer in enumerate(self.layers) if layer),
                    None)

    def map_keys(self, f, cls, *space):
        """The linear map key -> f(key), as an element of cls(*space).

        f(key) yields (key, hbar power, rational): each hbar^n
        coefficient a of key adds a times the rational to the image key's
        hbar^(n + power) coefficient.  f is called once per key.  Terms
        above the order are dropped, and the image, of this element's
        order, is built by `cls.from_layers`.
        """
        order = self.order
        outs = [{} for _ in range(order + 1)]
        images: dict = {}
        for n, layer in enumerate(self.layers):
            for k, a in layer.items():
                image = images.get(k)
                if image is None:
                    images[k] = image = tuple(f(k))
                for key, q, c in image:
                    if n + q <= order:
                        add_into(outs[n + q], key, a * c)
        return cls.from_layers(*space, outs)

    def shift(self, k: int):
        """Multiply by hbar^k."""
        order = self.order
        return self._same_space(
            [{} for _ in range(min(k, order + 1))]
            + self.layers[: max(order + 1 - k, 0)])

    def value_key(self):
        """Hashable exact value, built once per element.

        linfinity's tower memo keys structure-map arguments by it.
        """
        if self._vkey is not None:
            return self._vkey
        self._vkey = (
            self.order,
            self.arity,
            tuple(frozenset(layer.items()) for layer in self.layers),
        )
        return self._vkey
