"""The ring Q[hbar]/(hbar^(N+1)) that the test oracles compute in.

`dyntwist.hseries.HSeries` is a read-only coefficient record: the
package computes on layers and gives the record no arithmetic.  The
references multiply and sum whole coefficients, so they use this
subclass.  It is an `HSeries`, so the element constructor and `scale`
take it.  Its operations also take the plain record that
`SparseSeries.terms` gives, and `ring_terms` reads that view with ring
coefficients.

Mixing two series of different truncation orders truncates to the
smaller order.  A rational operand is the constant series.
"""

from dyntwist.hseries import HSeries as Record, _series_text, canonical


class HSeries(Record):
    """Element of Q[hbar]/(hbar^(N+1)), coefficients in canonical form."""

    __slots__ = ()

    @classmethod
    def constant(cls, c, order: int) -> "HSeries":
        return cls((c,), order)

    def _series(self, other) -> Record:
        return other if isinstance(other, Record) \
            else HSeries.constant(other, self.order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = self._series(other)
        # zip stops at the shorter tuple, the common order
        return HSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                       min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return HSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        other = self._series(other)
        return HSeries([a - b for a, b in zip(self.coeffs, other.coeffs)],
                       min(self.order, other.order))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Record):
            c = canonical(other)
            return HSeries([a * c for a in self.coeffs], self.order)
        n = min(self.order, other.order)
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

    def __eq__(self, other):
        other = self._series(other)
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return _series_text(self.coeffs, self.order)


def ring_terms(E) -> dict:
    """E's `terms` view, {key: HSeries} with ring coefficients."""
    return {k: HSeries(c.coeffs, c.order) for k, c in E.terms.items()}
