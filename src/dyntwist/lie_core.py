"""Finite-dimensional Lie algebras over Q with a chosen h (+) m split.

Structure constants are validated exactly: antisymmetry and Jacobi must
hold on the nose, h must be closed under the bracket, and the chosen mode
(reductive or abelian_base) must hold for the split.
"""

from __future__ import annotations

from . import linalg
from .errors import AlgebraError, DecompositionError
from .hseries import add_into, canonical

MODE_REDUCTIVE = "reductive"
MODE_ABELIAN_BASE = "abelian_base"


class LieData:
    """Immutable Lie algebra with basis order fixed by declaration."""

    def __init__(self, basis_names, brackets, h_indices, mode=MODE_REDUCTIVE):
        """brackets: {(i, j): {k: coeff}} for i < j; [x_i, x_j] = sum c x_k."""
        self.dim = len(basis_names)
        self.basis_names = tuple(basis_names)
        if len(set(self.basis_names)) != self.dim:
            raise AlgebraError(f"duplicate basis name in {self.basis_names}")
        self.mode = mode
        sc = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise AlgebraError(f"bracket index out of range: ({i},{j})")
            comps = {k: canonical(c) for k, c in comps.items() if c != 0}
            if any(not 0 <= k < self.dim for k in comps):
                raise AlgebraError(
                    f"bracket output index out of range in ({i},{j}): "
                    f"{sorted(comps)}"
                )
            if i == j:
                if comps:
                    raise AlgebraError(f"[x_{i}, x_{i}] must vanish")
                continue
            if i > j:
                i, j = j, i
                comps = {k: -c for k, c in comps.items()}
            if (i, j) in sc and sc[(i, j)] != comps:
                raise AlgebraError(
                    f"antisymmetry violated for pair ({i},{j}): "
                    f"both orders declared with inconsistent values"
                )
            if comps:
                sc[(i, j)] = comps
        self._sc = sc
        self.h_indices = tuple(sorted(h_indices))
        h_set = set(self.h_indices)
        if len(h_set) != len(h_indices):
            raise DecompositionError("duplicate h index")
        if not h_set <= set(range(self.dim)):
            raise DecompositionError("h index out of range")
        self.m_indices = tuple(i for i in range(self.dim) if i not in h_set)
        self._h_set = h_set
        self._check_jacobi()
        self._check_split()

    # -- validation ---------------------------------------------------------

    def _check_jacobi(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, coeff in self.bracket_basis(a, b).items():
                            for m, d in self.bracket_basis(l, c).items():
                                add_into(acc, m, coeff * d)
                    if acc:
                        raise AlgebraError(
                            f"Jacobi identity fails on triple "
                            f"({self.basis_names[i]}, {self.basis_names[j]}, "
                            f"{self.basis_names[k]}): residual {acc}"
                        )

    def _check_split(self):
        for i in self.h_indices:
            for j in self.h_indices:
                br = self.bracket_basis(i, j)
                if any(k not in self._h_set for k in br):
                    raise DecompositionError(
                        f"h is not closed under the bracket: "
                        f"[{self.basis_names[i]}, {self.basis_names[j]}] = {br}"
                    )
        if self.mode == MODE_REDUCTIVE:
            for i in self.h_indices:
                for j in self.m_indices:
                    br = self.bracket_basis(i, j)
                    if any(k in self._h_set for k in br):
                        raise DecompositionError(
                            f"[h, m] not contained in m: "
                            f"[{self.basis_names[i]}, {self.basis_names[j]}]"
                        )
        elif self.mode == MODE_ABELIAN_BASE:
            for i in self.h_indices:
                for j in self.h_indices:
                    if self.bracket_basis(i, j):
                        raise DecompositionError("h is not abelian")
            for i in self.m_indices:
                for j in self.m_indices:
                    br = self.bracket_basis(i, j)
                    if any(k in self._h_set for k in br):
                        raise DecompositionError("m is not a subalgebra")
        else:
            raise DecompositionError(f"unknown mode {self.mode!r}")

    # -- basic operations ---------------------------------------------------

    def is_h(self, i: int) -> bool:
        return i in self._h_set

    def bracket_basis(self, i: int, j: int) -> dict:
        """[x_i, x_j] as {k: coeff}."""
        if i == j:
            return {}
        if i < j:
            return self._sc.get((i, j), {})
        return {k: -c for k, c in self._sc.get((j, i), {}).items()}

    def name_of(self, i: int) -> str:
        return self.basis_names[i]

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown basis name {name!r}") from None


def invariant_basis(lie: LieData, keys, ad_apply):
    """Basis of the h-invariant subspace of span(keys).

    ad_apply(x, key) gives the action of basis element x on the monomial
    `key` as {key: coeff}.  The result is the RREF kernel of the stacked
    actions of the h basis, one coefficient dict per basis vector, in
    deterministic order.
    """
    keys = list(keys)
    if not lie.h_indices:
        return [{k: 1} for k in keys]
    columns = []
    for k in keys:
        col: dict = {}
        for x in lie.h_indices:
            for out_key, coeff in ad_apply(x, k).items():
                add_into(col, (x, out_key), coeff)
        columns.append(col)
    kern = linalg.kernel_basis(columns)
    out = []
    for vec in kern:
        out.append({keys[c]: v for c, v in sorted(vec.items())})
    return out
