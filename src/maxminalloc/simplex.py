"""Dense tableau simplex for the small column-generation masters.

Solves  max c.x  s.t.  A x <= b, x >= 0  with b >= 0, so the slack basis
is primal feasible and no phase-one is needed.  A caller that re-solves
after appending columns passes the previous optimal basis: appending
columns changes neither B nor b, so that basis stays primal feasible, and
the tableau is re-factored from it with one dense solve instead of
pivoting again from the slack basis.  Each pivot is one rank-1 update of
the tableau.  Dantzig pricing with a switch to Bland's rule after a
degeneracy threshold guarantees termination; duals are read off the
slack columns of the final tableau.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

TOL = 1e-9
BLAND_AFTER = 200
MAX_ITERS = 20000


class SimplexError(RuntimeError):
    pass


def _tableau(c: np.ndarray, A: np.ndarray, b: np.ndarray,
             basis: Optional[Sequence[int]]) -> Optional[np.ndarray]:
    """Tableau of basis (the slack basis when None); None if that basis is
    singular or not primal feasible."""
    m, n = A.shape
    # rows = constraints then objective; cols = structural + slacks + rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = np.maximum(b, 0.0)
    T[m, :n] = -c  # objective row holds reduced costs (negated for max)
    if basis is None:
        return T
    try:
        T[:m] = np.linalg.solve(T[:m, basis], T[:m])
    except np.linalg.LinAlgError:
        return None
    rhs = T[:m, -1]
    if np.any(rhs < -TOL):
        return None
    rhs[rhs < 0] = 0.0
    T[m] -= T[m, basis] @ T[:m]  # price out the basic columns
    return T


def solve(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    basis: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, float, np.ndarray, List[int]]:
    """Return (x, objective, duals, basis) for max c.x s.t. Ax <= b, x >= 0.

    `basis` lists one column per row of A, numbering the structural
    columns 0..n-1 and the slack of row r as n + r; the returned basis uses
    the same numbering.  When given, pivoting starts from it, falling back
    to the slack basis if it is singular or infeasible for b.
    """
    m, n = A.shape
    if np.any(b < -TOL):
        raise SimplexError("negative rhs; slack basis infeasible")
    T = None if basis is None else _tableau(c, A, b, basis)
    if T is None:
        T = _tableau(c, A, b, None)
        basis = range(n, n + m)
    basis = list(basis)

    for it in range(MAX_ITERS):
        red = T[m, :-1]
        if it < BLAND_AFTER:
            enter = int(np.argmin(red))
            if red[enter] >= -TOL:
                break
        else:
            neg = np.nonzero(red < -TOL)[0]
            if len(neg) == 0:
                break
            enter = int(neg[0])  # Bland: lowest index
        col = T[:m, enter]
        pos = np.nonzero(col > TOL)[0]
        if len(pos) == 0:
            raise SimplexError("unbounded master LP")
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        cand = pos[ratios <= best + TOL]
        # tie-break by lowest basis variable index (Bland-compatible)
        leave = int(min(cand, key=lambda r: basis[r]))
        T[leave] /= T[leave, enter]
        factor = T[:, enter].copy()
        factor[leave] = 0.0
        T -= np.outer(factor, T[leave])
        basis[leave] = enter
    else:
        raise SimplexError("simplex iteration cap exceeded")

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    duals = T[m, n : n + m].copy()
    duals[np.abs(duals) < TOL] = 0.0
    return x[:n], float(T[m, -1]), duals, basis
