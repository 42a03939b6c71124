"""Revised simplex for the column-generation masters.

Solves  max c.x  s.t.  A x <= b, x >= 0  with b >= 0, so the slack basis
is primal feasible and no phase-one is needed.  A `Master` keeps the
structural columns, which only ever get appended, and one (m+1)x(m+1)
matrix [B^-1 | x_B ; y | z] for its current basis.  It starts from the
slack basis, or from any primal feasible basis a caller hands `start`
together with that matrix (the configuration LP starts from a crash
basis built from its seed columns).  Appending columns changes neither
B nor b, so the basis stays primal feasible and the next `solve` pivots
on from it with nothing re-factored.  Each pivot prices y.A - c and the
slacks at y, computes the entering column as B^-1 a, and updates only
the small matrix.

Every pivot enters by Dantzig's rule (most negative reduced cost, the
structural columns first, then the slacks).  Ratio ties go to the lowest
basis label (structural before slack) for the first LEX_AFTER pivots of
a solve, and after that to the lexicographically smallest row of B^-1
over the pivot column.  The lexicographic rule cannot cycle from a
lexicographically positive basis.  The slack basis is one; a basis given
to `start` need not be (a row whose x_B is 0 can start with a negative
entry), and the first LEX_AFTER pivots need not keep either one, so
MAX_ITERS stays as the backstop that bounds a solve.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

TOL = 1e-9
LEX_AFTER = 200
MAX_ITERS = 20000


class SimplexError(RuntimeError):
    pass


class Master:
    """max c.x s.t. Ax <= b, x >= 0 over columns appended by `add`.

    Basis labels number the structural columns 0, 1, ... and the slack of
    row r as -1 - r.  `pivots` counts the pivots of every `solve` so far.
    """

    def __init__(self, b: np.ndarray):
        b = np.asarray(b, dtype=float)
        if np.any(b < -TOL):
            raise SimplexError("negative rhs; slack basis infeasible")
        m = len(b)
        self.m = m
        self.ncols = 0
        self._At = np.zeros((16, m))  # structural columns, one per row
        self._c = np.zeros(16)
        self.basis = -1 - np.arange(m)
        self.inv = np.zeros((m + 1, m + 1))  # [B^-1 | x_B ; y | z]
        self.inv[:m, :m] = np.eye(m)
        self.inv[:m, m] = np.maximum(b, 0.0)
        self.pivots = 0

    def start(self, basis: np.ndarray, inv: np.ndarray) -> None:
        """Take `basis` (labels as above) and its matrix [B^-1 | x_B ; y | z]
        in place of the current basis; x_B must be primal feasible.  The
        master owns both arrays from here on and updates them in place."""
        if np.any(inv[: self.m, self.m] < -TOL):
            raise SimplexError("negative basic value; start basis infeasible")
        self.basis, self.inv = basis, inv

    def add(self, A_new: np.ndarray, c_new: np.ndarray) -> None:
        """Append the columns of A_new with costs c_new; the basis is kept."""
        k = A_new.shape[1]
        end = self.ncols + k
        if end > len(self._c):  # grow by doubling; rows past ncols are unused
            cap = max(end, 2 * len(self._c))
            self._At = np.resize(self._At, (cap, self.m))
            self._c = np.resize(self._c, cap)
        self._At[self.ncols : end] = A_new.T
        self._c[self.ncols : end] = c_new
        self.ncols = end


def solve(master: Master) -> Tuple[np.ndarray, float, np.ndarray]:
    """Pivot `master`, which has at least one column, to optimality;
    return (x, objective, duals).

    x has one entry per structural column, in the order they were added;
    the duals are y, one per row.
    """
    m, inv, basis = master.m, master.inv, master.basis
    At, c = master._At[: master.ncols], master._c[: master.ncols]
    ratios = np.empty(m)
    for it in range(MAX_ITERS):
        y = inv[m, :m]
        red = At @ y - c
        j = int(red.argmin())
        r = int(y.argmin())
        if red[j] <= y[r]:
            if red[j] >= -TOL:
                break
            col = inv[:, :m] @ At[j]
            col[m] -= c[j]
            label = j
        else:
            if y[r] >= -TOL:
                break
            col = inv[:, r].copy()
            label = -1 - r
        d = col[:m]
        ratios.fill(np.inf)
        np.divide(inv[:m, m], d, out=ratios, where=d > TOL)
        best = ratios.min()
        if best == np.inf:
            raise SimplexError("unbounded master LP")
        cand = (ratios <= best + TOL).nonzero()[0]
        if len(cand) == 1:
            leave = int(cand[0])
        elif it < LEX_AFTER:
            labels = basis[cand]
            keys = np.where(labels >= 0, labels, master.ncols - 1 - labels)
            leave = int(cand[keys.argmin()])
        else:
            rows = inv[cand, :m] / d[cand, None]
            leave = int(cand[np.lexsort(rows.T[::-1])[0]])
        row = inv[leave] / col[leave]
        inv -= col[:, None] * row
        inv[leave] = row
        basis[leave] = label
    else:
        raise SimplexError("simplex iteration cap exceeded")
    master.pivots += it

    x = np.zeros(master.ncols)
    structural = basis >= 0
    x[basis[structural]] = inv[:m, m][structural]
    duals = inv[m, :m].copy()
    duals[np.abs(duals) < TOL] = 0.0
    return x, float(inv[m, m]), duals
