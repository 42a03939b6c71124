"""Exact optimum oracle for desk-scale instances.

Feasibility of a T-allocation is decided by a depth-first search over
(agent prefix, used-item bitmask) states, transitioning only through
inclusion-minimal satisfying bundles (extra items never help), with
memoization of failed states.  The optimum is the largest lattice value
that is feasible (feasibility is monotone decreasing in T).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Optional, Tuple

from .model import (
    Allocation,
    Instance,
    LatticeValue,
    capped_values,
    last_feasible,
    minimal_count_pairs,
)

DEFAULT_SIZE_CAP = 22


class InstanceTooLarge(ValueError):
    """Instance exceeds the exact-mode item cap."""


def feasible_at(
    inst: Instance, T: LatticeValue, size_cap: int = DEFAULT_SIZE_CAP
) -> Tuple[bool, Optional[Allocation]]:
    """Decide whether a T-allocation exists; return a witness when it does."""
    if inst.m > size_cap:
        raise InstanceTooLarge(f"{inst.m} items exceeds exact-mode cap {size_cap}")
    eps = inst.epsilon
    if T.key(eps) <= 0:
        return True, {i: frozenset() for i in range(inst.n)}

    # quick reject: some agent cannot reach T even with everything it likes
    if any(not minimal_count_pairs(T, eps, len(inst.b1(i)), len(inst.beps(i)))
           for i in range(inst.n)):
        return False, None

    n = inst.n
    failed: set = set()
    assignment: List[FrozenSet[int]] = [frozenset()] * n

    def go(i: int, used: int) -> bool:
        if i == n:
            return True
        if (i, used) in failed:
            return False
        ah = [j for j in inst.b1(i) if not (used >> j) & 1]
        al = [j for j in inst.beps(i) if not (used >> j) & 1]
        for h, l in minimal_count_pairs(T, eps, len(ah), len(al)):
            for hs in itertools.combinations(ah, h):
                for ls in itertools.combinations(al, l):
                    mask = used
                    for j in hs:
                        mask |= 1 << j
                    for j in ls:
                        mask |= 1 << j
                    if go(i + 1, mask):
                        assignment[i] = frozenset(hs + ls)
                        return True
        failed.add((i, used))
        return False

    if go(0, 0):
        return True, {i: assignment[i] for i in range(n)}
    return False, None


def opt(
    inst: Instance,
    size_cap: int = DEFAULT_SIZE_CAP,
    upper: Optional[LatticeValue] = None,
) -> Tuple[LatticeValue, Allocation]:
    """Largest feasible lattice value plus a witness allocation.

    Only values up to `model.packing_cap` are searched: a T-allocation
    gives every agent T out of the W that the agents want, so
    n*key(T) <= key(W), and no agent reaches more than all it wants.
    Every value above the cap fails, so the answer is that of a search
    over the whole lattice.  `upper`, when given, must be at least OPT
    (T* is, since a T-allocation is a CLP(T) point), and the values above
    it are not searched either.  The witness does not change: the binary
    search returns the payload of its last passing probe, which is the
    probe at OPT, so with or without `upper` it is the witness that
    `feasible_at(inst, OPT)` returns.
    """
    values = capped_values(inst, upper)
    # values[0] is zero, which always passes, so some index is found
    i, witness = last_feasible(values, lambda T: feasible_at(inst, T, size_cap)[1])
    return values[i], witness
