"""Instance generators: random corpora, the 3-dimensional-matching
reduction, and the integrality-gap witness search."""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from .model import (
    Epsilon,
    HEAVY,
    Instance,
    Item,
    LatticeValue,
    LIGHT,
    ZERO,
)
from . import exact


@dataclass(frozen=True)
class Hypergraph3DM:
    """Tripartite hypergraph H(X u Y u Z, E) with |X| = |Y| = |Z| = size.

    Edges are (x, y, z) index triples, one node per part, no duplicates.
    """

    size: int
    edges: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            for c in e:
                if not 0 <= c < self.size:
                    raise ValueError(f"edge {e} out of range")

    def z_degree(self, z: int) -> int:
        return sum(1 for e in self.edges if e[2] == z)

    def has_perfect_matching(self) -> bool:
        """Exhaustive search; only viable for small sizes."""
        return self._pm(0, frozenset(), frozenset(), frozenset())

    def _pm(self, picked, ux, uy, uz) -> bool:
        if picked == self.size:
            return True
        for (x, y, z) in self.edges:
            if x not in ux and y not in uy and z not in uz:
                if self._pm(picked + 1, ux | {x}, uy | {y}, uz | {z}):
                    return True
        return False

    def is_perfect_matching(self, m: List[Tuple[int, int, int]]) -> bool:
        if len(m) != self.size or any(e not in self.edges for e in m):
            return False
        xs = {e[0] for e in m}
        ys = {e[1] for e in m}
        zs = {e[2] for e in m}
        return len(xs) == len(ys) == len(zs) == self.size


def gen_random(
    n: int,
    m_heavy: int,
    m_light: int,
    density: float,
    eps: Epsilon,
    seed: int,
) -> Instance:
    """Each (agent, item) interest present independently with prob `density`."""
    rng = random.Random(seed)
    items = [Item(j, HEAVY) for j in range(m_heavy)] + [
        Item(m_heavy + j, LIGHT) for j in range(m_light)
    ]
    interests = []
    for _ in range(n):
        interests.append(
            [j for j in range(m_heavy + m_light) if rng.random() < density]
        )
    return Instance(eps, items, interests)


def reduce_3dm(h: Hypergraph3DM, eps: Epsilon) -> Instance:
    """Map a 3DM instance to a (1, eps)-restricted allocation instance.

    Agents are the hyperedges.  Items: the X and Y nodes become light items
    and each z in Z contributes d(z)-1 heavy copies.  Agent (x,y,z) is
    interested in x, y and every copy of z.  A perfect matching in H yields
    OPT = 2*eps; absence forces OPT <= eps.
    """
    if 2 * eps.numerator > eps.denominator:
        import warnings

        warnings.warn("reduction dichotomy is only guaranteed for eps <= 1/2")
    size = h.size
    items: List[Item] = []
    # light items: X nodes then Y nodes
    for x in range(size):
        items.append(Item(len(items), LIGHT))
    for y in range(size):
        items.append(Item(len(items), LIGHT))
    z_copies: List[List[int]] = [[] for _ in range(size)]
    for z in range(size):
        for _ in range(max(h.z_degree(z) - 1, 0)):
            items.append(Item(len(items), HEAVY))
            z_copies[z].append(items[-1].id)
    interests = []
    for (x, y, z) in h.edges:
        interests.append([x, size + y] + z_copies[z])
    return Instance(eps, items, interests)


def gen_3dm_yes(
    size: int, extra_edges: int, seed: int
) -> Tuple[Hypergraph3DM, List[Tuple[int, int, int]]]:
    """Hypergraph containing a planted perfect matching plus random triples."""
    if size < 1:
        raise ValueError("size >= 1 required")
    rng = random.Random(seed)
    perm_y = list(range(size))
    perm_z = list(range(size))
    rng.shuffle(perm_y)
    rng.shuffle(perm_z)
    planted = [(i, perm_y[i], perm_z[i]) for i in range(size)]
    edges = set(planted)
    attempts = 0
    while len(edges) < size + extra_edges and attempts < 100 * (extra_edges + 1):
        e = (rng.randrange(size), rng.randrange(size), rng.randrange(size))
        edges.add(e)
        attempts += 1
    return Hypergraph3DM(size, tuple(sorted(edges))), planted


def gen_3dm_no(size: int, seed: int) -> Hypergraph3DM:
    """Hypergraph with no perfect matching.

    Structural family: y-node `size-1` appears in no edge while every x and
    z node has degree >= 1, so no matching can cover Y.
    """
    if size < 2:
        raise ValueError("size >= 2 required")
    rng = random.Random(seed)
    edges: Set[Tuple[int, int, int]] = set()
    # guarantee every x and z is covered, using only y-nodes 0..size-2
    for x in range(size):
        edges.add((x, rng.randrange(size - 1), x))
    extra = rng.randrange(size)
    for _ in range(extra):
        edges.add(
            (rng.randrange(size), rng.randrange(size - 1), rng.randrange(size))
        )
    return Hypergraph3DM(size, tuple(sorted(edges)))


def _gap_candidates(eps: Epsilon, rng: random.Random, budget: int):
    """Yield candidate small instances biased toward tight heavy/light splits.

    First a structured family on 4 agents / 2 heavy + 4 light items where
    each agent wants one heavy item and a pair of lights (the regime where
    fractional splitting beats every integral assignment), then uniform
    random fillers.
    """
    items = [Item(0, HEAVY), Item(1, HEAVY)] + [Item(j, LIGHT) for j in range(2, 6)]
    pairs = list(itertools.combinations(range(2, 6), 2))
    structured = list(itertools.product(pairs, pairs, pairs, pairs))
    rng.shuffle(structured)
    for combo in structured[:budget]:
        interests = [
            [0] + list(combo[0]),
            [0] + list(combo[1]),
            [1] + list(combo[2]),
            [1] + list(combo[3]),
        ]
        yield Instance(eps, items, interests)
    # uniform fallback
    for _ in range(budget):
        n = rng.randint(2, 4)
        mh = rng.randint(0, 2)
        ml = rng.randint(1, 4)
        yield gen_random(n, mh, ml, rng.uniform(0.3, 0.9), eps, rng.randrange(2**30))


@functools.cache
def _same_kind_relabelings(h: int, l: int) -> np.ndarray:
    """One row per permutation of h heavy and l light item ranks.

    Bits 0..h-1 of a mask are heavy ranks and bits h..h+l-1 light ranks;
    entry `mask` of a row is the mask with its bits permuted, heavy among
    heavy and light among light.  That is h!*l! rows of 2^(h+l) entries
    each: 48 of 64 for the gap search's 2 heavy and 4 light items.
    """
    m = h + l
    tables = []
    for heavy in itertools.permutations(range(h)):
        for light in itertools.permutations(range(h, m)):
            to = heavy + light
            table = [0] * (1 << m)
            for mask in range(1, 1 << m):
                low = mask & -mask
                table[mask] = table[mask ^ low] | (1 << to[low.bit_length() - 1])
            tables.append(table)
    tables = np.array(tables, dtype=np.int64)
    tables.setflags(write=False)
    return tables


def _isomorphism_key(inst: Instance) -> tuple:
    """Equal for two instances iff one is the other after renaming agents,
    heavy items among heavy items and light items among light items.

    Each agent's interests become a bitmask over item ranks (heavy ids
    ranked among the sorted heavy ids, light among the light); the key is
    the lexicographically least sorted mask list over all same-kind
    relabelings, found in one gather, one row sort and one `np.lexsort`.
    Exponential in the item count: meant for the gap search's tiny
    candidates.
    """
    heavy, light = sorted(inst.heavy_ids), sorted(inst.light_ids)
    bit = {j: 1 << r for r, j in enumerate(heavy + light)}
    masks = [sum(bit[j] for j in s) for s in inst.interests]
    rows = np.sort(_same_kind_relabelings(len(heavy), len(light))[:, masks], axis=1)
    # np.lexsort sorts by its last key first: the columns go in reversed
    least = rows[np.lexsort(rows.T[::-1])[0]]
    return len(heavy), len(light), tuple(least.tolist())


def search_gap_witness(
    n_max: int,
    m_max: int,
    eps: Epsilon,
    budget: int,
    seed: int,
) -> Tuple[Optional[Instance], LatticeValue, LatticeValue]:
    """Search for the instance maximizing T*/OPT; stops early at ratio 2.

    Returns (instance, Tstar, opt).  Instances with OPT = 0 are skipped
    (the ratio is undefined there); if no probe beats ratio 1 the
    best-found ratio-1 instance is returned.

    A candidate replaces the best only on a strictly greater ratio rho,
    so after the first one only T* > rho*OPT matters: `clp.estimate_Tstar`
    is asked for T* above that bound, and rules a candidate out with one
    LP probe.

    A candidate isomorphic to one already visited (`_isomorphism_key`) is
    skipped before its OPT is computed.  It has the same OPT and T* as its
    first copy.  Where that OPT is 0 it would be skipped anyway; otherwise
    it has the same ratio, and rho, which never falls, has been at least
    that ratio since the first copy was seen, whether that copy became
    the best, lost to it, or was ruled out by its probe.  A repeat can
    never beat rho, so skipping it leaves the returned (instance, T*, OPT)
    unchanged.
    """
    from . import clp  # local import: clp pulls in the simplex machinery

    rng = random.Random(seed)
    best = None
    best_ratio = None  # Fraction
    seen = set()
    for inst in _gap_candidates(eps, rng, budget):
        if inst.n > n_max or inst.m > m_max:
            continue
        key = _isomorphism_key(inst)
        if key in seen:
            continue
        seen.add(key)
        opt_v, _ = exact.opt(inst)
        if opt_v.is_zero():
            continue
        # key(T) > rho*OPT*q iff key(T) > floor(rho*OPT*q), keys being integers
        beat = (None if best_ratio is None
                else math.floor(best_ratio * opt_v.as_fraction(eps) * eps.denominator))
        tstar = clp.estimate_Tstar(inst, beat)
        if tstar is None:
            continue  # T* <= rho*OPT: no better than the best
        ratio = tstar.as_fraction(eps) / opt_v.as_fraction(eps)
        if best_ratio is None or ratio > best_ratio:
            best_ratio = ratio
            best = (inst, tstar, opt_v)
        if ratio >= 2:
            break
    if best is None:
        return None, ZERO, ZERO
    return best
