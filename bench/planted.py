"""Seeded instances with a planted allocation, so OPT >= planted is known.

Half the agents (rounded down) are heavy-planted: each gets one heavy item
of its own and wants HEAVY_NOISE other random heavy items, but no light
item.  The others are light-planted: each gets `k` light items of its own
and also wants CROSS_NOISE random heavy items and, on a noisy instance,
LIGHT_NOISE random other light items.  There are exactly as many heavy
items as heavy-planted agents, so no allocation gives every agent two items and the
1/eps count baseline is held at one item per agent (value eps), well below
the planted value min(1, k*eps).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, FrozenSet, Tuple

from maxminalloc.model import Epsilon, Instance, Item

import reference

HEAVY_NOISE = 3
CROSS_NOISE = 2
LIGHT_NOISE = 3


def planted_instance(
    n: int,
    eps: Epsilon,
    k: int,
    seed: int,
    noisy: bool,
) -> Tuple[Instance, Dict[int, FrozenSet[int]], Fraction]:
    """Return (instance, planted allocation, planted value).

    On a noisy instance light items are contested: light-planted agents
    also want other agents' light items.

    The planted allocation is checked with the independent checker before
    it is returned, and its value is recomputed exactly.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    rng = random.Random(seed)
    n_heavy = n // 2
    n_light = n - n_heavy
    heavy_ids = list(range(n_heavy))
    light_ids = list(range(n_heavy, n_heavy + n_light * k))
    items = [Item(j, "heavy") for j in heavy_ids] + [Item(j, "light") for j in light_ids]

    agents = list(range(n))
    rng.shuffle(agents)  # which agent ids are heavy-planted
    rng.shuffle(heavy_ids)
    rng.shuffle(light_ids)
    plan: Dict[int, FrozenSet[int]] = {}
    interests = [set() for _ in range(n)]
    for idx, agent in enumerate(agents[:n_heavy]):
        plan[agent] = frozenset([heavy_ids[idx]])
        interests[agent] |= plan[agent]
        interests[agent] |= set(rng.sample(heavy_ids, min(HEAVY_NOISE, n_heavy)))
    for idx, agent in enumerate(agents[n_heavy:]):
        plan[agent] = frozenset(light_ids[idx * k:(idx + 1) * k])
        interests[agent] |= plan[agent]
        if noisy:
            interests[agent] |= set(rng.sample(light_ids, min(LIGHT_NOISE, len(light_ids))))
        interests[agent] |= set(rng.sample(heavy_ids, min(CROSS_NOISE, n_heavy)))
    inst = Instance(eps, items, [sorted(s) for s in interests])
    value = reference.allocation_value(inst, plan)  # raises if the plan is invalid
    if value != min(Fraction(1), k * reference.eps_of(inst)):
        raise AssertionError(f"planted value {value} is not min(1, k*eps)")
    return inst, plan, value
