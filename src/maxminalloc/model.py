"""Instance/allocation data model with exact lattice arithmetic.

Every bundle weight in the (1, eps)-restricted problem has the form
h + l*eps with integer h, l >= 0, so all values (including optima and LP
thresholds) live on a finite lattice and compare exactly via integer
arithmetic.  No floats are used anywhere in this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

HEAVY = "heavy"
LIGHT = "light"


class ParseError(ValueError):
    """Raised on malformed instance/allocation files."""


@dataclass(frozen=True)
class Epsilon:
    """Light-item weight eps = numerator/denominator, 0 < eps < 1, lowest terms."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0 or self.numerator <= 0:
            raise ParseError("epsilon out of range")
        if self.numerator >= self.denominator:
            raise ParseError("epsilon out of range")
        g = math.gcd(self.numerator, self.denominator)
        if g != 1:
            object.__setattr__(self, "numerator", self.numerator // g)
            object.__setattr__(self, "denominator", self.denominator // g)

    @classmethod
    def parse(cls, text: str) -> "Epsilon":
        try:
            p, q = text.strip().split("/")
            return cls(int(p), int(q))
        except ParseError:
            raise
        except Exception:
            raise ParseError(f"bad epsilon {text!r}") from None

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True, order=False)
class LatticeValue:
    """Exact value h + l*eps stored as the integer pair (h, l).

    Comparison needs the eps context: use key(eps).  h1+l1*eps <= h2+l2*eps
    iff h1*q + l1*p <= h2*q + l2*p where eps = p/q.
    """

    h: int
    l: int

    def key(self, eps: Epsilon) -> int:
        """Value scaled by eps.denominator; exact integer comparison key."""
        return self.h * eps.denominator + self.l * eps.numerator

    def as_fraction(self, eps: Epsilon) -> Fraction:
        return self.h + self.l * eps.fraction

    def is_zero(self) -> bool:
        return self.h == 0 and self.l == 0

    def __repr__(self) -> str:
        return f"LatticeValue({self.h}, {self.l})"


ZERO = LatticeValue(0, 0)


@dataclass(frozen=True)
class Item:
    id: int
    kind: str  # HEAVY or LIGHT


class Instance:
    """Immutable (1, eps)-restricted allocation instance.

    Items carry dense ids 0..m-1; agents carry dense ids 0..n-1.  The
    per-agent interest sets are deduplicated and validated at construction.
    """

    def __init__(self, epsilon: Epsilon, items: List[Item], interests: List[Iterable[int]]):
        self.epsilon = epsilon
        self.items = list(items)
        if [it.id for it in self.items] != list(range(len(self.items))):
            seen = set()
            for it in self.items:
                if it.id in seen:
                    raise ParseError(f"duplicate item id {it.id}")
                seen.add(it.id)
            raise ParseError("item ids must be dense 0..m-1")
        for it in self.items:
            if it.kind not in (HEAVY, LIGHT):
                raise ParseError(f"bad item kind {it.kind!r}")
        if len(interests) < 1:
            raise ParseError("need at least one agent")
        self.interests: List[FrozenSet[int]] = []
        for i, ids in enumerate(interests):
            s = frozenset(ids)
            for j in s:
                if not (isinstance(j, int) and 0 <= j < len(self.items)):
                    raise ParseError(f"unknown item id {j}")
            self.interests.append(s)
        self.heavy_ids = frozenset(it.id for it in self.items if it.kind == HEAVY)
        self.light_ids = frozenset(it.id for it in self.items if it.kind == LIGHT)
        self._b1 = [tuple(sorted(s & self.heavy_ids)) for s in self.interests]
        self._beps = [tuple(sorted(s & self.light_ids)) for s in self.interests]

    @property
    def n(self) -> int:
        return len(self.interests)

    @property
    def m(self) -> int:
        return len(self.items)

    def b1(self, i: int) -> Tuple[int, ...]:
        """Heavy items agent i is interested in, ascending."""
        return self._b1[i]

    def beps(self, i: int) -> Tuple[int, ...]:
        """Light items agent i is interested in, ascending."""
        return self._beps[i]

    def bundle_value(self, items: Iterable[int]) -> LatticeValue:
        h = l = 0
        for j in items:
            if self.items[j].kind == HEAVY:
                h += 1
            else:
                l += 1
        return LatticeValue(h, l)


def lowest_free(items: Sequence[int], taken, count: int) -> Optional[Tuple[int, ...]]:
    """The first `count` (at least 1) entries of ascending `items` that are
    not in `taken`, or None when fewer than `count` are free."""
    fresh = []
    for j in items:
        if j not in taken:
            fresh.append(j)
            if len(fresh) == count:
                return tuple(fresh)
    return None


Allocation = Dict[int, FrozenSet[int]]


def _json_int(value, what: str) -> int:
    """`value` when it is a JSON integer; JSON true and 1.0 are not."""
    if type(value) is not int:
        raise ParseError(f"bad {what} {value!r}")
    return value


def parse_instance(text: bytes) -> Instance:
    try:
        doc = json.loads(text.decode("utf-8"))
    except Exception as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    try:
        eps = Epsilon.parse(doc["epsilon"])
        items = sorted((Item(_json_int(it["id"], "item id"), it["kind"]) for it in doc["items"]),
                       key=lambda it: it.id)
        agents_by_id = {}
        for ag in doc["agents"]:
            aid = _json_int(ag["id"], "agent id")
            if aid in agents_by_id:
                raise ParseError(f"duplicate agent id {aid}")
            agents_by_id[aid] = [_json_int(j, "item id") for j in ag.get("interests", [])]
        if set(agents_by_id) != set(range(len(agents_by_id))):
            raise ParseError("agent ids must be dense 0..n-1")
        return Instance(eps, items, [agents_by_id[i] for i in range(len(agents_by_id))])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc!r}") from None


def serialize_instance(inst: Instance) -> bytes:
    doc = {
        "epsilon": str(inst.epsilon),
        "items": [{"id": it.id, "kind": it.kind} for it in inst.items],
        "agents": [
            {"id": i, "interests": sorted(inst.interests[i])} for i in range(inst.n)
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True).encode("utf-8")


def parse_allocation(text: bytes) -> Allocation:
    try:
        doc = json.loads(text.decode("utf-8"))
        alloc = {}
        for a, js in doc["assignment"].items():
            if str(int(a)) != a:  # in decimal as serialized: not "01", "+1" or "1_0"
                raise ParseError(f"bad agent key {a!r}")
            alloc[int(a)] = frozenset(_json_int(j, "item id") for j in js)
        return alloc
    except Exception as exc:
        raise ParseError(f"malformed allocation: {exc}") from None


def serialize_allocation(alloc: Allocation) -> bytes:
    doc = {"assignment": {str(a): sorted(js) for a, js in sorted(alloc.items())}}
    return json.dumps(doc, indent=1, sort_keys=True).encode("utf-8")


def verify_allocation(inst: Instance, alloc: Allocation) -> List[str]:
    """Return a list of violation messages; empty iff the allocation is valid."""
    report = []
    seen: Dict[int, int] = {}
    for i, js in alloc.items():
        if not (0 <= i < inst.n):
            report.append(f"unknown agent {i}")
            continue
        for j in js:
            if not (0 <= j < inst.m):
                report.append(f"unknown item {j}")
                continue
            if j in seen:
                report.append(f"duplicate item {j} (agents {seen[j]} and {i})")
            else:
                seen[j] = i
            if j not in inst.interests[i]:
                report.append(f"agent {i} not interested in item {j}")
    return report


def min_value(inst: Instance, alloc: Allocation) -> LatticeValue:
    """Minimum received weight over ALL agents; unassigned agents count (0,0)."""
    report = verify_allocation(inst, alloc)
    if report:
        raise ValueError("invalid allocation: " + "; ".join(report))
    eps = inst.epsilon
    best = None
    for i in range(inst.n):
        v = inst.bundle_value(alloc.get(i, frozenset()))
        if best is None or v.key(eps) < best.key(eps):
            best = v
    return best


def lattice_values(inst: Instance, cap: Optional[Fraction] = None) -> List[LatticeValue]:
    """Sorted, deduplicated {h + l*eps : 0<=h<=#heavy, 0<=l<=#light}, only
    the values up to `cap` when it is given."""
    eps = inst.epsilon
    p, q = eps.numerator, eps.denominator
    H, L = len(inst.heavy_ids), len(inst.light_ids)
    top = H * q + L * p if cap is None else math.floor(cap * q)  # largest key kept
    by_key: Dict[int, LatticeValue] = {}
    for h in range(min(H, top // q) + 1):
        for l in range(min(L, (top - h * q) // p) + 1):
            v = LatticeValue(h, l)
            k = v.key(eps)
            # keep the representation with the smallest heavy part
            if k not in by_key or (h, l) < (by_key[k].h, by_key[k].l):
                by_key[k] = v
    return [by_key[k] for k in sorted(by_key)]


def packing_cap(inst: Instance) -> int:
    """Largest lattice key that OPT or the LP threshold T* can take.

    Returns cap = min(min_i v(I_i), floor(key(W) / n)) in key units
    (`LatticeValue.key`), where I_i is agent i's interest set and W is the
    total weight of the items at least one agent wants.

    Above min_i v(I_i) some agent has no configuration at all.  For the
    second term take a CLP(T) point at coverage level lambda: every
    configuration is worth at least T and every item is packed at most
    once, so n*T*lambda <= sum_{i,S} x_{iS} v(S) <= W.  With lambda = 1
    (a T-allocation is such a point) this gives key(OPT) <= cap and
    key(T*) <= cap exactly.  The LP predicate is a float test, lambda* >=
    1 - clp.DEFAULT_TOL, but it agrees: at a lattice value T above the
    cap n*key(T) >= key(W) + 1, so lambda* <= 1 - 1/(key(W) + 1), which
    fails the test whenever key(W) < 10**9 - 1.  Searching only up to the
    cap therefore answers as searching the whole lattice does.

    Both terms are cuts of the allocation network of
    `flowkit.weight_feasible`, with every item capped at its full weight:
    the edges into the sink from the wanted items, of capacity key(W),
    against the agents' supply n*key(T), and for each agent i its item
    edges, of capacity v(I_i), against its supply key(T).  That network
    caps item j at min(w_j, key(T)) and saturates only where its minimum
    cut allows, so its flow cap is at most this cap.
    """
    p, q = inst.epsilon.numerator, inst.epsilon.denominator
    wanted = frozenset().union(*inst.interests)
    w_key = sum(q if j in inst.heavy_ids else p for j in wanted)
    reach = min(len(inst.b1(i)) * q + len(inst.beps(i)) * p for i in range(inst.n))
    return min(reach, w_key // inst.n)


def capped_values(inst: Instance, upper: Optional[LatticeValue] = None) -> List[LatticeValue]:
    """The lattice values up to `packing_cap`, and up to `upper` when given:
    the values a search for OPT or T* has to look at."""
    key = packing_cap(inst)
    if upper is not None:
        key = min(key, upper.key(inst.epsilon))
    return lattice_values(inst, Fraction(key, inst.epsilon.denominator))


def last_feasible(values: Sequence, probe: Callable) -> Tuple[int, Optional[object]]:
    """Binary search for the last value a monotone probe passes.

    `probe` returns a payload when a value passes and None when it fails;
    the passing values must form a prefix of `values`.  Returns the index
    of the last passing value and its payload, or (-1, None) when none
    passes.  Probes visit mid = (lo + hi) // 2 in the usual order.
    """
    lo, hi = 0, len(values) - 1
    found: Tuple[int, Optional[object]] = (-1, None)
    while lo <= hi:
        mid = (lo + hi) // 2
        payload = probe(values[mid])
        if payload is not None:
            found = (mid, payload)
            lo = mid + 1
        else:
            hi = mid - 1
    return found


def k_of(T: LatticeValue, eps: Epsilon) -> int:
    """ceil(T / eps), exactly.  T must be positive."""
    tkey = T.key(eps)
    if tkey <= 0:
        raise ValueError("k_of requires T > 0")
    # T/eps = (h*q + l*p) / p
    return -(-tkey // eps.numerator)


def lights_needed(T: LatticeValue, eps: Epsilon, heavies: int) -> int:
    """Minimum light count l with heavies + l*eps >= T (0 if already enough)."""
    need = T.key(eps) - heavies * eps.denominator
    if need <= 0:
        return 0
    return -(-need // eps.numerator)


def minimal_count_pairs(
    T: LatticeValue, eps: Epsilon, max_h: int, max_l: int
) -> List[Tuple[int, int]]:
    """The inclusion-minimal count pairs (h, l) with h <= max_h, l <= max_l
    and h + l*eps >= T, by ascending h; empty when none reaches T.

    Each h takes the fewest lights it needs, and since eps < 1 one more
    heavy cuts that need by at least one light, until it is zero.
    """
    pairs = []
    for h in range(max_h + 1):
        l = lights_needed(T, eps, h)
        if l <= max_l:
            pairs.append((h, l))
        if l == 0:
            break
    return pairs
