import importlib
import random
from pathlib import Path

import pytest

from maxminalloc.model import Epsilon
from maxminalloc import gen

BENCH = Path(__file__).resolve().parent.parent / "bench"


def small_corpus():
    """Random exact-solvable instances: n in 3..5, m <= 12, m_heavy <= 6.

    With at least 3 agents and at most 6 heavy items the total weight is
    at most 9, so the CLP threshold T* <= W/n <= 3 on every instance.
    """
    shapes = [(3, 2, 6), (3, 4, 8), (4, 3, 7), (4, 6, 6), (5, 2, 8), (5, 5, 7)]
    out = []
    seed = 0
    for p, q in [(1, 2), (1, 3), (1, 4)]:
        eps = Epsilon(p, q)
        for density in (0.3, 0.6, 1.0):
            for n, mh, ml in shapes:
                for _ in range(4):
                    out.append(gen.gen_random(n, mh, ml, density, eps, seed))
                    seed += 1
    return out


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


@pytest.fixture(scope="module")
def planted():
    """bench/planted.py, the planted-OPT generator of the benchmark."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("planted")


@pytest.fixture(scope="module")
def search_inputs(corpus, planted):
    """The corpus, 40 gen_random instances (n <= 8, m <= 24) and 24 clean
    planted ones (n <= 24, eps 1/4 to 1/30)."""
    rng = random.Random(28)
    out = list(corpus)
    for _ in range(40):
        n, m = rng.randint(1, 8), rng.randint(1, 24)
        mh = rng.randint(0, m)
        out.append(gen.gen_random(n, mh, m - mh, rng.choice([0.3, 0.6, 1.0]),
                                  Epsilon(1, rng.randint(2, 12)), rng.randrange(2**30)))
    for _ in range(24):
        q = rng.randint(4, 30)
        out.append(planted.planted_instance(rng.randint(2, 24), Epsilon(1, q), rng.randint(1, q),
                                            rng.randrange(2**30), False)[0])
    return out
