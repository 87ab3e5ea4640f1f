import random

import pytest

from trideg import base_g7, construct
from trideg.graphs import graph_from_counter, pair_list, random_graph


@pytest.fixture(scope="session")
def g7():
    return base_g7()


@pytest.fixture(scope="session")
def family40():
    """Constructed family members used across unit tests."""
    return {n: construct(n) for n in range(7, 41)}


def all_graphs(n):
    """Every labeled graph on n vertices, in counter order."""
    pairs = pair_list(n)
    return [graph_from_counter(n, x, pairs) for x in range(1 << len(pairs))]


def random_graphs(seed, count, n_max, n_min=1):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        out.append(random_graph(rng, n, rng.uniform(0.1, 0.9)))
    return out


def stop_after(slices):
    """A search progress callback that interrupts the scan, as Ctrl-C would,
    once it has extended that many slices."""
    calls = []

    def progress(done, total):
        calls.append(done)
        if len(calls) == slices:
            raise KeyboardInterrupt

    return progress
