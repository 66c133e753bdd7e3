import random
import time

from markovtraj import ChainModel, FiniteSpace, Kernel, LoadedModel, TupleSpace
from markovtraj.verify import run_verify

from conftest import random_dist


def test_verify_passes_on_a_729_trajectory_chain():
    # 3 states at every depth up to 5: the split checks compare rows on a
    # pair space of 729 * 729 points.  Budget 60 s; about 1 s on a 2-vCPU VM.
    start = time.perf_counter()
    rng = random.Random(729)
    spaces = [FiniteSpace(f"X{i}", ["s0", "s1", "s2"]) for i in range(6)]
    steps = [
        Kernel(
            TupleSpace(spaces[: n + 1]),
            spaces[n + 1],
            [random_dist(rng, spaces[n + 1]) for _ in range(3 ** (n + 1))],
        )
        for n in range(5)
    ]
    report = run_verify(LoadedModel(ChainModel(spaces, steps)))
    assert report.ok
    assert len(report.lines) == 3 * 56 + 3 + 2 * 21
    assert time.perf_counter() - start < 60
