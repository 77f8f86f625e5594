"""The k x k convex program that answers the cores no family answers."""
from pathlib import Path

import numpy as np
import pytest

from usdkit import (NoSolutionFound, WeightedDensityPair, dispatch,
                    oracle_optimize, reduce_fully, solve_4d, sweep)
from usdkit import pipeline, program
from usdkit.pipeline import BLOCK_STRUCTURE_NOTE, load_problem

from util import example1_states, generic_pair, jordan_cosine_states

DATA = Path(__file__).parent / "data"

# every third prior of the sweep tests' grid
PRIORS = np.linspace(0.01, 0.99, 33)


@pytest.mark.parametrize("d, seed, p1", [
    (d, seed, p1) for d in (6, 7) for seed in range(3) for p1 in (0.3, 0.7)])
def test_program_certifies_rank_33_pairs_like_the_oracle(d, seed, p1):
    # strictly skew rank-(3,3) pairs, in C^7 with a common kernel: no
    # closed form answers, the program does, checker-certified with a
    # verified certificate, and the theory-free oracle finds its success
    rho1, rho2 = generic_pair(np.random.default_rng([d, 3, 3, seed]), d, 3, 3)
    pair = WeightedDensityPair.from_states(rho1, rho2, p1)
    outcome = dispatch(pair)
    assert outcome.branch == "convex-program"
    assert outcome.optimal and outcome.certificate is not None
    assert outcome.success == pytest.approx(oracle_optimize(pair).success,
                                            abs=1e-9)


def _program_success(core):
    """tr(A1 Y1) + tr(A2 Y2) of the program on the core's canonical data,
    or None when it declines."""
    split = core.jordan
    blocks = program._program_blocks(core.root_blocks,
                                     split.cosines[split.skew])
    if blocks is None:
        return None
    return sum(np.trace(root.block @ y).real
               for root, y in zip(core.root_blocks, blocks))


_FAMILIES = {
    "example1": example1_states,
    "4;2,2": lambda: generic_pair(np.random.default_rng([4, 2, 2]), 4, 2, 2),
    **{f"cosines {c0}, {c1}": (
        lambda c0=c0, c1=c1: jordan_cosine_states(
            np.random.default_rng([int(c0 * 1e6), int(c1 * 1e6)]), c0, c1))
       for c0, c1 in ((0.9, 0.1), (0.99, 0.5), (0.9999, 0.3), (0.7, 1e-4),
                      (1 - 1e-6, 1e-6))},
}


def test_program_matches_solve_4d_across_every_class_face():
    # an independent reference for the analytic families: at every prior
    # where solve_4d answers, the program on the same core's (A1, A2, c)
    # has its success, through every class and every face between them,
    # over the whole cosine range.  Only on the pair that is both near
    # parallel and near orthogonal (1 - c0 = c1 = 1e-6) may it decline
    # (it runs out its steps), never answer otherwise
    branches = set()
    declined = 0
    for name, states in _FAMILIES.items():
        rho1, rho2 = states()
        for p1 in PRIORS:
            core = reduce_fully(
                WeightedDensityPair.from_states(rho1, rho2, p1)).reduced_pair
            try:
                outcome = solve_4d(core)
            except NoSolutionFound:
                continue
            branches.add(outcome.branch)
            success = _program_success(core)
            if success is None:
                assert name == "cosines 0.999999, 1e-06", (name, p1)
                declined += 1
                continue
            assert success == pytest.approx(outcome.success, abs=1e-12), (
                name, p1)
    assert branches == {"single-state-detection", "fidelity-form",
                        "class-12", "class-11"}
    assert declined < len(PRIORS)


def test_a_refused_program_leaves_the_oracle_answer(monkeypatch):
    # where the check refuses the program's point, dispatch returns what
    # the oracle fallback alone returns on the pair, as if the program had
    # not run
    rho1, rho2 = generic_pair(np.random.default_rng([7, 3, 3, 0]), 7, 3, 3)
    pair = WeightedDensityPair.from_states(rho1, rho2, 0.3)
    refused = []
    monkeypatch.setattr(program, "accepted_outcome",
                        lambda m, core, branch: refused.append(branch))
    outcome = dispatch(pair)
    assert refused == ["convex-program"]
    expected = pipeline._oracle_fallback(reduce_fully(pair), pair, None,
                                         (BLOCK_STRUCTURE_NOTE,))
    assert outcome.branch == expected.branch == "oracle-checker"
    assert outcome.certificate is None
    for name in ("e1", "e2", "e_inconclusive"):
        assert np.array_equal(getattr(outcome.measurement, name),
                              getattr(expected.measurement, name)), name
    assert outcome.success == expected.success
    assert outcome.class_tag == expected.class_tag
    assert outcome.report == expected.report
    assert outcome.warnings == expected.warnings


def test_near_orthogonal4_sweep_reaches_no_oracle():
    # the (4;2,2) pair with Jordan cosines 0.5 and 5e-9: the priors that no
    # family answers are the program's
    problem = load_problem(DATA / "near_orthogonal4.json")
    rows = sweep(problem.rho1, problem.rho2, np.linspace(0.01, 0.99, 99))
    assert not [r.p1 for r in rows if r.branch.startswith("oracle")]
    assert "convex-program" in {r.branch for r in rows}
