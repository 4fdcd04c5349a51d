"""One exit rule for every simulator: a unit that dies in a step ends its
growth record at 0, and the entrant that takes its slot starts a new one."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firmgrowth import cli
from firmgrowth.cli import RunSpec
from firmgrowth.model import Allocation, Rounding, Scenario


@st.composite
def dying_runs(draw):
    """(kind, config) of a tiny 60-iteration run whose units die often: 4-12
    units of 2-3 workers each, and noise as wide as the sizes."""
    preset = draw(st.sampled_from(["ScenarioI", "ScenarioII", "Additive", "Multiplicative",
                                   "ScaledBeta"]))
    n = draw(st.integers(4, 12))
    overrides = {"n_workers": n * draw(st.integers(2, 3)), "iterations": 60}
    if cli.PRESETS[preset].kind == "model":
        overrides.update(n_firms=n, margin=draw(st.sampled_from([0.5, 1.0])),
                         allocation=draw(st.sampled_from(list(Allocation))))
        if preset == "ScenarioII":
            # A price below the wage makes job offers fractional: a firm that
            # sold something can round to no offer and die.
            overrides.update(rounding=draw(st.sampled_from(list(Rounding))),
                             price=draw(st.sampled_from([0.5, 0.8])))
    else:
        sigmas = [2.0, 5.0] if preset == "Additive" else [0.5, 1.0]
        overrides.update(n_units=n, sigma=draw(st.sampled_from(sigmas)))
        if preset == "ScaledBeta":
            overrides["beta"] = draw(st.sampled_from([0.0, 0.25, 0.5]))
    seed = draw(st.integers(1, 2**32))
    return cli.materialize(RunSpec(preset=preset, overrides=overrides), seed)


def _reporting(step, reported):
    """``step``, which also appends the units it reports replaced to ``reported``."""
    def wrapped(*args):
        sizes, ended = step(*args)
        reported.append(ended)
        return sizes, ended
    return wrapped


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dying_runs())
def test_a_dead_unit_ends_its_growth_record(run):
    # Each step's records follow the units that held something before it:
    # a unit replaced in the step ends at 0, every other one at what it
    # holds after the step (employees or sizes; sales in ScenarioII).
    kind, cfg = run
    sim, reported = cli._simulator(kind, cfg), []
    sales = kind == "model" and cfg.scenario is Scenario.WORKERS_ONLY_CONSUME
    ended = 0
    with pytest.MonkeyPatch.context() as patch:
        for name in ("step_additive", "step_scaled_beta"):
            patch.setattr(cli, name, _reporting(getattr(cli, name), reported))
        for _ in range(cfg.iterations):
            held = sim.sold if sales else sim.size
            units = np.flatnonzero(held > 0)  # the order of the growth records
            before = held[units].astype(float)
            records = sim.step().records()
            replaced = np.isin(units, sim.last_replaced if kind == "model" else reported[-1])
            after = (sim.sold if sales else sim.size)[units].astype(float)
            after[replaced] = 0.0
            assert np.array_equal(records[0], before)
            assert np.array_equal(records[1], after)
            ended += int(replaced.sum())
    assert ended > 0
