"""The throughput and energy models accumulate per element, in body
order: on random bodies they return the very floats a naive
per-instruction loop gives (``==``, not approximately)."""

import random
from collections import defaultdict

import pytest

from repro.uarch.resources import CoreConfig
from repro.uarch.throughput import analyze_loop


def naive_unit_terms(body, config):
    unit_load = defaultdict(float)
    serialize_penalty = 0.0
    total_uops = 0
    for inst in body:
        total_uops += inst.uops
        occupancy = float(inst.latency) if not inst.pipelined else 1.0
        unit_load[inst.unit] += inst.uops * occupancy / config.unit_count(inst.unit)
        if inst.serializing:
            serialize_penalty += inst.latency - 1.0
    return total_uops, dict(unit_load), serialize_penalty


def random_bodies(isa, seed, count=200):
    """Bodies of 1-450 instructions drawn from small pools, so every
    distinct instruction repeats many times in various orders."""
    rng = random.Random(seed)
    definitions = list(isa)
    for _ in range(count):
        pool = rng.sample(definitions, rng.randint(1, 6))
        yield [rng.choice(pool) for _ in range(rng.randint(1, 450))]


#: Three instances per unit make the per-µop unit terms non-dyadic, so
#: a sum that adds them in another order, or multiplies a count by a
#: term, rounds differently.
TRIPLE_UNITS = CoreConfig(unit_counts={
    "FXU": 3, "LSU": 3, "BRU": 3, "BFU": 3,
    "DFU": 3, "VXU": 3, "SYS": 3, "COP": 3,
})


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("config", ["reference", "triple-units"])
def test_analyze_loop_matches_naive_accumulation(target, seed, config):
    config = target.core if config == "reference" else TRIPLE_UNITS
    for body in random_bodies(target.isa, seed):
        uops, unit_load, penalty = naive_unit_terms(body, config)
        profile = analyze_loop(body, config)
        assert profile.uops == uops
        assert profile.unit_load == unit_load
        assert list(profile.unit_load) == list(unit_load)
        candidates = [(float(profile.groups), "dispatch")] + [
            (load, f"unit:{unit}") for unit, load in unit_load.items()
        ]
        cycles = max(candidates, key=lambda pair: pair[0])[0] + penalty
        assert profile.cycles == cycles
        assert profile.ipc == uops / cycles


@pytest.mark.parametrize("seed", [3, 4])
def test_iteration_energy_matches_naive_sum(target, seed):
    # The reference sums the per-element products with sum(), whose
    # float accumulation differs between Python versions; the model must
    # feed it the same floats in the same order.
    model = target.energy_model
    for body in random_bodies(target.isa, seed):
        assert model.iteration_energy(body) == sum(
            model.epi(inst) * inst.uops for inst in body
        )
