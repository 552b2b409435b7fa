import random
from pathlib import Path

import pytest
from oracles import reference_measure_fields, reference_slice_fields

from condatom import InvariantError, is_conditionally_atomless
from condatom.generate import (
    GeneratorParams,
    generate_event,
    generate_family,
    generate_instance,
    generate_measure,
    generate_positive_event,
    generate_scenario,
    generate_space,
    positive_weights,
    rng_for,
)
from condatom.scenario import serialize_scenario

GOLDEN = Path(__file__).parent / "golden"


def test_same_seed_gives_identical_instances():
    params = GeneratorParams(max_fibers=5, max_pieces=8, atom_probability=0.5)
    a = generate_space(rng_for(99, "determinism"), params)
    b = generate_space(rng_for(99, "determinism"), params)
    assert a == b
    assert a != generate_space(rng_for(100, "determinism"), params)


def test_zero_atom_probability_is_atomless():
    params = GeneratorParams(max_fibers=6, max_pieces=8, atom_probability=0.0)
    rng = rng_for(1, "no-atoms")
    for _ in range(30):
        assert is_conditionally_atomless(generate_space(rng, params))


def test_certain_atoms_always_witnessed():
    params = GeneratorParams(max_fibers=4, max_pieces=6, atom_probability=1.0)
    rng = rng_for(2, "all-atoms")
    for _ in range(30):
        space = generate_space(rng, params)
        assert all(f.measure.atoms for f in space.fibers)
        assert not is_conditionally_atomless(space)


def test_bounds_are_enforced():
    with pytest.raises(InvariantError, match="fiber bound"):
        GeneratorParams(max_fibers=9)
    with pytest.raises(InvariantError, match="piece bound"):
        GeneratorParams(max_pieces=16)
    with pytest.raises(InvariantError, match="measure bound"):
        GeneratorParams(max_measures=5)


def test_generated_objects_satisfy_invariants():
    # constructors validate, so surviving construction is the check
    params = GeneratorParams(max_fibers=8, max_pieces=15, atom_probability=0.5, max_measures=4)
    rng = rng_for(3, "validity")
    for _ in range(40):
        space = generate_space(rng, params)
        generate_event(rng, space)
        generate_family(rng, params)
        assert sum(positive_weights(rng, 4)) == 1


def test_positive_events_have_positive_mass():
    params = GeneratorParams(max_fibers=6, max_pieces=8, atom_probability=0.3)
    rng = rng_for(4, "positive")
    for _ in range(30):
        space = generate_space(rng, params)
        everywhere = generate_positive_event(rng, space, every_fiber=True)
        assert all(c > 0 for c in space.cond_expectation(everywhere))
        somewhere = generate_positive_event(rng, space, every_fiber=False)
        assert space.measure(somewhere) > 0


def test_scenarios_are_deterministic():
    assert generate_scenario(rng_for(5, "sc")) == generate_scenario(rng_for(5, "sc"))


def test_generate_instance_is_seed_deterministic():
    a = generate_instance(21, with_family=True)
    b = generate_instance(21, with_family=True)
    assert a == b
    assert a.space.n_fibers >= 1
    assert set(a.sets) == {"A", "C"}
    assert a.measures is not None
    assert a != generate_instance(22, with_family=True)


@pytest.mark.parametrize("seed", [0, 4, 8])
def test_golden_generated_scenarios_are_regenerated_byte_for_byte(seed):
    # the golden corpus holds generate_scenario(random.Random(seed)) as recorded
    text = serialize_scenario(generate_scenario(random.Random(seed)))
    assert text == (GOLDEN / f"generated-{seed}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("atom_probability", [0.0, 0.5, 1.0])
def test_measures_follow_the_reference_random_stream(atom_probability):
    # equal fields from the same draws, and the stream left at the same place
    for seed in range(1000):
        max_pieces = 1 + seed % 15
        params = GeneratorParams(max_pieces=max_pieces, atom_probability=atom_probability)
        rng, ref = random.Random(seed), random.Random(seed)
        m = generate_measure(rng, params)
        want = reference_measure_fields(ref, max_pieces, atom_probability)
        assert (m.atoms, m.breakpoints, m.densities) == want, seed
        assert rng.random() == ref.random(), seed


def test_events_follow_the_reference_random_stream():
    params = GeneratorParams(max_fibers=8, max_pieces=6, atom_probability=0.5)
    for seed in range(300):
        space = generate_space(random.Random(seed), params)
        rng, ref = random.Random(seed), random.Random(seed)
        event = generate_event(rng, space)
        want = [reference_slice_fields(ref, f.measure.atom_locations) for f in space.fibers]
        assert [(s.intervals, s.picks) for s in event.slices] == want, seed
        assert rng.random() == ref.random(), seed
