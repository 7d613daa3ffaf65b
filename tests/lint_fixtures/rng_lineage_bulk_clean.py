"""rng-lineage via the bulk constructor: the sanctioned idiom -- one
owner, one batch of named children per unit of work."""

from repro.simulation.rng import RngStream


def day_streams(seed, days):
    root = RngStream(seed, "fixture.bulk")
    return [rng.random() for rng in root.children(f"d{day}" for day in days)]


def writer_streams(seed, writers):
    root = RngStream(seed, "fixture.writers")
    streams = root.children([f"w{w}" for w in writers])
    return [rng.random() for rng in streams]
