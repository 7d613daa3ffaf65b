"""rng-lineage via the bulk constructor: collision, orphan, headless (3)."""

from repro.simulation.rng import RngStream


def day_streams(seed):
    root = RngStream(seed, "fixture.bulk")
    streams = root.children(["d0", "d1"])
    return [rng.random() for rng in streams]


def replay_day(seed):
    rng = RngStream(seed, "fixture.bulk.d0")
    return rng.random()


def spare_streams(seed):
    root = RngStream(seed, "fixture.spare")
    spare = root.children(f"w{w}" for w in range(3))
    return root.random()


def headless_streams(seed, kinds):
    root = RngStream(seed, "fixture.kinds")
    return list(root.children(f"{kind}" for kind in kinds))
