"""rng-lineage via the bulk constructor: same constructs, suppressed."""

from repro.simulation.rng import RngStream


def day_streams(seed):
    root = RngStream(seed, "fixture.bulk")
    streams = root.children(["d0", "d1"])
    return [rng.random() for rng in streams]


def replay_day(seed):
    # Intentional replay of one bulk-built day stream (load path).
    rng = RngStream(seed, "fixture.bulk.d0")  # repro: lint-ok[rng-lineage]
    return rng.random()


def spare_streams(seed):
    root = RngStream(seed, "fixture.spare")
    # Reserved derivation, consumer lands in a later change.
    spare = root.children(f"w{w}" for w in range(3))  # repro: lint-ok[rng-lineage]
    return root.random()


def headless_streams(seed, kinds):
    root = RngStream(seed, "fixture.kinds")
    return list(root.children(f"{kind}" for kind in kinds))  # repro: lint-ok[rng-lineage]
