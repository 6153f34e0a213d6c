"""Seeded op sequences for the four workloads.

Everything here is plain data derived from ``random.Random(seed)``: the
same seed yields the same sequence, and the program under test only ever
sees the generated inputs.  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import random

#: the six registered kernels, in the registry's sorted order
KERNELS = ("conv2d", "hotspot", "lavamd", "matmul", "nw", "sor")

#: clock axis values are drawn from this set (MHz)
CLOCK_CHOICES = tuple(float(mhz) for mhz in range(100, 305, 5))

#: distinct suite configurations one `cli` or `sweep` run cycles through
CONFIG_POOL = 4

#: lane counts of the RTL families `verify` checks (the tiny flow grid)
VERIFY_LANES = (1, 2, 4)

#: lane counts of the `/cost` designs `serve` sends
COST_LANES = (1, 2, 4, 8)

#: one deck of `serve` requests: every 25 ops hold exactly these counts,
#: shuffled, so the kind shares never vary with the seed.  Sorted by
#: latency the kinds form blocks: GETs and /cost (20%), replays (44%),
#: cold and dense sweeps (32%), then the malformed bodies (4%) that
#: currently fail after three connection retries.  The 50th percentile
#: falls well inside the replay block and the 90th inside the sweep block,
#: also once malformed bodies turn into fast 400s.
SERVE_DECK = (("metrics", 2), ("cost", 3), ("dense", 2), ("replay", 11),
              ("cold", 6), ("malformed", 1))
SERVE_DECK_SIZE = sum(n for _, n in SERVE_DECK)

#: the warm-up requests dealt before the first deck: they warm the
#: server's calibration, family, dense and /cost caches
SERVE_WARMUP = ("cold", "dense", "cost", "metrics", "replay", "cold")

#: replays pick among this many most recent cold configurations, well
#: inside the service's results cache (64 entries)
REPLAY_WINDOW = 8

#: ROADMAP item 5's malformed `/suite` bodies
MALFORMED_BODIES = ({"grids": ["A"]}, {"kernels": [[1]]})

FULL_GRID = [24, 24, 24]


def _clocks(rng: random.Random, used: set | None = None) -> list[float]:
    while True:
        clocks = sorted(rng.sample(CLOCK_CHOICES, 3))
        if used is None or tuple(clocks) not in used:
            if used is not None:
                used.add(tuple(clocks))
            return clocks


def _cycle(rng: random.Random, pool: list, count: int) -> list:
    """``count`` items cycling through ``pool`` in one seeded order."""
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [pool[order[i % len(pool)]] for i in range(count)]


def full_grid_spec(clocks: list[float]) -> dict:
    """The 306-point grid: 24^3 grids, lanes <= 64, three clocks."""
    return {"max_lanes": 64, "clocks_mhz": list(clocks),
            "grids": {name: list(FULL_GRID) for name in KERNELS}}


def cli_ops(seed: int, count: int) -> list[dict]:
    """`suite run` specs: default grids, lanes <= 64, forms A B C (468 points)."""
    rng = random.Random(f"cli:{seed}")
    used: set = set()
    pool = [{"max_lanes": 64, "forms": ["A", "B", "C"],
             "clocks_mhz": _clocks(rng, used)} for _ in range(CONFIG_POOL)]
    return _cycle(rng, pool, count)


def sweep_ops(seed: int, count: int) -> list[dict]:
    """In-process suite specs on the 306-point full grid."""
    rng = random.Random(f"sweep:{seed}")
    used: set = set()
    pool = [full_grid_spec(_clocks(rng, used)) for _ in range(CONFIG_POOL)]
    return _cycle(rng, pool, count)


def serve_ops(seed: int, count: int) -> list[dict]:
    """:data:`SERVE_WARMUP`, then a seeded request mix dealt in decks of
    :data:`SERVE_DECK`.

    Each op is ``{"kind": ..., "body": ...}``; a replay repeats the body
    of a recent cold op.
    """
    rng = random.Random(f"serve:{seed}")
    used: set = set()
    cold: list[dict] = []
    ops: list[dict] = []
    deck = list(SERVE_WARMUP)
    while len(ops) < count:
        for kind in deck:
            if kind == "cold":
                body = full_grid_spec(_clocks(rng, used))
                cold.append(body)
            elif kind == "replay":
                body = rng.choice(cold[-REPLAY_WINDOW:])
            elif kind == "dense":
                body = {**full_grid_spec(_clocks(rng, used)), "dense": True}
            elif kind == "cost":
                body = {"kernel": rng.choice(KERNELS),
                        "lanes": rng.choice(COST_LANES)}
            elif kind == "malformed":
                body = rng.choice(MALFORMED_BODIES)
            else:
                body = None
            ops.append({"kind": kind, "body": body})
        deck = [kind for kind, n in SERVE_DECK for _ in range(n)]
        rng.shuffle(deck)
    return ops[:count]


def verify_ops(seed: int, count: int) -> list[dict]:
    """One op per RTL family: passes over the 18 tiny families, each pass
    in a seeded order with one seeded stimulus."""
    rng = random.Random(f"verify:{seed}")
    families = [[kernel, lanes] for kernel in KERNELS for lanes in VERIFY_LANES]
    ops: list[dict] = []
    while len(ops) < count:
        rng.shuffle(families)
        stimulus = rng.randrange(1, 1 << 16)
        ops.extend({"family": list(family), "seed": stimulus} for family in families)
    return ops[:count]


#: ops in one `verify` pass
VERIFY_PASS = len(KERNELS) * len(VERIFY_LANES)


GENERATORS = {"cli": cli_ops, "sweep": sweep_ops, "serve": serve_ops,
              "verify": verify_ops}


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` ops of ``workload``'s sequence for ``seed``."""
    return GENERATORS[workload](seed, count)
