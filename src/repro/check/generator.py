"""Seeded scenario generation.

Turns one integer seed into one :class:`~repro.check.scenario.Scenario`
deterministically — across processes and ``PYTHONHASHSEED`` values —
by drawing every decision from :class:`~repro.sim.rng.SeededRng` fork
streams.  The op mix mirrors the hypothesis state machine in
``tests/test_property_fuzz.py`` (launches, IPC, wakelocks, brightness,
kills, CPU load, calls, time), weighted towards the operations that
open and close collateral windows.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Tuple

from ..sim.rng import SeededRng
from .scenario import Op, Scenario

DEFAULT_OPS = 40
DEFAULT_PACKAGES = 3
MAX_PACKAGES = 6

#: settle time at every block boundary; must exceed the 30 s screen-off
#: timeout and the longest incoming-call ring so each block starts from
#: an identical quiescent device state.
QUIESCE_SECONDS = 35.0
MAX_RING_SECONDS = 20.0

COMPONENT_TARGETS = ("PlainActivity", "PlainService")

# (kind, weight); arguments are drawn per-op below.
_OP_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("launch", 3.0),
    ("start_activity", 2.0),
    ("start_service", 2.0),
    ("stop_service", 1.0),
    ("bind_service", 3.0),
    ("unbind_service", 1.5),
    ("acquire_wakelock", 2.5),
    ("release_wakelock", 1.5),
    ("set_brightness", 1.5),
    ("set_brightness_mode", 0.7),
    ("user_brightness", 1.0),
    ("window_brightness", 0.7),
    ("press_home", 1.0),
    ("press_back", 1.0),
    ("tap_dialog", 0.5),
    ("force_stop", 1.0),
    ("advance", 4.0),
    ("burn_cpu", 1.5),
    ("incoming_call", 0.7),
    ("move_task_front", 1.0),
)

#: op kinds and their running weight totals, for ``cumulative_choice``
KINDS: Tuple[str, ...] = tuple(kind for kind, _ in _OP_WEIGHTS)
CUM_WEIGHTS: Tuple[float, ...] = tuple(accumulate(w for _, w in _OP_WEIGHTS))


def fuzz_packages(count: int) -> Tuple[str, ...]:
    """The synthetic app graph's package names."""
    count = max(1, min(count, MAX_PACKAGES))
    return tuple(f"com.fuzz.app{i}" for i in range(count))


def _draw_op(rng: SeededRng, packages: Tuple[str, ...]) -> Op:
    kind = rng.cumulative_choice(KINDS, CUM_WEIGHTS)
    if kind in ("launch", "force_stop"):
        return Op(kind, {"package": rng.choice(packages)})
    if kind in ("start_activity", "start_service", "stop_service",
                "bind_service", "move_task_front"):
        return Op(
            kind,
            {"caller": rng.choice(packages), "target": rng.choice(packages)},
        )
    if kind in ("unbind_service", "release_wakelock"):
        return Op(kind, {"index": rng.randint(0, 30)})
    if kind == "acquire_wakelock":
        return Op(
            kind,
            {"package": rng.choice(packages), "screen": rng.bernoulli(0.5)},
        )
    if kind == "set_brightness":
        return Op(
            kind,
            {"package": rng.choice(packages), "level": rng.randint(0, 255)},
        )
    if kind == "set_brightness_mode":
        return Op(
            kind, {"package": rng.choice(packages), "mode": rng.randint(0, 1)}
        )
    if kind == "user_brightness":
        return Op(kind, {"level": rng.randint(0, 255)})
    if kind == "window_brightness":
        return Op(
            kind,
            {"package": rng.choice(packages), "level": rng.randint(0, 255)},
        )
    if kind == "advance":
        return Op(kind, {"seconds": round(rng.uniform(0.5, 45.0), 3)})
    if kind == "burn_cpu":
        return Op(
            kind,
            {
                "package": rng.choice(packages),
                "load": round(rng.uniform(0.0, 1.0), 3),
            },
        )
    if kind == "incoming_call":
        return Op(kind, {"ring": round(rng.uniform(1.0, MAX_RING_SECONDS), 3)})
    return Op(kind)  # press_home / press_back / tap_dialog


def generate_scenario(
    seed: int,
    ops: int = DEFAULT_OPS,
    packages: int = DEFAULT_PACKAGES,
    blocks: int = 0,
) -> Scenario:
    """One deterministic scenario script for ``seed``.

    ``ops`` is the approximate number of body operations; the structural
    quiesce ops at block boundaries come on top.  ``blocks=0`` lets the
    seed pick 2-4 independent blocks.
    """
    rng = SeededRng(seed)
    structure = rng.fork("structure")
    body = rng.fork("ops")

    names = fuzz_packages(packages)
    block_count = blocks if blocks > 0 else structure.randint(2, 4)
    ops = max(ops, block_count)  # at least one body op per block

    # Spread the body ops over the blocks (deterministically uneven).
    shares = [structure.uniform(0.5, 1.5) for _ in range(block_count)]
    total_share = sum(shares)
    sizes = [max(1, int(round(ops * share / total_share))) for share in shares]

    quiesce = Op("quiesce", {"seconds": QUIESCE_SECONDS})
    script: List[Op] = [quiesce]  # preamble: settle into the quiescent state
    block_lens: List[int] = []
    for block_index, size in enumerate(sizes):
        block: List[Op] = [
            Op("launch", {"package": body.choice(names)})  # wake the block up
        ]
        for _ in range(size):
            block.append(_draw_op(body, names))
        block.append(quiesce)
        script.extend(block)
        block_lens.append(len(block))

    return Scenario(
        seed=seed,
        packages=names,
        ops=script,
        preamble_len=1,
        block_lens=block_lens,
    )
