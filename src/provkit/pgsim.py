"""Multi-agent capture game that emits one provenance graph per player.

Players split round-robin across three teams roam a wraparound grid,
catching creatures and restocking throw balls at fixed stops.  The two game
modes differ in team behaviour:

* ``targeting``: Valor chases the strongest creature on the map, Mystic the
  weakest, Instinct the closest.  Nobody ever discards a capture, so a full
  storage blocks further throws.
* ``disposal``: every team chases the closest creature.  Arriving with full
  storage, Instinct discards its weakest capture and Mystic its oldest, then
  throws in the same tick; Valor keeps everything and so cannot throw.

Each tick a player either walks one step (acting immediately on arrival) or
acts in place: collect balls when standing on a stop with an empty bag,
otherwise throw at the creature underfoot.  A throw draws r uniform on
[0, 3500) and captures when r exceeds the creature's strength; the ball is
spent either way.

Every action is recorded as an activity that reads the player's current
state plus the object acted on, generates the successor state, and is
attributed to the player's agent.  States chain by derivation and
specialize the player entity, so each graph mirrors how the player's
inventory evolved.

Randomness is counter-based: run i of a batch uses seed ``base_seed + i``,
and every draw comes from a Philox generator keyed by ``[run_seed, stream]``
with the tick in the counter, so a given (run, tick, actor) always sees the
same values no matter what else ran before it.  Stream 0 belongs to the
world (spawns, respawns), stream ``1 + p`` to player ``p`` (throws, restock
amounts).

A run is evaluated tick by tick, with the same result as stepping each
player through its own distance scans and fresh generators:

* Creatures move only when the world refreshes at the start of a tick, and
  each player moves only itself, so one players x stops and one players x
  creatures distance matrix taken right after the refresh hold every
  player's exact pre-step distances for the whole tick.  Both scans are
  written in place, with int64 ``subtract``/``abs``/``minimum``/``maximum``
  into buffers made once per run.  Coordinates lie in ``[0, size)``, so
  ``|b - a|`` does too and the short way round is ``min(d, size - d)``
  with no ``% size``.
* Within a tick creatures only die.  A target picked (first index of the
  minimum or maximum) over every creature is therefore still the pick over
  the living while it lives; only a player whose pick an earlier player
  captured in the same tick chooses again, on the current mask.
* Philox is counter-based, so each stream's generator is built once per
  run and rewound to counter ``[tick, 0, 0, 0]`` with an empty buffer before
  each draw, which draws exactly what a fresh generator at that counter
  draws.

Each player's graph is recorded as integer columns: per node a code into a
fixed table of nine label sets (agent, player, state, one per activity
kind, stop, creature) and the number in its id, per edge two node positions
and an edge-label code.  The run's one-run family is built from them once:
each id is formatted once and each graph's nodes are sorted by id, and the
trusted column build ``GraphFamily._from_columns`` does the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import EDGE_LABEL_ORDER, Dataset, GraphFamily, ProvGraph

TEAMS = ("Valor", "Mystic", "Instinct")
MODES = ("targeting", "disposal")

# The full label schema every generated dataset declares, sorted.
APPLICATION_LABELS = (
    "pg:Capturing",
    "pg:Collecting",
    "pg:Disposing",
    "pg:Player",
    "pg:PlayerState",
    "pg:PokeStop",
    "pg:Pokemon",
    "pg:Throwing",
)

# A recorded node's label-set code indexes this table of its id prefix and
# its labels; agent and player ids are the bare prefix.
_NODE_KINDS = (
    ("agent", frozenset({"ag"})),
    ("player", frozenset({"ent", "pg:Player"})),
    ("state", frozenset({"ent", "pg:PlayerState"})),
    ("collecting", frozenset({"act", "pg:Collecting"})),
    ("throwing", frozenset({"act", "pg:Throwing"})),
    ("capturing", frozenset({"act", "pg:Capturing"})),
    ("disposing", frozenset({"act", "pg:Disposing"})),
    ("pokestop", frozenset({"ent", "pg:PokeStop"})),
    ("pokemon", frozenset({"ent", "pg:Pokemon"})),
)
(_AGENT, _PLAYER, _STATE, _COLLECTING, _THROWING, _CAPTURING, _DISPOSING,
 _STOP, _CREATURE) = range(len(_NODE_KINDS))
_USE, _WAW, _GEN, _DER, _SPE = map(EDGE_LABEL_ORDER.index, ("use", "waw", "gen", "der", "spe"))
_FAR = np.iinfo(np.int64).max  # past any distance or strength


@dataclass(frozen=True)
class SimParams:
    """Knobs for one batch of runs (one game mode)."""

    mode: str = "targeting"
    seed: int = 0
    n_sims: int = 40
    n_players: int = 30
    grid: tuple[int, int] = (50, 50)
    n_pokemons: int = 350
    n_pokestops: int = 25
    initial_balls: int = 10
    max_storage: int = 20
    max_ticks: int = 500
    strength_max: int = 3500
    lifetime_min: int = 50
    lifetime_max: int = 200
    collect_min: int = 5
    collect_max: int = 15

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected one of {', '.join(MODES)})")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        grid = self.grid
        if isinstance(grid, int):
            grid = (grid, grid)
        object.__setattr__(self, "grid", (int(grid[0]), int(grid[1])))
        if min(self.grid) < 1:
            raise ValueError("grid dimensions must be positive")
        if max(self.grid) > 2**63 - 1:  # coordinates and distances are int64
            raise ValueError("grid dimensions must not exceed 2**63 - 1")
        if self.n_players < 3 or self.n_players % 3 != 0:
            raise ValueError("n_players must be a positive multiple of 3")
        if min(self.n_sims, self.n_pokemons, self.n_pokestops) < 1:
            raise ValueError("counts must be positive")
        if self.seed + self.n_sims - 1 > 2**64 - 1:  # each run's seed keys a Philox stream
            raise ValueError("seed + n_sims - 1 must not exceed 2**64 - 1")
        if self.max_storage < 1 or self.max_ticks < 1 or self.initial_balls < 0:
            raise ValueError("bad capacity settings")
        # Each range is drawn from, so an empty one would fail inside numpy.
        if self.strength_max < 1:
            raise ValueError("strength_max must be at least 1")
        for low, high in (("lifetime_min", "lifetime_max"), ("collect_min", "collect_max")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must not exceed {high}")

    def to_jsonable(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["grid"] = list(self.grid)
        return out


class _TickStream:
    """One Philox stream of a run, rewound to a tick before its draws.

    ``at(tick)`` resets the counter to ``[tick, 0, 0, 0]`` and empties the
    output buffer, so the generator it returns draws exactly what a fresh
    Philox keyed ``[run_seed, stream]`` at that counter draws, without the
    cost of a new bit generator.
    """

    def __init__(self, run_seed: int, stream: int):
        key = np.array([run_seed, stream], dtype=np.uint64)
        self._bit = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bit)
        # Lists, not arrays: the state setter reads them item by item, and a
        # Python int converts several times faster than a numpy scalar.
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key.tolist()},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, tick: int) -> np.random.Generator:
        self._state["state"]["counter"][0] = tick
        self._bit.state = self._state
        return self._gen


def _torus_dist(ax, ay, bx, by, grid, out):
    """Chebyshev distance on the torus from points a to points b, broadcast.

    Written in place into the first of ``out``'s three int64 buffers of the
    broadcast shape, and returned.  Coordinates lie in ``[0, size)``, so
    ``|b - a|`` does too and the short way round is ``min(d, size - d)``
    without a ``% size``.
    """
    dx, dy, spare = out
    for d, a, b, size in ((dx, ax, bx, grid[0]), (dy, ay, by, grid[1])):
        np.subtract(b, a, out=d)
        np.abs(d, out=d)
        np.subtract(size, d, out=spare)
        np.minimum(d, spare, out=d)
    return np.maximum(dx, dy, out=dx)


def _choose_target(mode: str, team: str, dist, strength: np.ndarray, alive: np.ndarray) -> int:
    """Index of the creature this player walks toward, or -1 if none left.

    ``dist`` holds the player's distance to every creature; only chasers of
    the closest creature read it.
    """
    if not alive.any():
        return -1
    if mode == "disposal" or team == "Instinct":
        return int(np.where(alive, dist, _FAR).argmin())
    if team == "Valor":
        return int(np.where(alive, strength, -1).argmax())
    return int(np.where(alive, strength, _FAR).argmin())


def _dispose_pick(team: str, storage: list[tuple[int, int, int]]) -> int:
    """Storage index a full player discards, or -1 to keep everything."""
    if team == "Valor" or not storage:
        return -1
    if team == "Mystic":
        return 0  # oldest capture
    strengths = [s for (_, s, _) in storage]
    return int(np.argmin(strengths))  # weakest; earliest wins ties


class _PlayerColumns:
    """One player's graph as it is played, in integer columns.

    Node ``k`` has the label-set code ``kinds[k]`` into ``_NODE_KINDS`` and
    the id number ``nums[k]``; nodes 0 and 1 are the agent and the player,
    whose ids carry no number.  ``edges`` holds flat ``(src, dst, code)``
    triples of node positions and edge-label codes.
    """

    __slots__ = ("kinds", "nums", "edges", "objects", "counts", "state")

    def __init__(self) -> None:
        self.kinds = [_AGENT, _PLAYER, _STATE]
        self.nums = [0, 0, 0]
        self.edges = [2, 1, _SPE]
        self.objects: dict[tuple[int, int], int] = {}  # (kind, number) -> position
        self.counts = [0] * len(_NODE_KINDS)  # next id number, per kind
        self.counts[_STATE] = 1
        self.state = 2

    def record(self, kind: int, obj_kind: int, obj_num: int) -> None:
        """An activity of ``kind`` on the object, from the current state to a new one."""
        obj = self.objects.get((obj_kind, obj_num))
        if obj is None:
            obj = self.objects[obj_kind, obj_num] = len(self.kinds)
            self.kinds.append(obj_kind)
            self.nums.append(obj_num)
        act, prior, counts = len(self.kinds), self.state, self.counts
        new = self.state = act + 1
        self.kinds += (kind, _STATE)
        self.nums += (counts[kind], counts[_STATE])
        counts[kind] += 1
        counts[_STATE] += 1
        self.edges += (act, prior, _USE, act, obj, _USE, act, 0, _WAW,
                       new, act, _GEN, new, prior, _DER, new, 1, _SPE)


def _family(graph_ids: list[str], players: list[_PlayerColumns]) -> GraphFamily:
    """The graphs of ``players`` as one family, built once from their columns.

    Each id is formatted once and each graph's nodes are put in sorted id
    order; the trusted column build ``GraphFamily._from_columns`` does the rest.
    """
    prefix, label_sets = zip(*_NODE_KINDS)
    node_ids: list[str] = []
    order: list[int] = []  # family position -> played position, over the run
    kinds: list[int] = []
    edges: list[int] = []
    for cols in players:
        numbered = map("{}{}".format, map(prefix.__getitem__, cols.kinds[2:]), cols.nums[2:])
        ids = ["agent", "player", *numbered]
        local = sorted(range(len(ids)), key=ids.__getitem__)
        node_ids += map(ids.__getitem__, local)
        order += map(len(kinds).__add__, local)
        kinds += cols.kinds
        edges += cols.edges
    node_counts = [len(cols.kinds) for cols in players]
    edge_counts = [len(cols.edges) // 3 for cols in players]
    rank = np.empty(len(kinds), np.int32)
    rank[order] = np.arange(len(kinds), dtype=np.int32)
    edges = np.array(edges, np.int32).reshape(-1, 3)
    base = np.repeat(np.cumsum(node_counts) - node_counts, edge_counts)
    return GraphFamily._from_columns(
        graph_ids, node_ids, node_counts, np.array(kinds, np.intc)[order], label_sets,
        edge_counts, rank[edges[:, 0] + base], rank[edges[:, 1] + base], edges[:, 2].astype(np.int8),
    )


class _World:
    """Creature, stop and player positions of one run, drawn from stream 0."""

    def __init__(self, params: SimParams, run_seed: int) -> None:
        p = self.params = params
        gx, gy = p.grid
        self.stream = _TickStream(run_seed, 0)
        rng = self.stream.at(0)
        self.stop_x = rng.integers(0, gx, size=p.n_pokestops)
        self.stop_y = rng.integers(0, gy, size=p.n_pokestops)
        self.pox = rng.integers(0, gx, size=p.n_pokemons)
        self.poy = rng.integers(0, gy, size=p.n_pokemons)
        self.strength = rng.integers(0, p.strength_max, size=p.n_pokemons)
        self.expiry = rng.integers(p.lifetime_min, p.lifetime_max + 1, size=p.n_pokemons)
        self.uid = np.arange(p.n_pokemons, dtype=np.int64)
        self.alive = np.ones(p.n_pokemons, dtype=bool)
        self.px = rng.integers(0, gx, size=p.n_players).tolist()
        self.py = rng.integers(0, gy, size=p.n_players).tolist()
        self.next_uid = p.n_pokemons

    def refresh(self, tick: int) -> None:
        """Respawn captured and expired creatures; population stays constant."""
        p = self.params
        gx, gy = p.grid
        dead = (~self.alive) | (self.expiry <= tick)
        k = int(dead.sum())
        if k == 0:
            return
        rng = self.stream.at(tick + 1)
        idx = np.flatnonzero(dead)
        self.pox[idx] = rng.integers(0, gx, size=k)
        self.poy[idx] = rng.integers(0, gy, size=k)
        self.strength[idx] = rng.integers(0, p.strength_max, size=k)
        self.expiry[idx] = tick + rng.integers(p.lifetime_min, p.lifetime_max + 1, size=k)
        self.uid[idx] = self.next_uid + np.arange(k)
        self.next_uid += k
        self.alive[idx] = True


def _run_family(params: SimParams, run: int) -> GraphFamily:
    """Play one full run and return its graphs, one per player in player
    order, as a one-run family."""
    p = params
    gx, gy = p.grid
    hx, hy = gx // 2, gy // 2
    run_seed = p.seed + run
    world = _World(p, run_seed)
    # refresh writes into these arrays in place.
    pox, poy, uid_of, alive, strength = world.pox, world.poy, world.uid, world.alive, world.strength
    px, py = world.px, world.py
    stops = list(zip(world.stop_x.tolist(), world.stop_y.tolist()))
    streams = [_TickStream(run_seed, 1 + i) for i in range(p.n_players)]
    balls = [p.initial_balls] * p.n_players
    storage: list[list[tuple[int, int, int]]] = [[] for _ in range(p.n_players)]
    players = [_PlayerColumns() for _ in range(p.n_players)]
    chasers = [
        i for i in range(p.n_players) if p.mode == "disposal" or TEAMS[i % 3] == "Instinct"
    ]
    row_of = {i: row for row, i in enumerate(chasers)}  # a chaser's row in the creature scan
    # The two distance scans of every tick write into these buffers.
    stop_scan = [np.empty((p.n_players, p.n_pokestops), np.int64) for _ in range(3)]
    chase_scan = [np.empty((len(chasers), p.n_pokemons), np.int64) for _ in range(3)]
    for tick in range(p.max_ticks):
        world.refresh(tick)
        # Every player's pre-step distances at once: creatures move only in
        # refresh and each player moves only itself.
        ax, ay = np.array(px)[:, None], np.array(py)[:, None]
        stop_dist = _torus_dist(ax, ay, world.stop_x, world.stop_y, p.grid, stop_scan)
        near_stop = stop_dist.argmin(axis=1).tolist()
        # Targeting: Valor the strongest, Mystic the weakest; chasers the closest.
        picks = [int(strength.argmax()), int(strength.argmin()), -1] * (p.n_players // 3)
        creature_dist = _torus_dist(ax[chasers], ay[chasers], pox, poy, p.grid, chase_scan)
        for i, slot in zip(chasers, creature_dist.argmin(axis=1).tolist()):
            picks[i] = slot
        for i in range(p.n_players):
            team = TEAMS[i % 3]
            if balls[i] == 0:
                tx, ty = stops[near_stop[i]]
            else:
                # A pick over every creature is still the pick over the
                # living while it lives; otherwise choose again on the
                # current mask.
                slot = picks[i]
                if not alive[slot]:
                    row = creature_dist[row_of[i]] if i in row_of else None
                    slot = _choose_target(p.mode, team, row, strength, alive)
                    if slot < 0:
                        continue
                tx, ty = int(pox[slot]), int(poy[slot])
            # One step on each axis, the short way round the ring (forward
            # at the antipode).  Coordinates stay in range, so a player has
            # arrived exactly when its square equals the target's.
            dx, dy = (tx - px[i]) % gx, (ty - py[i]) % gy
            px[i] = (px[i] + (0 < dx <= hx) - (dx > hx)) % gx
            py[i] = (py[i] + (0 < dy <= hy) - (dy > hy)) % gy
            if px[i] != tx or py[i] != ty:
                continue
            if balls[i] == 0:
                rng = streams[i].at(tick)
                balls[i] += int(rng.integers(p.collect_min, p.collect_max + 1))
                players[i].record(_COLLECTING, _STOP, near_stop[i])
                continue
            if len(storage[i]) >= p.max_storage:
                pick = _dispose_pick(team, storage[i]) if p.mode == "disposal" else -1
                if pick < 0:
                    continue  # blocked: keeps everything, cannot throw
                uid, _, _ = storage[i].pop(pick)
                players[i].record(_DISPOSING, _CREATURE, uid)
            balls[i] -= 1
            rng = streams[i].at(tick)
            # numpy's uniform(0, high) is 0 + high * random(), so this is the
            # same draw without the slower argument handling.
            r = p.strength_max * rng.random()
            uid, s = int(uid_of[slot]), int(strength[slot])
            if r > s:
                storage[i].append((uid, s, tick))
                alive[slot] = False
                players[i].record(_CAPTURING, _CREATURE, uid)
            else:
                players[i].record(_THROWING, _CREATURE, uid)
    graph_ids = [f"{p.mode}-s{run:02d}-p{i:02d}" for i in range(p.n_players)]
    return _family(graph_ids, players)


def simulate_run(params: SimParams, run: int) -> list[ProvGraph]:
    """Play one full run and return one graph per player, in player order."""
    return list(_run_family(params, run).graphs)


def generate_dataset(params: SimParams) -> Dataset:
    """Run every sim for one mode and package the graphs with team labels.

    Run i draws from seed ``params.seed + i``, so a batch is a deterministic
    function of (mode, n_sims, seed) and individual runs can be reproduced
    in isolation.  The runs are independent, so they are played in a
    ``fork`` pool of ``min(n_sims, usable CPUs)`` workers, in process where
    that is one or ``fork`` is missing; each returns its one-run family and
    the families are joined in run order, so the dataset is the same for
    any number of workers.  No worker outlives the call.
    """
    import multiprocessing

    play = partial(_run_family, params)
    runs = range(params.n_sims)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(params.n_sims, len(affinity(0))) if affinity else 1
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        family = GraphFamily._gather((f, range(len(f))) for f in map(play, runs))
    else:
        # fork, not spawn: a worker starts with the simulator and numpy that
        # the parent has already imported.  Leaving the block terminates and
        # joins the workers, also on a raise.
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            family = GraphFamily._gather((f, range(len(f))) for f in pool.imap(play, runs))
            pool.close()
            pool.join()
    # n_players is a multiple of 3, so the graph at family position k is
    # player k % n_players of its run, on team k % 3.
    labels = {gid: TEAMS[k % 3] for k, gid in enumerate(family.graph_ids)}
    meta = {
        "generator": "pgsim",
        "mode": params.mode,
        "seed": params.seed,
        "application_labels": list(APPLICATION_LABELS),
        "params": params.to_jsonable(),
    }
    return Dataset(family=family, class_labels=labels, meta=meta)
