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
  player's exact pre-step distances for the whole tick.
* Within a tick creatures only die.  A target picked (first index of the
  minimum or maximum) over every creature is therefore still the pick over
  the living while it lives; only a player whose pick an earlier player
  captured in the same tick chooses again, on the current mask.
* Philox is counter-based, so each stream's generator is built once per
  run and rewound to counter ``[tick, 0, 0, 0]`` with an empty buffer before
  each draw, which draws exactly what a fresh generator at that counter
  draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, GraphFamily, ProvGraph

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

_ACTIVITY_LABEL = {
    "collecting": "pg:Collecting",
    "throwing": "pg:Throwing",
    "capturing": "pg:Capturing",
    "disposing": "pg:Disposing",
}


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
        if self.n_players < 3 or self.n_players % 3 != 0:
            raise ValueError("n_players must be a positive multiple of 3")
        if min(self.n_sims, self.n_pokemons, self.n_pokestops) < 1:
            raise ValueError("counts must be positive")
        if self.max_storage < 1 or self.max_ticks < 1 or self.initial_balls < 0:
            raise ValueError("bad capacity settings")

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
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, tick: int) -> np.random.Generator:
        self._state["state"]["counter"][0] = tick
        self._bit.state = self._state
        return self._gen


def _torus_delta(a: int, b: int, size: int) -> int:
    """Signed shortest move from a toward b on a ring of the given size."""
    d = (int(b) - int(a)) % size
    if d > size // 2:
        d -= size
    return d


def _torus_dist(ax, ay, bx, by, grid):
    gx, gy = grid
    dx = np.abs(bx - ax) % gx
    dy = np.abs(by - ay) % gy
    dx = np.minimum(dx, gx - dx)
    dy = np.minimum(dy, gy - dy)
    return np.maximum(dx, dy)


def _step_toward(px: int, py: int, tx: int, ty: int, grid) -> tuple[int, int]:
    gx, gy = grid
    dx = _torus_delta(px, tx, gx)
    dy = _torus_delta(py, ty, gy)
    sx = (dx > 0) - (dx < 0)
    sy = (dy > 0) - (dy < 0)
    return (int(px) + sx) % gx, (int(py) + sy) % gy


def _choose_target(
    mode: str,
    team: str,
    px: int,
    py: int,
    pox: np.ndarray,
    poy: np.ndarray,
    strength: np.ndarray,
    alive: np.ndarray,
    grid,
) -> int:
    """Index of the creature this player walks toward, or -1 if none left."""
    if not alive.any():
        return -1
    if mode == "disposal" or team == "Instinct":
        dist = _torus_dist(px, py, pox, poy, grid)
        return int(np.argmin(np.where(alive, dist, np.iinfo(np.int64).max)))
    if team == "Valor":
        return int(np.argmax(np.where(alive, strength, -1)))
    return int(np.argmin(np.where(alive, strength, np.iinfo(np.int64).max)))


def _dispose_pick(team: str, storage: list[tuple[int, int, int]]) -> int:
    """Storage index a full player discards, or -1 to keep everything."""
    if team == "Valor" or not storage:
        return -1
    if team == "Mystic":
        return 0  # oldest capture
    strengths = [s for (_, s, _) in storage]
    return int(np.argmin(strengths))  # weakest; earliest wins ties


class _Recorder:
    """Accumulates one player's provenance graph."""

    def __init__(self, graph_id: str):
        self.graph_id = graph_id
        self.nodes: dict[str, set[str]] = {
            "agent": {"ag"},
            "player": {"ent", "pg:Player"},
            "state0": {"ent", "pg:PlayerState"},
        }
        self.edges: list[tuple[str, str, str]] = [("state0", "player", "spe")]
        self.state = "state0"
        self.n_states = 0
        self.counts: dict[str, int] = {}

    def ensure_object(self, node_id: str, label: str) -> None:
        if node_id not in self.nodes:
            self.nodes[node_id] = {"ent", label}

    def record(self, kind: str, obj_id: str, obj_label: str) -> None:
        i = self.counts.get(kind, 0)
        self.counts[kind] = i + 1
        act = f"{kind}{i}"
        self.n_states += 1
        new = f"state{self.n_states}"
        self.ensure_object(obj_id, obj_label)
        self.nodes[act] = {"act", _ACTIVITY_LABEL[kind]}
        self.nodes[new] = {"ent", "pg:PlayerState"}
        prior = self.state
        self.edges.extend(
            [
                (act, prior, "use"),
                (act, obj_id, "use"),
                (act, "agent", "waw"),
                (new, act, "gen"),
                (new, prior, "der"),
                (new, "player", "spe"),
            ]
        )
        self.state = new

    def build(self) -> ProvGraph:
        # Ids and labels are strings and every edge end is a recorded node,
        # so ProvGraph's checks are skipped; generate_dataset's family build
        # validates the graph once.
        nodes = {nid: frozenset(labels) for nid, labels in self.nodes.items()}
        return ProvGraph._canonical(self.graph_id, nodes, tuple(sorted(self.edges)))


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


def simulate_run(params: SimParams, run: int) -> list[ProvGraph]:
    """Play one full run and return one graph per player, in player order."""
    p = params
    run_seed = p.seed + run
    world = _World(p, run_seed)
    px, py = world.px, world.py
    stops = list(zip(world.stop_x.tolist(), world.stop_y.tolist()))
    streams = [_TickStream(run_seed, 1 + i) for i in range(p.n_players)]
    balls = [p.initial_balls] * p.n_players
    storage: list[list[tuple[int, int, int]]] = [[] for _ in range(p.n_players)]
    recorders = [
        _Recorder(f"{p.mode}-s{run:02d}-p{i:02d}") for i in range(p.n_players)
    ]
    chasers = [
        i for i in range(p.n_players) if p.mode == "disposal" or TEAMS[i % 3] == "Instinct"
    ]
    for tick in range(p.max_ticks):
        world.refresh(tick)
        # Every player's pre-step distances at once: creatures move only in
        # refresh and each player moves only itself.
        ax, ay = np.array(px)[:, None], np.array(py)[:, None]
        near_stop = _torus_dist(ax, ay, world.stop_x, world.stop_y, p.grid).argmin(axis=1).tolist()
        alive, strength = world.alive, world.strength
        # Targeting: Valor the strongest, Mystic the weakest; chasers the closest.
        picks = [int(strength.argmax()), int(strength.argmin()), -1] * (p.n_players // 3)
        dist = _torus_dist(ax[chasers], ay[chasers], world.pox, world.poy, p.grid)
        for i, slot in zip(chasers, dist.argmin(axis=1).tolist()):
            picks[i] = slot
        for i in range(p.n_players):
            team = TEAMS[i % 3]
            rec = recorders[i]
            # Coordinates stay in range, so a player has arrived exactly when
            # its square equals the target's; a step toward it from there stays.
            if balls[i] == 0:
                j = near_stop[i]
                px[i], py[i] = _step_toward(px[i], py[i], *stops[j], p.grid)
                if (px[i], py[i]) == stops[j]:
                    rng = streams[i].at(tick)
                    balls[i] += int(rng.integers(p.collect_min, p.collect_max + 1))
                    rec.record("collecting", f"pokestop{j}", "pg:PokeStop")
                continue
            # A pick over every creature is still the pick over the living
            # while it lives; otherwise choose again on the current mask.
            slot = picks[i]
            if not alive[slot]:
                slot = _choose_target(
                    p.mode, team, px[i], py[i],
                    world.pox, world.poy, strength, alive, p.grid,
                )
                if slot < 0:
                    continue
            tx, ty = int(world.pox[slot]), int(world.poy[slot])
            px[i], py[i] = _step_toward(px[i], py[i], tx, ty, p.grid)
            if (px[i], py[i]) != (tx, ty):
                continue
            if len(storage[i]) >= p.max_storage:
                pick = _dispose_pick(team, storage[i]) if p.mode == "disposal" else -1
                if pick < 0:
                    continue  # blocked: keeps everything, cannot throw
                uid, _, _ = storage[i].pop(pick)
                rec.record("disposing", f"pokemon{uid}", "pg:Pokemon")
            balls[i] -= 1
            rng = streams[i].at(tick)
            r = float(rng.uniform(0.0, p.strength_max))
            uid, s = int(world.uid[slot]), int(strength[slot])
            if r > s:
                storage[i].append((uid, s, tick))
                alive[slot] = False
                rec.record("capturing", f"pokemon{uid}", "pg:Pokemon")
            else:
                rec.record("throwing", f"pokemon{uid}", "pg:Pokemon")
    return [rec.build() for rec in recorders]


def generate_dataset(params: SimParams) -> Dataset:
    """Run every sim for one mode and package the graphs with team labels.

    Run i draws from seed ``params.seed + i``, so a batch is a deterministic
    function of (mode, n_sims, seed) and individual runs can be reproduced
    in isolation.
    """
    labels: dict[str, str] = {}

    def records():
        # One run's graphs at a time: each is flattened into the family and
        # dropped before the next run starts.
        for run in range(params.n_sims):
            for i, g in enumerate(simulate_run(params, run)):
                labels[g.graph_id] = TEAMS[i % 3]
                yield g.graph_id, g.nodes.items(), g.edges

    family = GraphFamily.from_records(records())
    meta = {
        "generator": "pgsim",
        "mode": params.mode,
        "seed": params.seed,
        "application_labels": list(APPLICATION_LABELS),
        "params": params.to_jsonable(),
    }
    return Dataset(family=family, class_labels=labels, meta=meta)

