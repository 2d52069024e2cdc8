import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import application_labels, kind_mismatches
from provkit import pgsim
from provkit.model import GraphFamily, ProvGraph
from provkit.pgsim import (
    APPLICATION_LABELS,
    MODES,
    SimParams,
    TEAMS,
    _choose_target,
    _dispose_pick,
    _run_family,
    _TickStream,
    _World,
    generate_dataset,
    simulate_run,
)
from provkit.storage import dataset_texts

TINY = dict(
    n_sims=2,
    n_players=6,
    grid=15,
    n_pokemons=20,
    n_pokestops=4,
    max_ticks=80,
    seed=11,
)


# The reference simulator's own scalar geometry, kept apart from the
# simulator's in-place scans so that a rewrite of one cannot move both sides
# of the reference comparison.


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


class TestGeometry:
    def test_delta_wraps_short_way(self):
        assert _torus_delta(1, 48, 50) == -3
        assert _torus_delta(48, 1, 50) == 3
        assert _torus_delta(5, 5, 50) == 0
        assert _torus_delta(0, 25, 50) == 25  # antipode resolves forward

    def test_step_moves_both_axes(self):
        assert _step_toward(0, 0, 2, 49, (50, 50)) == (1, 49)
        assert _step_toward(10, 10, 10, 10, (50, 50)) == (10, 10)

    @pytest.mark.parametrize("grid", [(1, 1), (2, 7), (50, 50), (40000, 3), (2**40, 5)])
    def test_in_place_scan_equals_scalar_distance(self, grid):
        rng = np.random.default_rng(sum(grid))
        ax, bx = (rng.integers(0, grid[0], size=n) for n in (6, 40))
        ay, by = (rng.integers(0, grid[1], size=n) for n in (6, 40))
        scan = [np.full((6, 40), -1, np.int64) for _ in range(3)]
        got = pgsim._torus_dist(ax[:, None], ay[:, None], bx, by, grid, scan)
        assert got is scan[0]
        want = [[_torus_dist(ax[i], ay[i], bx[j], by[j], grid) for j in range(40)] for i in range(6)]
        assert got.tolist() == want


class TestRules:
    def setup_method(self):
        self.pox = np.array([0, 5, 10])
        self.poy = np.array([0, 5, 10])
        self.strength = np.array([100, 3000, 1500])
        self.alive = np.array([True, True, True])

    def pick(self, mode, team, px=4, py=4):
        dist = _torus_dist(px, py, self.pox, self.poy, (15, 15))
        return _choose_target(mode, team, dist, self.strength, self.alive)

    def test_targeting_mode_varies_by_team(self):
        assert self.pick("targeting", "Valor") == 1  # strongest
        assert self.pick("targeting", "Mystic") == 0  # weakest
        assert self.pick("targeting", "Instinct") == 1  # closest to (4,4)

    def test_disposal_mode_everyone_chases_closest(self):
        for team in TEAMS:
            assert self.pick("disposal", team) == 1

    def test_dead_creatures_are_ignored(self):
        self.alive[1] = False
        assert self.pick("targeting", "Valor") == 2
        assert self.pick("disposal", "Mystic") in (0, 2)

    def test_no_creatures_yields_sentinel(self):
        self.alive[:] = False
        assert self.pick("targeting", "Valor") == -1

    def test_dispose_pick_per_team(self):
        storage = [(7, 900, 3), (8, 100, 10), (9, 500, 12)]
        assert _dispose_pick("Valor", storage) == -1
        assert _dispose_pick("Mystic", storage) == 0  # oldest capture
        assert _dispose_pick("Instinct", storage) == 1  # weakest
        assert _dispose_pick("Instinct", []) == -1

    def test_instinct_breaks_strength_ties_toward_oldest(self):
        storage = [(1, 100, 2), (2, 100, 5)]
        assert _dispose_pick("Instinct", storage) == 0


class TestParams:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            SimParams(mode="chaos")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SimParams(seed=-1)

    @pytest.mark.parametrize(
        "bad, fields",
        [
            ({"collect_min": 6, "collect_max": 5}, "collect_min .* collect_max"),
            ({"lifetime_min": 201}, "lifetime_min .* lifetime_max"),
            ({"strength_max": 0}, "strength_max"),
            ({"strength_max": -3}, "strength_max"),
        ],
    )
    def test_empty_draw_ranges_rejected(self, bad, fields):
        with pytest.raises(ValueError, match=fields):
            SimParams(**bad)

    def test_single_value_draw_ranges_accepted(self):
        params = SimParams(collect_min=5, collect_max=5, lifetime_min=9, lifetime_max=9,
                           strength_max=1, n_sims=1, max_ticks=5)
        assert len(simulate_run(params, 0)) == params.n_players

    @pytest.mark.parametrize(
        "at_limit, over, message",
        [({"grid": (3, 2**63 - 1)}, {"grid": (3, 2**63)}, r"^grid dimensions must not exceed 2\*\*63 - 1$"),
         ({"seed": 2**64 - 1}, {"seed": 2**64 - 1, "n_sims": 2},
          r"^seed \+ n_sims - 1 must not exceed 2\*\*64 - 1$")],
        ids=["grid", "seed"],
    )
    def test_int64_limits(self, at_limit, over, message):
        with pytest.raises(ValueError, match=message):
            SimParams(**{"n_sims": 1, **over})
        params = SimParams(**{"n_sims": 1, "max_ticks": 2, **at_limit})
        assert len(generate_dataset(params)) == params.n_players

    def test_jsonable_round_trip(self):
        p = SimParams(mode="disposal", seed=3)
        blob = p.to_jsonable()
        assert SimParams(**blob) == p


class TestSimulation:
    def test_deterministic_for_same_seed(self):
        a = simulate_run(SimParams(**TINY), 0)
        b = simulate_run(SimParams(**TINY), 0)
        assert a == b

    def test_runs_differ(self):
        a = simulate_run(SimParams(**TINY), 0)
        b = simulate_run(SimParams(**TINY), 1)
        assert a != b

    def test_graphs_are_advisory_clean(self):
        assert kind_mismatches(GraphFamily(simulate_run(SimParams(**TINY), 0))) == []

    def test_states_chain_by_derivation(self):
        g = max(simulate_run(SimParams(**TINY), 0), key=lambda g: len(g.nodes))
        der = {}
        for src, dst, lab in g.edges:
            if lab == "der":
                assert src not in der, "each state derives from exactly one prior"
                der[src] = dst
        n_states = sum(1 for labs in g.nodes.values() if "pg:PlayerState" in labs)
        assert n_states >= 2
        for i in range(1, n_states):
            assert der[f"state{i}"] == f"state{i - 1}"

    def test_every_state_specializes_the_player(self):
        for g in simulate_run(SimParams(**TINY), 0):
            spe = {src for src, dst, lab in g.edges if lab == "spe" and dst == "player"}
            states = {n for n, labs in g.nodes.items() if "pg:PlayerState" in labs}
            assert spe == states

    def test_activity_shape(self):
        g = max(simulate_run(SimParams(**TINY), 0), key=lambda g: len(g.nodes))
        acts = {n for n, labs in g.nodes.items() if "act" in labs}
        for act in acts:
            outs = [(dst, lab) for src, dst, lab in g.edges if src == act]
            labs = sorted(lab for _, lab in outs)
            assert labs == ["use", "use", "waw"]
            gens = [src for src, dst, lab in g.edges if lab == "gen" and dst == act]
            assert len(gens) == 1

    def test_throws_beyond_initial_balls_require_collecting(self):
        for g in simulate_run(SimParams(**TINY), 0):
            kinds = {"pg:Throwing": 0, "pg:Capturing": 0, "pg:Collecting": 0}
            for labs in g.nodes.values():
                for lab in labs:
                    if lab in kinds:
                        kinds[lab] += 1
            throws = kinds["pg:Throwing"] + kinds["pg:Capturing"]
            if throws > 10:
                assert kinds["pg:Collecting"] >= 1


def _stream(run_seed: int, stream: int, tick_word: int) -> np.random.Generator:
    """A fresh Philox generator keyed ``[run_seed, stream]`` at counter
    ``[tick_word, 0, 0, 0]``: the oracle for ``_TickStream``."""
    bit = np.random.Philox(
        key=np.array([run_seed, stream], dtype=np.uint64),
        counter=np.array([tick_word, 0, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bit)


_ACTIVITY_LABEL = {
    "collecting": "pg:Collecting",
    "throwing": "pg:Throwing",
    "capturing": "pg:Capturing",
    "disposing": "pg:Disposing",
}


class _Recorder:
    """Accumulates one player's provenance graph as node-id -> label-set
    dicts and string edge triples."""

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

    def record(self, kind: str, obj_id: str, obj_label: str) -> None:
        i = self.counts.get(kind, 0)
        self.counts[kind] = i + 1
        act = f"{kind}{i}"
        self.n_states += 1
        new = f"state{self.n_states}"
        self.nodes.setdefault(obj_id, {"ent", obj_label})
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
        return ProvGraph(self.graph_id, self.nodes, self.edges)


def _reference_choose_target(mode, team, px, py, pox, poy, strength, alive, grid) -> int:
    """Index of the creature this player walks toward, or -1 if none left."""
    if not alive.any():
        return -1
    if mode == "disposal" or team == "Instinct":
        dist = _torus_dist(px, py, pox, poy, grid)
        return int(np.argmin(np.where(alive, dist, np.iinfo(np.int64).max)))
    if team == "Valor":
        return int(np.argmax(np.where(alive, strength, -1)))
    return int(np.argmin(np.where(alive, strength, np.iinfo(np.int64).max)))


def _reference_simulate_run(params: SimParams, run: int) -> list[ProvGraph]:
    """The per-player loop: fresh distances and a fresh Philox stream per
    step, recorded as dicts of label sets.

    Independent oracle for ``simulate_run``, which must return equal graphs.
    """
    p = params
    run_seed = p.seed + run
    world = _World(p, run_seed)
    balls = [p.initial_balls] * p.n_players
    storage: list[list[tuple[int, int, int]]] = [[] for _ in range(p.n_players)]
    recorders = [
        _Recorder(f"{p.mode}-s{run:02d}-p{i:02d}") for i in range(p.n_players)
    ]
    for tick in range(p.max_ticks):
        world.refresh(tick)
        for i in range(p.n_players):
            team = TEAMS[i % 3]
            rec = recorders[i]
            if balls[i] == 0:
                dist = _torus_dist(
                    world.px[i], world.py[i], world.stop_x, world.stop_y, p.grid
                )
                j = int(np.argmin(dist))
                if dist[j] > 0:
                    world.px[i], world.py[i] = _step_toward(
                        world.px[i], world.py[i], world.stop_x[j], world.stop_y[j], p.grid
                    )
                if int(_torus_dist(world.px[i], world.py[i],
                                   world.stop_x[j], world.stop_y[j], p.grid)) == 0:
                    rng = _stream(run_seed, 1 + i, tick)
                    balls[i] += int(rng.integers(p.collect_min, p.collect_max + 1))
                    rec.record("collecting", f"pokestop{j}", "pg:PokeStop")
                continue
            slot = _reference_choose_target(
                p.mode, team, world.px[i], world.py[i],
                world.pox, world.poy, world.strength, world.alive, p.grid,
            )
            if slot < 0:
                continue
            tx, ty = int(world.pox[slot]), int(world.poy[slot])
            if int(_torus_dist(world.px[i], world.py[i], tx, ty, p.grid)) > 0:
                world.px[i], world.py[i] = _step_toward(
                    world.px[i], world.py[i], tx, ty, p.grid
                )
                if int(_torus_dist(world.px[i], world.py[i], tx, ty, p.grid)) > 0:
                    continue
            if len(storage[i]) >= p.max_storage:
                pick = _dispose_pick(team, storage[i]) if p.mode == "disposal" else -1
                if pick < 0:
                    continue  # blocked: keeps everything, cannot throw
                uid, _, _ = storage[i].pop(pick)
                rec.record("disposing", f"pokemon{uid}", "pg:Pokemon")
            balls[i] -= 1
            rng = _stream(run_seed, 1 + i, tick)
            r = float(rng.uniform(0.0, p.strength_max))
            uid = int(world.uid[slot])
            if r > world.strength[slot]:
                storage[i].append((uid, int(world.strength[slot]), tick))
                world.alive[slot] = False
                rec.record("capturing", f"pokemon{uid}", "pg:Pokemon")
            else:
                rec.record("throwing", f"pokemon{uid}", "pg:Pokemon")
    return [rec.build() for rec in recorders]


@st.composite
def small_games(draw):
    """Tiny grids and populations, so that whole populations die within one
    tick, players run dry of balls and storage fills."""
    lifetime_min = draw(st.integers(0, 6))
    collect_min = draw(st.integers(0, 3))
    params = SimParams(
        mode=draw(st.sampled_from(MODES)),
        seed=draw(st.integers(0, 2**32)),
        n_sims=1,
        n_players=draw(st.sampled_from([3, 6, 9])),
        grid=(draw(st.integers(1, 7)), draw(st.integers(1, 7))),
        n_pokemons=draw(st.integers(1, 12)),
        n_pokestops=draw(st.integers(1, 4)),
        initial_balls=draw(st.integers(0, 3)),
        max_storage=draw(st.integers(1, 3)),
        max_ticks=draw(st.integers(1, 40)),
        strength_max=draw(st.sampled_from([1, 2, 40, 3500])),
        lifetime_min=lifetime_min,
        lifetime_max=lifetime_min + draw(st.integers(0, 8)),
        collect_min=collect_min,
        collect_max=collect_min + draw(st.integers(0, 3)),
    )
    return params, draw(st.integers(0, 3))


def _assert_matches_reference(params: SimParams, run: int) -> None:
    want = _reference_simulate_run(params, run)
    assert simulate_run(params, run) == want
    # The one-run family holds the columns that the validating build makes.
    assert _run_family(params, run) == GraphFamily(want)


@given(small_games())
@settings(max_examples=300, deadline=None)
def test_simulate_run_matches_reference(game):
    _assert_matches_reference(*game)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "sizes",
    [{"max_ticks": 60}, {"grid": (40000, 3), "max_ticks": 200}],
    ids=["default-sizes", "wide-grid"],
)
def test_full_size_runs_match_reference(mode, sizes):
    """Default populations, and a ring wider than int16 holds."""
    _assert_matches_reference(SimParams(mode=mode, seed=5, n_sims=1, **sizes), 1)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("grid", [(1, 1), (2, 3)])
def test_in_tick_captures_fall_back_to_current_mask(monkeypatch, mode, grid):
    """Two sure captures on a tiny board: the second player's cached pick is
    already captured, and the third player finds nothing left."""
    params = SimParams(mode=mode, n_sims=1, n_players=3, grid=grid, n_pokemons=2,
                       n_pokestops=1, max_ticks=30, strength_max=1, seed=4)
    fallbacks = []

    def spy(*args):
        fallbacks.append(_choose_target(*args))
        return fallbacks[-1]

    monkeypatch.setattr(pgsim, "_choose_target", spy)
    assert simulate_run(params, 0) == _reference_simulate_run(params, 0)
    assert -1 in fallbacks and any(slot >= 0 for slot in fallbacks)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_tick_stream_draws_equal_fresh_streams(seed):
    stream = _TickStream(seed, 3)
    for tick in (5, 0, 499, 5):
        rng = stream.at(tick)
        assert rng.integers(5, 16) == _stream(seed, 3, tick).integers(5, 16)
        # The draw above left a buffered uint32; the rewind must drop it.
        rng = stream.at(tick + 1)
        want = _stream(seed, 3, tick + 1)
        assert rng.uniform(0.0, 3500.0) == want.uniform(0.0, 3500.0)
        assert rng.integers(0, 7) == want.integers(0, 7)
        assert rng.uniform(0.0, 1.0) == want.uniform(0.0, 1.0)
        # Spawns and respawns draw arrays from a freshly rewound stream.
        rng, want = stream.at(tick + 2), _stream(seed, 3, tick + 2)
        assert np.array_equal(rng.integers(0, 50, size=9), want.integers(0, 50, size=9))
        assert np.array_equal(rng.integers(50, 201, size=5), want.integers(50, 201, size=5))


def _fail_run_1(params: SimParams, run: int) -> GraphFamily:
    """``_run_family``, except that run 1 raises; module-level, so that the
    pool can pickle it by name."""
    if run == 1:
        raise ValueError("run 1 failed")
    return _run_family(params, run)


class TestDataset:
    def test_counts_and_classes(self):
        ds = generate_dataset(SimParams(**TINY))
        assert len(ds.family.graphs) == 12
        per_team = {t: 0 for t in TEAMS}
        for team in ds.class_labels.values():
            per_team[team] += 1
        assert per_team == {"Valor": 4, "Mystic": 4, "Instinct": 4}

    def test_label_schema_declared_and_respected(self):
        ds = generate_dataset(SimParams(**TINY))
        assert ds.meta["application_labels"] == list(APPLICATION_LABELS)
        assert application_labels(ds.family) <= set(APPLICATION_LABELS)

    def test_targeting_mode_never_disposes(self):
        ds = generate_dataset(SimParams(mode="targeting", **TINY))
        assert "pg:Disposing" not in application_labels(ds.family)

    def test_disposal_mode_valor_never_disposes(self):
        params = SimParams(
            mode="disposal",
            n_sims=2,
            n_players=6,
            grid=12,
            n_pokemons=30,
            n_pokestops=4,
            max_storage=3,
            max_ticks=120,
            seed=5,
        )
        ds = generate_dataset(params)
        disposed = {
            team: 0
            for team in TEAMS
        }
        for g in ds.family.graphs:
            team = ds.class_labels[g.graph_id]
            for labs in g.nodes.values():
                if "pg:Disposing" in labs:
                    disposed[team] += 1
        assert disposed["Valor"] == 0
        assert disposed["Mystic"] > 0
        assert disposed["Instinct"] > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, mode):
        params = SimParams(mode=mode, **{**TINY, "n_sims": 3})
        texts = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            texts.append(dataset_texts(generate_dataset(params)))
        assert texts[0] == texts[1]

    def test_failed_run_reaches_the_caller_and_leaves_no_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pgsim, "_run_family", _fail_run_1)
        with pytest.raises(ValueError, match="^run 1 failed$"):
            generate_dataset(SimParams(**{**TINY, "n_sims": 3}))
        assert multiprocessing.active_children() == []

    def test_graph_ids_encode_mode_run_player(self):
        ds = generate_dataset(SimParams(**TINY))
        assert "targeting-s00-p00" in ds.class_labels
        assert "targeting-s01-p05" in ds.class_labels
