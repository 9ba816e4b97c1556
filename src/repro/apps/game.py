"""The multiplayer game application (§2, §6.1.1).

An arena (``Building``) contains ``Room`` contexts, one per server (the
Fig. 5a deployment); each room holds players and items.  Every player
owns a private ``gold_mine`` and ``treasure`` (the Listing 1 example), a
fraction of the players additionally *share* room items — sharing is
what exercises multiple ownership.

The same contextclasses serve all five measured systems; what changes is
the *wiring* and which method the client op targets:

=============  ==============================================  =========================
variant        shared-item access                              runtime
=============  ==============================================  =========================
``aeon``       player owns shared items, direct calls          AeonRuntime (multi-owner)
``aeon_so``    shared items owned by the Room only; shared     AeonRuntime
               ops are events *on the Room*
``eventwave``  same wiring as ``aeon_so``                      EventWaveRuntime
``orleans``    ALL item access via the Room grain (the lock-   OrleansRuntime
               the-whole-Room strictly serializable variant)
``orleans*``   players call item grains directly — fast but    OrleansRuntime
               non-atomic (the best-case erroneous variant)
=============  ==============================================  =========================
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.context import ContextClass, ContextRef, Ref, RefSet, cost, readonly
from ..core.events import CallSpec, async_, compute
from ..core.runtime import RuntimeBase
from ..sim.cluster import Server

__all__ = [
    "Item",
    "Player",
    "Room",
    "Building",
    "GameConfig",
    "GameApp",
    "build_game",
    "GAME_VARIANTS",
]

GAME_VARIANTS = ("aeon", "aeon_so", "eventwave", "orleans", "orleans_star")


class Item(ContextClass):
    """A game object: gold containers, weapons, furniture."""

    size_bytes = 4096

    def __init__(self, qty: int = 0) -> None:
        self.qty = qty
        self.uses = 0
        self.time_of_day = 0

    @cost(0.9)
    def get(self, amount: int) -> bool:
        """Withdraw ``amount``; returns whether the item had enough."""
        if self.qty >= amount:
            self.qty -= amount
            return True
        return False

    @cost(0.9)
    def put(self, player_id: int, amount: int) -> None:
        """Deposit ``amount`` on behalf of ``player_id``."""
        self.qty += amount
        self.uses += 1

    @cost(1.5)
    def use(self, player_id: int) -> int:
        """Interact with the item; returns its use count."""
        self.uses += 1
        return self.uses

    @readonly
    @cost(0.5)
    def peek(self) -> int:
        """Current quantity (read-only)."""
        return self.qty

    def set_time(self, tick: int) -> None:
        """Apply a time-of-day change."""
        self.time_of_day = tick


class Player(ContextClass):
    """A connected player; owns private items and maybe shared ones."""

    size_bytes = 16384

    gold_mine = Ref(Item)
    treasure = Ref(Item)
    shared_items = RefSet(Item)

    def __init__(self, player_id: int) -> None:
        self.player_id = player_id
        self.time_of_day = 0
        # Plain (non-ownership) grain reference, wired only for the
        # Orleans lock variant: AEON's type system rejects an upward
        # Ref(Room) here (cycle), Orleans grains are unordered.
        self.room_grain: "ContextRef | None" = None

    @cost(0.6)
    def get_gold(self, amount: int):
        """Move gold from the private mine to the private treasure."""
        ok = yield self.gold_mine.get(amount)
        if ok:
            yield self.treasure.put(self.player_id, amount)
        return ok

    @cost(0.4)
    def use_shared(self, index: int):
        """Interact with one of the player's shared items (multi-owner)."""
        items = self.shared_items.refs()
        if not items:
            return 0
        target = items[index % len(items)]
        result = yield target.use(self.player_id)
        return result

    def get_gold_via_room(self, amount: int):
        """Orleans lock variant: the whole Room arbitrates item access."""
        result = yield self.room_grain.do_get_gold(self.player_id, amount)
        return result

    def use_shared_via_room(self, index: int):
        """Orleans lock variant: shared access through the Room grain."""
        result = yield self.room_grain.do_use_item(self.player_id, index)
        return result

    def update_time_of_day(self, tick: int):
        """Apply a time change to the player and its private items."""
        self.time_of_day = tick
        yield compute(0.05)
        yield self.gold_mine.set_time(tick)
        yield self.treasure.set_time(tick)


class Room(ContextClass):
    """A room: owns its players and items; one per server in Fig. 5a."""

    size_bytes = 1_000_000  # the Fig. 8 migration unit

    players = RefSet(Player)
    items = RefSet(Item)

    def __init__(self, room_id: int) -> None:
        self.room_id = room_id
        self.time_of_day = 0
        # Player-id -> (mine, treasure) refs, for the via-room variants.
        self.player_items: Dict[int, Tuple[ContextRef, ContextRef]] = {}

    @readonly
    @cost(0.7)
    def nr_players(self) -> int:
        """Number of players in the room (read-only)."""
        return len(self.players)

    @readonly
    @cost(0.7)
    def nr_items(self) -> int:
        """Number of items in the room (read-only)."""
        return len(self.items)

    @cost(0.6)
    def do_get_gold(self, player_id: int, amount: int):
        """Perform a private-gold move under the Room's arbitration.

        Used by the single-ownership wirings (AEON_SO / EventWave target
        the Room as the event entry) and the Orleans lock variant (the
        Room grain serializes all item access).
        """
        refs = self.player_items.get(player_id)
        if refs is None:
            return False
        mine, treasure = refs
        ok = yield mine.get(amount)
        if ok:
            yield treasure.put(player_id, amount)
        return ok

    @cost(0.4)
    def do_use_item(self, player_id: int, index: int):
        """Interact with a room item on behalf of a player."""
        items = self.items.refs()
        if not items:
            return 0
        target = items[index % len(items)]
        result = yield target.use(player_id)
        return result

    def update_time_of_day(self, tick: int):
        """Propagate a time change to everything in the room (async)."""
        self.time_of_day = tick
        yield compute(0.1)
        for player in self.players:
            yield async_(player.update_time_of_day(tick))


class Building(ContextClass):
    """The arena root (the Castle of Fig. 3)."""

    size_bytes = 65536

    rooms = RefSet(Room)

    def __init__(self, name: str = "castle") -> None:
        self.name = name
        self.time_of_day = 0

    def update_time_of_day(self, tick: int):
        """Change the time of day in all rooms in parallel (Listing 1)."""
        self.time_of_day = tick
        for room in self.rooms:
            yield async_(room.update_time_of_day(tick))

    @readonly
    def count_players(self):
        """Total players across all rooms (read-only, Listing 1)."""
        total = 0
        for room in self.rooms:
            total += yield room.nr_players()
        return total


@dataclass
class GameConfig:
    """Deployment and workload-mix parameters for the game."""

    rooms: int = 4
    players_per_room: int = 8
    shared_items_per_room: int = 4
    #: Fraction of each room's players that own (hence share) room items.
    sharers_fraction: float = 0.4
    gold_supply: int = 10_000_000
    #: Op mix: private gold moves / shared item uses / read-only probes.
    p_private: float = 0.55
    p_shared: float = 0.15
    p_readonly: float = 0.30

    def validate(self) -> None:
        """Sanity-check the mix and sizes."""
        total = self.p_private + self.p_shared + self.p_readonly
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"op mix must sum to 1.0, got {total}")
        if self.rooms < 1 or self.players_per_room < 1:
            raise ValueError("need at least one room and one player")


@dataclass
class GameApp:
    """Handles to a built game plus the client-op sampler."""

    runtime: RuntimeBase
    variant: str
    config: GameConfig
    building: ContextRef
    rooms: List[ContextRef] = field(default_factory=list)
    players: List[List[ContextRef]] = field(default_factory=list)
    room_servers: List[Server] = field(default_factory=list)
    #: Cumulative room-pick distribution; None = uniform (the default,
    #: which keeps historical draw sequences byte-identical).  Set via
    #: :meth:`set_room_weights` for skewed-traffic experiments.
    _room_cdf: Optional[List[float]] = None

    def set_room_weights(self, weights: Sequence[float]) -> None:
        """Skew client traffic across rooms (fig11's hot/cold mix).

        ``weights[i]`` is room *i*'s relative share of client ops; they
        need not sum to one.  Costs one ``rng.random()`` draw per op in
        place of the uniform ``rng.randrange`` draw.
        """
        if len(weights) != len(self.rooms):
            raise ValueError(
                f"need one weight per room ({len(self.rooms)}), got {len(weights)}"
            )
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise ValueError("room weights must be non-negative with a positive sum")
        cdf, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift
        self._room_cdf = cdf

    def sample_op(self, rng: Random) -> Tuple[CallSpec, str]:
        """Draw one client operation ``(spec, tag)`` from the mix."""
        if self._room_cdf is None:
            room_idx = rng.randrange(len(self.rooms))
        else:
            room_idx = bisect.bisect_left(self._room_cdf, rng.random())
        player_idx = rng.randrange(len(self.players[room_idx]))
        player = self.players[room_idx][player_idx]
        room = self.rooms[room_idx]
        roll = rng.random()
        config = self.config
        if roll < config.p_private:
            return self._private_op(room, player, rng), "private"
        if roll < config.p_private + config.p_shared:
            return self._shared_op(room, player, rng), "shared"
        return self._readonly_op(room, player, rng), "readonly"

    def _private_op(self, room: ContextRef, player: ContextRef, rng: Random) -> CallSpec:
        amount = rng.randrange(1, 50)
        if self.variant == "orleans":
            return player.get_gold_via_room(amount)
        if self.variant in ("aeon_so", "eventwave"):
            # Single ownership: ALL items belong to the Room, so even a
            # player's private gold moves are events on the Room (the
            # EventWave game design the paper reuses).
            return room.do_get_gold(self._player_id_of(player), amount)
        return player.get_gold(amount)

    def _shared_op(self, room: ContextRef, player: ContextRef, rng: Random) -> CallSpec:
        index = rng.randrange(max(1, self.config.shared_items_per_room))
        if self.variant in ("aeon_so", "eventwave"):
            # Without multiple ownership, shared items are reachable
            # only through the Room: the op is an event on the Room.
            player_id = self._player_id_of(player)
            return room.do_use_item(player_id, index)
        if self.variant == "orleans":
            return player.use_shared_via_room(index)
        # aeon / orleans_star: direct access through (shared) ownership.
        return player.use_shared(index)

    def _readonly_op(self, room: ContextRef, player: ContextRef, rng: Random) -> CallSpec:
        return room.nr_players() if rng.random() < 0.7 else room.nr_items()

    def _player_id_of(self, player: ContextRef) -> int:
        return self.runtime.instance_of(player).player_id

    def total_gold(self) -> int:
        """Conservation check: total gold across all private items."""
        total = 0
        for room_players in self.players:
            for player in room_players:
                instance = self.runtime.instance_of(player)
                total += self.runtime.instance_of(instance.gold_mine).qty
                total += self.runtime.instance_of(instance.treasure).qty
        return total


def build_game(
    runtime: RuntimeBase,
    config: GameConfig,
    variant: str,
    servers: Optional[Sequence[Server]] = None,
) -> GameApp:
    """Construct the game's context graph for ``variant`` on ``runtime``.

    With AEON/EventWave, each Room and its contents are co-located on one
    server (the runtime's placement optimization the paper credits in
    §6.1.1); Orleans variants pass ``server=None`` and get hash placement.
    """
    if variant not in GAME_VARIANTS:
        raise ValueError(f"unknown game variant {variant!r}; pick from {GAME_VARIANTS}")
    config.validate()
    colocate = variant in ("aeon", "aeon_so", "eventwave")
    server_pool = list(servers or runtime.cluster.alive_servers().values())
    if not server_pool:
        raise ValueError("no servers available to host the game")

    def host(index: int) -> Optional[Server]:
        return server_pool[index % len(server_pool)] if colocate else None

    multi_ownership = variant in ("aeon", "orleans", "orleans_star")
    sharers = max(1, int(round(config.players_per_room * config.sharers_fraction)))
    player_seq = 0

    building = runtime.create_context(
        Building, server=host(0), name="castle", args=("castle",)
    )
    app = GameApp(runtime=runtime, variant=variant, config=config, building=building)
    per_player_gold = config.gold_supply // max(
        1, config.rooms * config.players_per_room
    )
    for room_idx in range(config.rooms):
        room_server = host(room_idx)
        room = runtime.create_context(
            Room,
            owners=[building],
            server=room_server,
            name=f"room-{room_idx}",
            args=(room_idx,),
        )
        runtime.instance_of(building).rooms.add(room)
        app.rooms.append(room)
        if room_server is not None:
            app.room_servers.append(room_server)

        shared_refs: List[ContextRef] = []
        for item_idx in range(config.shared_items_per_room):
            item = runtime.create_context(
                Item,
                owners=[room],
                server=room_server,
                name=f"room-{room_idx}-item-{item_idx}",
                args=(0,),
            )
            runtime.instance_of(room).items.add(item)
            shared_refs.append(item)

        room_players: List[ContextRef] = []
        for p_idx in range(config.players_per_room):
            player_seq += 1
            player = runtime.create_context(
                Player,
                owners=[room],
                server=room_server,
                name=f"player-{player_seq}",
                args=(player_seq,),
            )
            runtime.instance_of(room).players.add(player)
            mine = runtime.create_context(
                Item,
                owners=[player],
                server=room_server,
                name=f"player-{player_seq}-mine",
                args=(per_player_gold,),
            )
            treasure = runtime.create_context(
                Item,
                owners=[player],
                server=room_server,
                name=f"player-{player_seq}-treasure",
                args=(0,),
            )
            player_instance = runtime.instance_of(player)
            player_instance.gold_mine = mine
            player_instance.treasure = treasure
            runtime.instance_of(room).player_items[player_seq] = (mine, treasure)
            if variant == "orleans":
                player_instance.room_grain = room
            if multi_ownership and p_idx < sharers and shared_refs:
                for item in shared_refs:
                    player_instance.shared_items.add(item)
            room_players.append(player)
        app.players.append(room_players)
    return app
