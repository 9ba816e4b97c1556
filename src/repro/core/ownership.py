"""The ownership network: a context DAG completed into a join semi-lattice.

This module implements §3 of the paper:

* contexts form a DAG under the *directly-owned* relation (a context C is
  directly owned by C' if a field of C' references C);
* ``desc(G, C)`` — the descendants of C, **including C itself**;
* ``share(G, C)`` — the two-clause definition from the paper:

  1. contexts C' whose *direct children* intersect the proper
     descendants of C ("contexts which might be an owner of C and
     moreover share a common child with C" — e.g. the Kings Room shares
     the Treasure child with Player1, and a TPC-C District shares Order
     children with its Customers);
  2. contexts C' incomparable with C whose descendant sets intersect
     (e.g. Player2 shares the Treasure with Player1).

* ``dom(G, C) = lub(G, share(G, C) ∪ {C})`` — the context at which every
  event targeting C is sequenced by the execution protocol.

When the least upper bound is not unique (multiple maxima sharing common
descendants) the paper adds "unnamed contexts"; here
:meth:`OwnershipNetwork.dominator` creates a *virtual root* joining the
offending maxima, which completes the DAG into a join semi-lattice.

Caching
-------
``desc``, ``share`` and ``dom`` are cached.  The common dynamic mutation —
adding a fresh leaf context (TPC-C creates an Order context on every
NewOrder transaction) — is handled incrementally: descendant sets of the
ancestors gain the leaf, new sharing pairs are derived from the parents'
ancestor sets, and only dominators whose share set actually changed are
invalidated.  Any other mutation (edges between existing contexts,
removals) conservatively clears all caches.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import FencedError, OwnershipCycleError, UnknownContextError

__all__ = ["FencingTable", "OwnershipNetwork", "VIRTUAL_PREFIX"]

VIRTUAL_PREFIX = "~vroot:"
"""Prefix of automatically created virtual (unnamed) join contexts."""


class FencingTable:
    """Per-subtree fencing epochs for honest failure handling.

    Each checkpoint root carries a monotonically increasing *fencing
    epoch*.  When the failure detector **declares** a server dead the
    recovery manager bumps the epoch of every subtree hosted there
    (:meth:`fence`) — from that instant, writes anywhere in the fenced
    subtree raise :class:`FencedError` until a new holder is granted the
    fresh epoch (:meth:`grant`).  The table never consults cluster
    ground truth: it is driven purely by declarations and grants, so a
    live-but-partitioned owner is fenced exactly like a dead one.

    A separate *manager epoch* fences the eManager itself: a recovered
    successor bumps it, and the predecessor's migration-WAL appends are
    rejected as stale (see ``MigrationCoordinator._log``).

    All state is mirrored to cloud storage by the eManager so that a
    successor rebuilds the same table after a failover.
    """

    def __init__(self) -> None:
        self._epochs: Dict[str, int] = {}
        self._fenced: Set[str] = set()
        self._holders: Dict[str, Optional[str]] = {}
        self._root_of: Dict[str, str] = {}
        self.manager_epoch = 0
        #: Writes rejected by :meth:`check_write` (stale-owner attempts).
        self.rejected = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def track(self, root: str, members: Iterable[str], holder: Optional[str]) -> None:
        """Register ``root`` (and its member cids) as a fenceable subtree."""
        self._epochs.setdefault(root, 0)
        self._holders.setdefault(root, holder)
        for member in members:
            self._root_of[member] = root

    def roots(self) -> List[str]:
        """All tracked subtree roots, sorted."""
        return sorted(self._epochs)

    # ------------------------------------------------------------------
    # Epoch protocol
    # ------------------------------------------------------------------
    def epoch(self, root: str) -> int:
        """Current fencing epoch of ``root`` (0 if never fenced)."""
        return self._epochs.get(root, 0)

    def holder(self, root: str) -> Optional[str]:
        """Server currently granted ``root`` (None while fenced)."""
        return self._holders.get(root)

    def is_fenced(self, root: str) -> bool:
        """Whether ``root`` is fenced (declared, handoff still pending)."""
        return root in self._fenced

    def fence(self, root: str) -> int:
        """Bump ``root``'s epoch and reject writes until a new grant.

        Idempotent while already fenced (a lease re-declaration must not
        bump again, or the eventual grant would race the re-declaration).
        Returns the new epoch.
        """
        if root not in self._fenced:
            self._epochs[root] = self._epochs.get(root, 0) + 1
            self._fenced.add(root)
            self._holders[root] = None
        return self._epochs[root]

    def grant(self, root: str, holder: str) -> int:
        """Hand ``root`` to ``holder`` at the current epoch; lifts the fence."""
        self._fenced.discard(root)
        self._holders[root] = holder
        return self._epochs.get(root, 0)

    def check_write(self, cid: str) -> None:
        """Raise :class:`FencedError` if ``cid`` sits in a fenced subtree.

        O(1); called on the write path only when fencing is enabled.
        """
        root = self._root_of.get(cid)
        if root is not None and root in self._fenced:
            self.rejected += 1
            raise FencedError(
                f"write to {cid!r} rejected: subtree {root!r} is fenced at "
                f"epoch {self._epochs.get(root, 0)} pending handoff"
            )

    def adopt_epoch(self, root: str, epoch: int) -> None:
        """Adopt a durably persisted epoch for ``root``.

        Failover path: a successor rebuilding the table from cloud
        storage takes the stored epoch when it is ahead of the local one
        — epochs only ever move forward.
        """
        if int(epoch) > self._epochs.get(root, 0):
            self._epochs[root] = int(epoch)

    def bump_manager(self) -> int:
        """Bump the eManager fencing epoch (successor takeover)."""
        self.manager_epoch += 1
        return self.manager_epoch

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A serializable copy of the whole table (for cloud storage)."""
        return {
            "manager_epoch": self.manager_epoch,
            "epochs": dict(self._epochs),
            "fenced": sorted(self._fenced),
            "holders": dict(self._holders),
        }

    def restore(self, payload: Dict[str, object]) -> None:
        """Overwrite epoch state from a :meth:`snapshot` payload.

        Membership (``track``) is re-derived by the caller from the
        ownership network; only epochs, fences and holders persist.
        """
        self.manager_epoch = int(payload.get("manager_epoch", 0))
        self._epochs.update(payload.get("epochs", {}))  # type: ignore[arg-type]
        self._fenced.update(payload.get("fenced", ()))  # type: ignore[arg-type]
        self._holders.update(payload.get("holders", {}))  # type: ignore[arg-type]


class OwnershipNetwork:
    """A mutable DAG of context ids with dominator computation."""

    def __init__(self) -> None:
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}
        self._desc_cache: Dict[str, Set[str]] = {}
        self._share_cache: Dict[str, Set[str]] = {}
        self._dom_cache: Dict[str, str] = {}
        # (src, dst) -> path; valid across leaf additions (a childless
        # leaf can't appear on, or shorten, a path between existing
        # nodes), cleared on every other structural mutation.
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._vroot_counter = 0
        # Structural epoch, bumped on every mutation; lets long-lived
        # consumers (e.g. client-side location caches) detect staleness.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Structure mutation
    # ------------------------------------------------------------------
    def add_context(self, cid: str, parents: Iterable[str] = ()) -> None:
        """Add a fresh (childless) context, optionally under parents.

        This is the fast path: a new leaf cannot lower any least upper
        bound, so caches are patched incrementally rather than cleared.
        """
        if cid in self._parents:
            raise ValueError(f"context {cid!r} already exists")
        parent_list = sorted(set(parents))
        for parent in parent_list:
            self._require(parent)
        self._parents[cid] = set(parent_list)
        self._children[cid] = set()
        for parent in parent_list:
            self._children[parent].add(cid)
        self.epoch += 1
        self._desc_cache[cid] = {cid}
        self._share_cache[cid] = set()
        self._patch_caches_for_leaf(cid, parent_list)

    def _patch_caches_for_leaf(self, leaf: str, parent_list: List[str]) -> None:
        """Incrementally account for a fresh leaf under ``parent_list``."""
        ancestor_sets = [self._ancestors_of(parent) for parent in parent_list]
        all_ancestors: Set[str] = set().union(*ancestor_sets) if ancestor_sets else set()
        for ancestor in all_ancestors:
            cached = self._desc_cache.get(ancestor)
            if cached is not None:
                cached.add(leaf)
        if len(parent_list) <= 1:
            return
        # New sharing pairs arise only between ancestors of different
        # parents of the leaf (the leaf is their new common descendant).
        for i, left_parent in enumerate(parent_list):
            for j, right_parent in enumerate(parent_list):
                if i >= j:
                    continue
                for left in ancestor_sets[i]:
                    for right in ancestor_sets[j]:
                        if left == right:
                            continue
                        self._record_new_sharing(left, right, left_parent, right_parent)

    def _record_new_sharing(
        self, left: str, right: str, left_parent: str, right_parent: str
    ) -> None:
        """Register that ``left``/``right`` now share the new leaf."""
        left_desc = self.descendants(left)
        right_desc = self.descendants(right)
        incomparable = left not in right_desc and right not in left_desc
        # Clause 1: a direct parent of the leaf appears in the share set
        # of every other ancestor (the leaf is a shared child) — unless
        # it is that ancestor's descendant (lub-irrelevant, see
        # _compute_share).
        if left == left_parent and left not in right_desc:
            self._share_add(right, left)
        if right == right_parent and right not in left_desc:
            self._share_add(left, right)
        # Clause 2: incomparable contexts with intersecting descendants.
        if incomparable:
            self._share_add(left, right)
            self._share_add(right, left)

    def _share_add(self, owner: str, member: str) -> None:
        cached = self._share_cache.get(owner)
        if cached is not None and member not in cached:
            cached.add(member)
            self._dom_cache.pop(owner, None)

    def remove_context(self, cid: str) -> None:
        """Remove a context and all its ownership edges."""
        self._require(cid)
        for parent in list(self._parents[cid]):
            self._children[parent].discard(cid)
        for child in list(self._children[cid]):
            self._parents[child].discard(cid)
        del self._parents[cid]
        del self._children[cid]
        self._invalidate()

    def add_edge(self, parent: str, child: str) -> None:
        """Record that ``parent`` directly owns ``child``.

        Raises :class:`OwnershipCycleError` if the edge would create a
        cycle — the runtime check the paper requires for inductive
        (self-recursive) contextclass structures.
        """
        self._require(parent)
        self._require(child)
        if child in self._children[parent]:
            return
        self._check_no_cycle(parent, child)
        self._children[parent].add(child)
        self._parents[child].add(parent)
        self._invalidate()

    def remove_edge(self, parent: str, child: str) -> None:
        """Remove a direct-ownership edge (no-op if absent)."""
        self._require(parent)
        self._require(child)
        if child not in self._children[parent]:
            return
        self._children[parent].discard(child)
        self._parents[child].discard(parent)
        self._invalidate()

    def _check_no_cycle(self, parent: str, child: str) -> None:
        if parent == child or parent in self._reachable_from(child):
            raise OwnershipCycleError(
                f"edge {parent!r} -> {child!r} would create an ownership cycle"
            )

    def _invalidate(self) -> None:
        self._desc_cache.clear()
        self._share_cache.clear()
        self._dom_cache.clear()
        self._path_cache.clear()
        self.epoch += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, cid: str) -> bool:
        return cid in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def contexts(self) -> List[str]:
        """All context ids, including virtual join contexts."""
        return list(self._parents)

    def parents(self, cid: str) -> Set[str]:
        """Direct owners of ``cid``."""
        self._require(cid)
        return set(self._parents[cid])

    def children(self, cid: str) -> Set[str]:
        """Contexts directly owned by ``cid``."""
        self._require(cid)
        return set(self._children[cid])

    def is_virtual(self, cid: str) -> bool:
        """Whether ``cid`` is an automatically added join context."""
        return cid.startswith(VIRTUAL_PREFIX)

    def descendants(self, cid: str) -> Set[str]:
        """``desc(G, C)``: all contexts reachable from ``cid``, inclusive.

        The returned set is the live cache entry; callers must not
        mutate it.
        """
        self._require(cid)
        cached = self._desc_cache.get(cid)
        if cached is None:
            cached = self._reachable_from(cid)
            self._desc_cache[cid] = cached
        return cached

    def ancestors(self, cid: str) -> FrozenSet[str]:
        """All contexts that transitively own ``cid``, inclusive."""
        self._require(cid)
        return frozenset(self._ancestors_of(cid))

    def roots(self) -> List[str]:
        """Contexts with no owners (maximal elements)."""
        return [cid for cid, parents in self._parents.items() if not parents]

    def owns(self, owner: str, owned: str) -> bool:
        """Whether ``owner`` transitively owns ``owned`` (or equals it)."""
        return owned in self.descendants(owner)

    def _reachable_from(self, cid: str) -> Set[str]:
        seen = {cid}
        frontier = deque([cid])
        while frontier:
            node = frontier.popleft()
            for child in self._children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def _ancestors_of(self, cid: str) -> Set[str]:
        seen = {cid}
        frontier = deque([cid])
        while frontier:
            node = frontier.popleft()
            for parent in self._parents.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return seen

    # ------------------------------------------------------------------
    # share / dominator (§3 of the paper)
    # ------------------------------------------------------------------
    def share(self, cid: str) -> Set[str]:
        """Contexts that might conflict with events targeting ``cid``.

        Returns a copy; the internal cache is maintained incrementally
        for leaf additions and recomputed from scratch otherwise.
        """
        self._require(cid)
        cached = self._share_cache.get(cid)
        if cached is None:
            cached = self._compute_share(cid)
            self._share_cache[cid] = cached
        return set(cached)

    def _compute_share(self, cid: str) -> Set[str]:
        mine = self.descendants(cid)
        mine_proper = mine - {cid}
        my_ancestors = self._ancestors_of(cid)
        sharing: Set[str] = set()
        for other in self._parents:
            # Descendants of C never affect lub(share ∪ {C}) (every
            # ancestor of C is an ancestor of its descendants), so they
            # are excluded for both clauses.
            if other == cid or other in mine:
                continue
            # Clause 1: other's direct children intersect my proper
            # descendants (shared child with a (potential) owner).
            if not self._children[other].isdisjoint(mine_proper):
                sharing.add(other)
                continue
            # Clause 2: incomparable with intersecting descendant sets.
            if other in my_ancestors:
                continue
            if not mine.isdisjoint(self.descendants(other)):
                sharing.add(other)
        return sharing

    def dominator(self, cid: str) -> str:
        """``dom(G, C)``: the sequencing context for events targeting C.

        Computed as the least upper bound of ``share(C) ∪ {C}``.  If the
        bound does not exist or is not unique, a virtual join context is
        created over the relevant maxima (the semi-lattice completion)
        and becomes the dominator.  Cached until invalidated.
        """
        self._require(cid)
        cached = self._dom_cache.get(cid)
        if cached is not None and cached in self._parents:
            return cached
        group = self.share(cid) | {cid}
        dominator = self._lub(group)
        self._dom_cache[cid] = dominator
        return dominator

    def _lub(self, group: Set[str]) -> str:
        if len(group) == 1:
            return next(iter(group))
        common: Optional[Set[str]] = None
        for member in group:
            member_ancestors = self._ancestors_of(member)
            common = member_ancestors if common is None else (common & member_ancestors)
        assert common is not None
        if common:
            minimal = self._minimal_of(common)
            if len(minimal) == 1:
                return minimal[0]
            join_over = minimal
        else:
            # Disjoint maxima sharing descendants: join their roots.
            join_over = sorted(
                {root for member in group for root in self._roots_above(member)}
            )
        return self._virtual_join(join_over)

    def _minimal_of(self, candidates: Set[str]) -> List[str]:
        """Elements of ``candidates`` with no *descendant* also in the set."""
        minimal = []
        for candidate in sorted(candidates):
            below = self.descendants(candidate) - {candidate}
            if below.isdisjoint(candidates):
                minimal.append(candidate)
        return minimal

    def _roots_above(self, cid: str) -> List[str]:
        return [a for a in self._ancestors_of(cid) if not self._parents[a]]

    def _virtual_join(self, members: List[str]) -> str:
        """Find or create the virtual context owning all of ``members``."""
        key = set(members)
        for candidate in self._parents:
            if self.is_virtual(candidate) and self._children[candidate] >= key:
                return candidate
        self._vroot_counter += 1
        vroot = f"{VIRTUAL_PREFIX}{self._vroot_counter}"
        self._parents[vroot] = set()
        self._children[vroot] = set()
        for member in members:
            self._children[vroot].add(member)
            self._parents[member].add(vroot)
        self._invalidate()
        return vroot

    # ------------------------------------------------------------------
    # Paths (Algorithm 2, ``findPath``)
    # ------------------------------------------------------------------
    def find_path(self, src: str, dst: str) -> List[str]:
        """A shortest ownership path from ``src`` down to ``dst``, inclusive.

        Deterministic (children explored in sorted order).  Raises
        :class:`UnknownContextError` if either endpoint is missing and
        ``ValueError`` if ``dst`` is not a descendant of ``src``.
        """
        self._require(src)
        self._require(dst)
        if src == dst:
            return [src]
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return list(cached)
        # Walk upward from dst: ancestor sets are shallow even when the
        # graph holds many sibling leaves (TPC-C Orders), so this is far
        # cheaper than a downward BFS over the whole descendant set.
        back: Dict[str, str] = {}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for parent in sorted(self._parents[node]):
                if parent in back or parent == dst:
                    continue
                back[parent] = node
                if parent == src:
                    path = [src]
                    while path[-1] != dst:
                        path.append(back[path[-1]])
                    self._path_cache[(src, dst)] = path
                    return list(path)
                frontier.append(parent)
        raise ValueError(f"{dst!r} is not a descendant of {src!r}")

    def _require(self, cid: str) -> None:
        if cid not in self._parents:
            raise UnknownContextError(f"unknown context {cid!r}")

    # ------------------------------------------------------------------
    # Validation / export
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """Verify the whole network is a DAG (used by tests and checks)."""
        in_degree = {cid: len(parents) for cid, parents in self._parents.items()}
        frontier = deque([cid for cid, deg in in_degree.items() if deg == 0])
        visited = 0
        while frontier:
            node = frontier.popleft()
            visited += 1
            for child in self._children[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    frontier.append(child)
        return visited == len(self._parents)

    def edges(self) -> List[Tuple[str, str]]:
        """All (parent, child) ownership edges."""
        return [
            (parent, child)
            for parent, kids in self._children.items()
            for child in kids
        ]

    def snapshot(self) -> Dict[str, List[str]]:
        """A serializable copy of the adjacency (parent -> children)."""
        return {cid: sorted(kids) for cid, kids in self._children.items()}
