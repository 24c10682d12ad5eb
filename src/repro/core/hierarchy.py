"""Refresh hierarchy construction.

Each data item's caching nodes are organised into a tree rooted at the
item's source; a node refreshes exactly its children.  The builder is
greedy and rate-aware:

1. the root (source) is placed at depth 0;
2. repeatedly, among all (unplaced caching node, placed node with spare
   fanout below the depth budget) pairs, the pair with the highest
   contact rate is linked -- so the strongest opportunistic edges carry
   refresh responsibility;
3. caching nodes with no positive rate to any placed node are attached
   to the shallowest parent with spare fanout (their edges will rely
   entirely on relays).

The alternative builders implement baselines: :func:`star_tree` (depth
1 -- the flat/SourceOnly structures) and :func:`random_tree` (random
parents under the same budgets -- the assignment ablation).

In deployment, the source gathers the pairwise rates among the caching
nodes when the caching set is established (the same exchange that NCL
selection performs) and disseminates the computed assignment; this
module is that computation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.contacts import rates as rates_module
from repro.contacts.rates import RateTable


@dataclass
class RefreshTree:
    """Responsibility tree for one item: who refreshes whom."""

    root: int
    parent: dict[int, int] = field(default_factory=dict)
    children: dict[int, list[int]] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.depth.setdefault(self.root, 0)
        self.children.setdefault(self.root, [])

    @property
    def nodes(self) -> set[int]:
        """All nodes in the tree, including the root."""
        return set(self.depth)

    @property
    def members(self) -> set[int]:
        """The caching nodes (everything but the root)."""
        return set(self.depth) - {self.root}

    @property
    def max_depth(self) -> int:
        return max(self.depth.values(), default=0)

    def children_of(self, node: int) -> list[int]:
        return self.children.get(node, [])

    def parent_of(self, node: int) -> Optional[int]:
        return self.parent.get(node)

    def depth_of(self, node: int) -> int:
        return self.depth[node]

    def path_to_root(self, node: int) -> list[int]:
        """Nodes from ``node`` up to (and including) the root."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) pairs, children in assignment order."""
        out = []
        for parent, kids in self.children.items():
            out.extend((parent, child) for child in kids)
        return out

    def attach(self, child: int, parent: int) -> None:
        """Attach ``child`` under ``parent`` (parent must be placed)."""
        if parent not in self.depth:
            raise ValueError(f"parent {parent} is not in the tree")
        if child in self.depth:
            raise ValueError(f"node {child} is already in the tree")
        self.parent[child] = parent
        self.children.setdefault(parent, []).append(child)
        self.children.setdefault(child, [])
        self.depth[child] = self.depth[parent] + 1

    def detach(self, node: int) -> list[int]:
        """Remove ``node`` and its whole subtree.

        Returns every detached descendant (the nodes the caller must
        re-attach when maintaining the hierarchy incrementally).
        """
        if node == self.root:
            raise ValueError("cannot detach the root")
        if node not in self.depth:
            raise ValueError(f"node {node} is not in the tree")
        orphans = list(self.children.get(node, []))
        for orphan in orphans:
            del self.parent[orphan]
        parent = self.parent.pop(node)
        self.children[parent].remove(node)
        self.children.pop(node, None)
        del self.depth[node]
        # Orphans (and their subtrees) leave the tree entirely.
        detached = []
        stack = list(orphans)
        while stack:
            current = stack.pop()
            detached.append(current)
            stack.extend(self.children.get(current, []))
            self.children.pop(current, None)
            self.parent.pop(current, None)
            self.depth.pop(current, None)
        return detached

    def render(self, label: Optional[dict[int, str]] = None) -> str:
        """ASCII rendering of the tree (root first, children indented).

        ``label`` optionally maps node ids to display strings.
        """
        names = label or {}

        def line(node: int, prefix: str, is_last: bool) -> list[str]:
            text = names.get(node, str(node))
            connector = "`- " if is_last else "|- "
            out = [f"{prefix}{connector}{text}" if prefix or connector else text]
            kids = self.children_of(node)
            child_prefix = prefix + ("   " if is_last else "|  ")
            for k, child in enumerate(kids):
                out.extend(line(child, child_prefix, k == len(kids) - 1))
            return out

        lines = [names.get(self.root, str(self.root))]
        kids = self.children_of(self.root)
        for k, child in enumerate(kids):
            lines.extend(line(child, "", k == len(kids) - 1))
        return "\n".join(lines)

    def validate(self, fanout: Optional[int] = None, max_depth: Optional[int] = None) -> None:
        """Raise ``ValueError`` on any violated tree invariant."""
        for node, parent in self.parent.items():
            if parent not in self.depth:
                raise ValueError(f"parent {parent} of {node} is not placed")
            if self.depth[node] != self.depth[parent] + 1:
                raise ValueError(f"depth of {node} inconsistent with parent {parent}")
            if node not in self.children.get(parent, []):
                raise ValueError(f"{node} missing from children of {parent}")
        for parent, kids in self.children.items():
            for child in kids:
                if self.parent.get(child) != parent:
                    raise ValueError(f"child {child} does not point back to {parent}")
            if fanout is not None and parent != self.root and len(kids) > fanout:
                raise ValueError(f"node {parent} exceeds fanout {fanout}")
        if max_depth is not None and self.max_depth > max_depth:
            raise ValueError(f"tree depth {self.max_depth} exceeds budget {max_depth}")
        # Reachability: every placed node must reach the root.
        for node in self.depth:
            seen = set()
            current = node
            while current != self.root:
                if current in seen:
                    raise ValueError(f"cycle through {current}")
                seen.add(current)
                current = self.parent.get(current)
                if current is None:
                    raise ValueError(f"node {node} is disconnected from the root")


def build_tree(
    root: int,
    caching_nodes: Iterable[int],
    rates: RateTable,
    fanout: int = 3,
    max_depth: int = 3,
    root_fanout: Optional[int] = None,
) -> RefreshTree:
    """Rate-aware greedy tree over ``caching_nodes`` rooted at ``root``.

    ``fanout`` bounds every caching node's children; ``root_fanout``
    (default: same as ``fanout``) bounds the source separately.  Every
    caching node is placed exactly once; an over-constrained budget
    (fanout too small to hold everyone within ``max_depth``) raises.
    """
    members = _clean_members(root, caching_nodes)
    _check_capacity(len(members), fanout, max_depth, root_fanout or fanout)
    tree = RefreshTree(root=root)
    unplaced = set(members)
    root_cap = root_fanout or fanout

    def capacity_of(node: int) -> int:
        cap = root_cap if node == root else fanout
        return cap - len(tree.children_of(node))

    # Priority queue of candidate links (-rate, parent_depth, parent, child):
    # strongest edges claim responsibility first.
    heap: list[tuple[float, int, int, int]] = []

    if rates_module.VECTORISED_RATES:
        # Bulk candidate construction: one vectorised submatrix lookup up
        # front, then each placement pushes its whole positive-rate row
        # against the unplaced mask.  Entry values (and therefore heap pop
        # order, a total order over unique tuples) match the per-child
        # lookup path exactly.
        ids = [root] + members
        idx = {nid: i for i, nid in enumerate(ids)}
        sub = rates.matrix(ids)
        placed = np.zeros(len(ids), dtype=bool)
        placed[0] = True
        ids_arr = np.asarray(ids, dtype=np.int64)

        def push_candidates(parent: int) -> None:
            depth = tree.depth[parent]
            if depth >= max_depth:
                return
            row = sub[idx[parent]]
            cand = ~placed & (row > 0)
            for rate, child in zip(row[cand].tolist(), ids_arr[cand].tolist()):
                heapq.heappush(heap, (-rate, depth, parent, child))

        def mark_placed(child: int) -> None:
            placed[idx[child]] = True

    else:

        def push_candidates(parent: int) -> None:
            if tree.depth[parent] >= max_depth:
                return
            for child in unplaced:
                rate = rates.rate(parent, child)
                if rate > 0:
                    heapq.heappush(heap, (-rate, tree.depth[parent], parent, child))

        def mark_placed(child: int) -> None:
            pass

    push_candidates(root)
    while unplaced and heap:
        neg_rate, parent_depth, parent, child = heapq.heappop(heap)
        if child not in unplaced:
            continue
        if tree.depth.get(parent) != parent_depth or capacity_of(parent) <= 0:
            continue
        tree.attach(child, parent)
        unplaced.discard(child)
        mark_placed(child)
        push_candidates(child)
    # Fallback for nodes with no positive rate to anyone placed: attach
    # to the shallowest parent with capacity.
    for child in sorted(unplaced):
        parent = _shallowest_open(tree, capacity_of, max_depth)
        tree.attach(child, parent)
    return tree


def star_tree(root: int, caching_nodes: Iterable[int]) -> RefreshTree:
    """Depth-1 tree: the source is directly responsible for everyone.

    The structure used by the flat-replication and SourceOnly baselines.
    """
    members = _clean_members(root, caching_nodes)
    tree = RefreshTree(root=root)
    for child in members:
        tree.attach(child, root)
    return tree


def random_tree(
    root: int,
    caching_nodes: Iterable[int],
    rng: np.random.Generator,
    fanout: int = 3,
    max_depth: int = 3,
    root_fanout: Optional[int] = None,
) -> RefreshTree:
    """Random-parent tree under the same budgets (assignment ablation)."""
    members = _clean_members(root, caching_nodes)
    root_cap = root_fanout or fanout
    _check_capacity(len(members), fanout, max_depth, root_cap)
    tree = RefreshTree(root=root)
    order = list(members)
    rng.shuffle(order)
    for child in order:
        candidates = [
            node
            for node in sorted(tree.depth)
            if tree.depth[node] < max_depth
            and len(tree.children_of(node)) < (root_cap if node == root else fanout)
        ]
        parent = candidates[int(rng.integers(0, len(candidates)))]
        tree.attach(child, parent)
    return tree


def _clean_members(root: int, caching_nodes: Iterable[int]) -> list[int]:
    members = sorted({int(n) for n in caching_nodes} - {root})
    return members


def tree_capacity(fanout: int, max_depth: int,
                  root_fanout: Optional[int] = None) -> int:
    """Most caching nodes a refresh tree can hold: a ``root_fanout``-ary
    first level (default ``fanout``) over ``fanout``-ary subtrees, down
    to ``max_depth`` levels below the source.

    >>> tree_capacity(fanout=2, max_depth=2)
    6
    >>> tree_capacity(fanout=3, max_depth=3, root_fanout=1)
    13
    """
    capacity = level = root_fanout or fanout
    for _ in range(max_depth - 1):
        level *= fanout
        capacity += level
    return capacity


def _check_capacity(n: int, fanout: int, max_depth: int, root_fanout: int) -> None:
    if fanout < 1 or root_fanout < 1:
        raise ValueError("fanout must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    capacity = tree_capacity(fanout, max_depth, root_fanout)
    if n > capacity:
        raise ValueError(
            f"{n} caching nodes exceed tree capacity {capacity} "
            f"(fanout={fanout}, max_depth={max_depth})"
        )


def _shallowest_open(tree: RefreshTree, capacity_of, max_depth: int) -> int:
    candidates = [
        node
        for node in tree.depth
        if tree.depth[node] < max_depth and capacity_of(node) > 0
    ]
    if not candidates:
        raise ValueError("no parent with spare capacity (budget exhausted)")
    return min(candidates, key=lambda n: (tree.depth[n], n))
