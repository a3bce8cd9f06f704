"""Undirected trees with integer-labelled leaves and named inner nodes.

Leaves are the integers ``1..n``; inner nodes carry string names.  A tree
may optionally be rooted, which fixes the parent direction used by the
latent-variable model builders.  Everything is immutable.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable


class TreeTopology:
    """A finite undirected tree whose degree-1 leaf set is exactly 1..n."""

    __slots__ = ("nodes", "edges", "root", "_adj", "leaves")

    def __init__(self, edges: Iterable[tuple[object, object]], root: object | None = None):
        edge_set = frozenset(frozenset(e) for e in edges)
        if any(len(e) != 2 for e in edge_set):
            raise ValueError("self-loop in tree edges")
        nodes = frozenset(v for e in edge_set for v in e)
        if len(edge_set) != len(nodes) - 1:
            raise ValueError("edge count does not match a tree")
        adj: dict[object, tuple[object, ...]] = {}
        for e in edge_set:
            u, v = tuple(e)
            adj.setdefault(u, ())
            adj.setdefault(v, ())
        for e in edge_set:
            u, v = tuple(e)
            adj[u] = adj[u] + (v,)
            adj[v] = adj[v] + (u,)
        # Connectivity check.
        if nodes:
            seen = set()
            stack = [next(iter(nodes))]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj[x])
            if seen != nodes:
                raise ValueError("tree is not connected")
        leaves = tuple(sorted(v for v in nodes if len(adj[v]) == 1 and isinstance(v, int)))
        if any(isinstance(v, int) and len(adj[v]) > 1 for v in nodes):
            raise ValueError("integer labels are reserved for leaves")
        if root is not None and root not in nodes:
            raise ValueError(f"root {root!r} is not a node")
        self.nodes = nodes
        self.edges = edge_set
        self.root = root
        self._adj = {v: tuple(sorted(ws, key=str)) for v, ws in adj.items()}
        self.leaves = leaves

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def neighbors(self, v: object) -> tuple[object, ...]:
        return self._adj[v]

    def degree(self, v: object) -> int:
        return len(self._adj[v])

    def inner_nodes(self) -> tuple[object, ...]:
        return tuple(sorted(self.nodes.difference(self.leaves), key=str))

    def is_trivalent(self) -> bool:
        return all(len(self._adj[v]) == 3 for v in self.inner_nodes())

    def rooted_at(self, root: object) -> TreeTopology:
        return TreeTopology([tuple(e) for e in self.edges], root=root)

    def parent_map(self, root: object | None = None) -> dict[object, object]:
        """Parent of every non-root node when edges point away from the root."""
        r = root if root is not None else self.root
        if r is None:
            raise ValueError("tree is unrooted; pass a root")
        parents: dict[object, object] = {}
        stack = [r]
        seen = {r}
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    parents[y] = x
                    stack.append(y)
        return parents

    def path(self, u: object, v: object) -> tuple[object, ...]:
        """The unique path from u to v, inclusive."""
        prev: dict[object, object] = {u: u}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y in self._adj[x]:
                if y not in prev:
                    prev[y] = x
                    stack.append(y)
        if v not in prev:
            raise ValueError("nodes not connected")
        out = [v]
        while out[-1] != u:
            out.append(prev[out[-1]])
        return tuple(reversed(out))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TreeTopology)
            and self.edges == other.edges
            and self.root == other.root
        )

    def __hash__(self) -> int:
        return hash((self.edges, self.root))

    def __repr__(self) -> str:
        return f"TreeTopology({to_newick(self)!r})"


def suppress_degree_two(tree: TreeTopology) -> TreeTopology:
    """Contract paths through non-root inner nodes of degree 2."""
    protected = {tree.root} if tree.root is not None else set()
    edges = {tuple(sorted(e, key=str)) for e in tree.edges}
    adj: dict[object, set[object]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    changed = True
    while changed:
        changed = False
        for node in list(adj):
            if node in protected or isinstance(node, int):
                continue
            if len(adj[node]) == 2:
                a, b = sorted(adj[node], key=str)
                adj[a].discard(node)
                adj[b].discard(node)
                adj[a].add(b)
                adj[b].add(a)
                del adj[node]
                changed = True
    out_edges = {tuple(sorted((u, v), key=str)) for u in adj for v in adj[u]}
    return TreeTopology(out_edges, root=tree.root if tree.root in adj else None)


def caterpillar(n: int) -> TreeTopology:
    """Trivalent caterpillar: inner spine h1..h(n-2), leaves in index order.

    Leaves 1 and 2 hang off h1, leaf n off h(n-2), and leaf i off h(i-1)
    in between.  For n = 3 this is the 3-star; n = 2 is a single edge
    through one inner node.
    """
    if n < 2:
        raise ValueError("need at least two leaves")
    if n == 2:
        return TreeTopology([(1, "h1"), (2, "h1")], root="h1")
    spine = [f"h{i}" for i in range(1, n - 1)]
    edges: list[tuple[object, object]] = list(zip(spine, spine[1:]))
    edges.append((1, spine[0]))
    edges.append((2, spine[0]))
    for i in range(3, n):
        edges.append((i, spine[i - 2]))
    edges.append((n, spine[-1]))
    return TreeTopology(edges, root=spine[0])


def star(n: int) -> TreeTopology:
    """All n leaves attached to one central node."""
    if n < 2:
        raise ValueError("need at least two leaves")
    return TreeTopology([(i, "c") for i in range(1, n + 1)], root="c")


def quartet() -> TreeTopology:
    """Two cherries 12 and 34 joined by an inner edge, rooted at 'a'."""
    return TreeTopology([(1, "a"), (2, "a"), ("a", "b"), (3, "b"), (4, "b")], root="a")


def is_caterpillar(tree: TreeTopology) -> bool:
    """Trivalent after suppressing degree-2 nodes, with inner nodes on a path.

    This is the shape for which coarsening intervals in the induced
    partition lattice behave regularly enough for conditional-cumulant
    formulas; a star with four or more leaves is not of this shape.
    """
    core = suppress_degree_two(TreeTopology([tuple(e) for e in tree.edges], root=None))
    inner = [v for v in core.nodes if not isinstance(v, int)]
    if not inner:
        return True
    if any(core.degree(v) != 3 for v in inner):
        return False
    inner_degs = [sum(1 for w in core.neighbors(v) if not isinstance(w, int)) for v in inner]
    return all(d <= 2 for d in inner_degs)


def edge_splits(tree: TreeTopology) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Leaf bipartitions induced by deleting one edge, smaller side first."""
    out = []
    seen = set()
    for e in tree.edges:
        u, v = tuple(e)
        # Leaves on v's side of the removed edge.
        side: set[int] = set()
        stack = [v]
        visited = {u, v}
        while stack:
            x = stack.pop()
            if isinstance(x, int):
                side.add(x)
            for w in tree.neighbors(x):
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        a = tuple(sorted(side))
        b = tuple(sorted(set(tree.leaves) - side))
        if not a or not b:
            continue
        if (len(a), a) > (len(b), b):
            a, b = b, a
        if (a, b) not in seen:
            seen.add((a, b))
            out.append((a, b))
    return sorted(out)


def to_newick(tree: TreeTopology) -> str:
    root = tree.root
    if root is None:
        root = tree.inner_nodes()[0] if tree.inner_nodes() else tree.leaves[0]

    def render(node: object, parent: object | None) -> str:
        children = [w for w in tree.neighbors(node) if w != parent]
        if not children:
            return str(node)
        inside = ",".join(render(w, node) for w in children)
        return f"({inside}){node}"

    return render(root, None) + ";"


def from_newick(text: str) -> TreeTopology:
    """Parse a Newick string with named inner nodes, e.g. ``((1,2)a,(3,4)b)r;``.

    Integer tokens are leaves; the label after a closing parenthesis names
    the inner node.  Unnamed inner nodes get fresh ``v#`` names that no
    label in the text uses.  The outermost node becomes the root.  A
    repeated label, and a childless label that is not an integer, raise
    ``ValueError`` naming the label.
    """
    text = text.strip()
    if text.endswith(";"):
        text = text[:-1]
    pos = 0
    used = {label.strip() for label in re.split(r"[(),;]", text)}
    fresh = (name for name in map("v{}".format, itertools.count()) if name not in used)
    seen: set[object] = set()

    def peek() -> str:
        if pos < len(text):
            return text[pos]
        unclosed = text.count("(") - text.count(")")
        missing = f"missing ')' for {unclosed} open '('" if unclosed > 0 else "missing a node"
        raise ValueError(f"{missing}: the input ends at offset {pos} in {text!r}")

    def parse_node() -> tuple[object, list[tuple[object, object]]]:
        nonlocal pos
        edges: list[tuple[object, object]] = []
        if peek() == "(":
            pos += 1
            children = []
            while True:
                child, child_edges = parse_node()
                children.append(child)
                edges.extend(child_edges)
                after = peek()
                if after == ",":
                    pos += 1
                    continue
                if after == ")":
                    pos += 1
                    break
                raise ValueError(f"expected ',' or ')' after a child, found {after!r} at offset {pos} in {text!r}")
            label = parse_label()
            name: object = label if label else next(fresh)
            for child in children:
                edges.append((name, child))
        else:
            label = parse_label()
            if not label:
                raise ValueError(f"parse error at offset {pos} in {text!r}")
            if not label.isdecimal():
                raise ValueError(f"childless label {label!r} is not an integer leaf in {text!r}")
            name = int(label)
        if name in seen:
            raise ValueError(f"repeated label {label!r} in {text!r}")
        seen.add(name)
        return name, edges

    def parse_label() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos] not in "(),;":
            pos += 1
        return text[start:pos].strip()

    root, edges = parse_node()
    if pos != len(text):
        raise ValueError(f"trailing characters at offset {pos} in {text!r}")
    return TreeTopology(edges, root=root)
