"""Set accumulator over a sorted-leaf hash tree.

The committed set is the sorted list of element digests. The root binds the
leaf count, membership witnesses are authentication paths, and
non-membership witnesses are adjacency proofs: the two neighboring leaves
that would flank the absent element, shown consecutive under the same root.
Anyone holding a root can check either witness kind; no trusted manager
exists. Removal changes the root, which is what invalidates stale
witnesses.

Mutations mark the tree dirty and the node levels rebuild lazily on the
next query, so long runs of inserts cost a sorted-list insert each rather
than a tree rebuild each.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .crypto import hash_parts
from .errors import AlreadyMember, NotMember

_LEAF_TAG = b"acc-leaf"
_NODE_TAG = b"acc-node"
_ROOT_TAG = b"acc-root"


@dataclass(frozen=True)
class MembershipWitness:
    domain_tag: bytes
    leaf: bytes
    index: int
    count: int
    # (sibling digest, 0 if sibling sits left of the running hash else 1)
    path: tuple[tuple[bytes, int], ...]


@dataclass(frozen=True)
class NonMembershipWitness:
    domain_tag: bytes
    left: MembershipWitness | None
    right: MembershipWitness | None
    count: int


class Accumulator:
    def __init__(self, domain_tag: bytes):
        self.domain_tag = domain_tag
        self._leaves: list[bytes] = []  # sorted element digests
        self._levels: list[list[bytes]] | None = None

    # -- commitment ----------------------------------------------------------

    def element_digest(self, element: bytes) -> bytes:
        return hash_parts(_LEAF_TAG, self.domain_tag, element)

    def _tree(self) -> list[list[bytes]]:
        if self._levels is None:
            levels = [list(self._leaves)]
            while len(levels[-1]) > 1:
                prev = levels[-1]
                nxt = [hash_parts(_NODE_TAG, prev[i], prev[i + 1])
                       for i in range(0, len(prev) - 1, 2)]
                if len(prev) % 2:  # odd node promotes unchanged
                    nxt.append(prev[-1])
                levels.append(nxt)
            self._levels = levels
        return self._levels

    @property
    def count(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        levels = self._tree()
        top = levels[-1][0] if levels[-1] else b""
        return hash_parts(_ROOT_TAG, self.domain_tag, top,
                          len(self._leaves).to_bytes(8, "big"))

    def _search(self, element: bytes) -> tuple[bytes, int, bool]:
        """The element's digest, its index in the sorted leaves, and whether it is there."""
        digest = self.element_digest(element)
        i = bisect.bisect_left(self._leaves, digest)
        return digest, i, i < len(self._leaves) and self._leaves[i] == digest

    def contains(self, element: bytes) -> bool:
        return self._search(element)[2]

    # -- mutation --------------------------------------------------------------

    def admit(self, element: bytes) -> bool:
        """Insert if absent; True when the element was new.

        The cheap path used by bulk registration: no witness is built.
        """
        digest, i, present = self._search(element)
        if not present:
            self._leaves.insert(i, digest)
            self._levels = None
        return not present

    def _witness_at(self, index: int) -> MembershipWitness:
        levels = self._tree()
        path: list[tuple[bytes, int]] = []
        pos = index
        for level in levels[:-1]:
            width = len(level)
            if pos % 2 == 1:
                path.append((level[pos - 1], 0))
            elif pos + 1 < width:
                path.append((level[pos + 1], 1))
            # else: odd tail node, promoted with no sibling
            pos //= 2
        return MembershipWitness(self.domain_tag, self._leaves[index], index,
                                 len(self._leaves), tuple(path))


def accumulator_generate(seed: int) -> Accumulator:
    """Fresh empty accumulator; the seed only namespaces its hash domain."""
    return Accumulator(hash_parts(b"acc-domain", seed.to_bytes(8, "big", signed=False)))


def accumulator_remove(acc: Accumulator, element: bytes) -> None:
    _, i, present = acc._search(element)
    if not present:
        raise NotMember(f"element not accumulated: {element!r}")
    del acc._leaves[i]
    acc._levels = None


def _level_widths(count: int) -> list[int]:
    widths = [count]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    return widths


def _verify_path(witness: MembershipWitness, root: bytes) -> bool:
    if not 0 <= witness.index < witness.count:
        return False
    running = witness.leaf
    pos = witness.index
    path = iter(witness.path)
    for width in _level_widths(witness.count)[:-1]:
        if pos % 2 == 1 or pos + 1 < width:
            try:
                sibling, side = next(path)
            except StopIteration:
                return False
            if (pos % 2 == 1) != (side == 0):
                return False
            pair = (sibling, running) if side == 0 else (running, sibling)
            running = hash_parts(_NODE_TAG, *pair)
        pos //= 2
    if next(path, None) is not None:
        return False
    expected = hash_parts(_ROOT_TAG, witness.domain_tag, running,
                          witness.count.to_bytes(8, "big"))
    return expected == root


def accumulator_verify(root: bytes, element: bytes, witness: MembershipWitness) -> bool:
    """Publicly check that `element` sits under the published `root`."""
    expected_leaf = hash_parts(_LEAF_TAG, witness.domain_tag, element)
    return witness.leaf == expected_leaf and _verify_path(witness, root)


def accumulator_non_membership(acc: Accumulator, element: bytes) -> NonMembershipWitness:
    """Adjacency proof that `element` is absent from the current set."""
    _, i, present = acc._search(element)
    if present:
        raise AlreadyMember(f"element already accumulated: {element!r}")
    left = acc._witness_at(i - 1) if i > 0 else None
    right = acc._witness_at(i) if i < len(acc._leaves) else None
    return NonMembershipWitness(acc.domain_tag, left, right, len(acc._leaves))


def accumulator_verify_non_membership(root: bytes, element: bytes,
                                      witness: NonMembershipWitness) -> bool:
    """Check an adjacency proof against the published `root`: both neighbors
    verify, sit next to each other, and the absent element's digest falls
    strictly between them; at the boundaries a single neighbor plus the
    count pins the gap."""
    digest = hash_parts(_LEAF_TAG, witness.domain_tag, element)
    left, right = witness.left, witness.right
    if witness.count == 0:
        empty = hash_parts(_ROOT_TAG, witness.domain_tag, b"", (0).to_bytes(8, "big"))
        return left is None and right is None and root == empty
    for side in (left, right):
        if side is not None and (side.count != witness.count or not _verify_path(side, root)):
            return False
    if left is not None and right is not None:
        return (right.index == left.index + 1
                and left.leaf < digest < right.leaf)
    if right is not None:  # element sorts before the whole set
        return right.index == 0 and digest < right.leaf
    if left is not None:  # element sorts after the whole set
        return left.index == witness.count - 1 and digest > left.leaf
    return False
