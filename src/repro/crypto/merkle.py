"""Merkle hash tree protecting a block-addressed memory region.

This is the data structure behind the paper's Integrity Core ("this module is
based on hash-trees", section IV-B2).  The tree covers a fixed number of
equally-sized memory blocks; leaf ``i`` is the hash of block ``i`` (optionally
keyed and bound to the block address and a timestamp, which is what defeats
spoofing, relocation and replay), interior nodes hash the concatenation of
their children, and the root is kept in trusted on-chip storage.

The implementation supports:

* building the tree over an initial memory image,
* verifying a block read against the trusted root (returning the authentication
  path that a hardware walker would fetch),
* updating a block on writes, recomputing the path up to the root,
* detecting and reporting tampering via :class:`IntegrityViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.crypto.sha256 import sha256

__all__ = ["MerkleTree", "IntegrityViolation", "AuthPathEntry"]


class IntegrityViolation(Exception):
    """Raised when a block fails verification against the trusted root."""

    def __init__(self, block_index: int, message: str = "") -> None:
        self.block_index = block_index
        super().__init__(
            message or f"integrity violation detected on block {block_index}"
        )


@dataclass(frozen=True)
class AuthPathEntry:
    """One step of a Merkle authentication path.

    Attributes
    ----------
    level:
        Tree level of the sibling node (0 = leaves).
    index:
        Index of the sibling node within its level.
    digest:
        The sibling node's digest.
    is_left_sibling:
        True if the sibling sits to the left of the path node.
    """

    level: int
    index: int
    digest: bytes
    is_left_sibling: bool


def _default_leaf_hash(index: int, data: bytes, version: int) -> bytes:
    """Hash a leaf, binding block contents to its index and version.

    Binding the index defeats relocation (moving a valid ciphertext to a
    different address) and binding the version/timestamp defeats replay
    (restoring a stale but once-valid value) — exactly the two attacks the
    paper's LCF claims to cover with address control and time-stamp tags.
    """
    header = index.to_bytes(8, "big") + version.to_bytes(8, "big")
    return sha256(b"leaf" + header + data)


def _default_node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(b"node" + left + right)


class MerkleTree:
    """Binary Merkle tree over ``n_blocks`` blocks of ``block_size`` bytes.

    Parameters
    ----------
    n_blocks:
        Number of protected memory blocks.  Rounded up internally to the next
        power of two; phantom blocks hash an all-zero block.
    block_size:
        Size in bytes of each protected block.
    leaf_hash / node_hash:
        Override points for the hash functions (used by tests and by the
        keyed-MAC variant of the Integrity Core).
    """

    def __init__(
        self,
        n_blocks: int,
        block_size: int = 32,
        leaf_hash: Optional[Callable[[int, bytes, int], bytes]] = None,
        node_hash: Optional[Callable[[bytes, bytes], bytes]] = None,
    ) -> None:
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.n_blocks = n_blocks
        self.block_size = block_size
        self._leaf_hash = leaf_hash or _default_leaf_hash
        self._node_hash = node_hash or _default_node_hash

        self._n_leaves = 1
        while self._n_leaves < n_blocks:
            self._n_leaves *= 2
        self.depth = self._n_leaves.bit_length() - 1

        self._versions: List[int] = [0] * self._n_leaves
        # levels[0] = leaves, levels[-1] = [root]
        zero_block = bytes(block_size)
        leaves = [
            self._leaf_hash(i, zero_block, 0) for i in range(self._n_leaves)
        ]
        self._levels: List[List[bytes]] = [leaves]
        self._build_upper_levels()
        self.update_count = 0
        self.verify_count = 0

    # -- construction --------------------------------------------------------

    def _build_upper_levels(self) -> None:
        self._levels = self._levels[:1]
        current = self._levels[0]
        while len(current) > 1:
            parent = [
                self._node_hash(current[2 * i], current[2 * i + 1])
                for i in range(len(current) // 2)
            ]
            self._levels.append(parent)
            current = parent

    @classmethod
    def from_memory(
        cls,
        blocks: Sequence[bytes],
        block_size: int = 32,
        **kwargs,
    ) -> "MerkleTree":
        """Build a tree over an initial memory image given as a block list."""
        tree = cls(len(blocks), block_size=block_size, **kwargs)
        for index, data in enumerate(blocks):
            tree.update(index, data)
        return tree

    # -- properties -----------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The trusted root digest (stored on-chip in the real system)."""
        return self._levels[-1][0]

    @property
    def n_leaves(self) -> int:
        """Number of leaf slots (power of two >= ``n_blocks``)."""
        return self._n_leaves

    def version(self, block_index: int) -> int:
        """Current write-version (timestamp tag) of a block."""
        self._check_index(block_index)
        return self._versions[block_index]

    # -- updates --------------------------------------------------------------

    def update(self, block_index: int, data: bytes) -> bytes:
        """Record a write to ``block_index`` and return the new root.

        The block's version counter is incremented, which models the LCF's
        time-stamp tag: a later replay of the old ciphertext will hash with the
        wrong version and fail verification.
        """
        self._check_index(block_index)
        self._check_data(data)
        self._versions[block_index] += 1
        new_leaf = self._leaf_hash(block_index, data, self._versions[block_index])
        self._set_leaf(block_index, new_leaf)
        self.update_count += 1
        return self.root

    def _set_leaf(self, index: int, digest: bytes) -> None:
        levels = self._levels
        node_hash = self._node_hash
        levels[0][index] = digest
        node = index
        for level in range(1, len(levels)):
            below = levels[level - 1]
            node >>= 1
            levels[level][node] = node_hash(below[2 * node], below[2 * node + 1])

    # -- verification ---------------------------------------------------------

    def auth_path(self, block_index: int) -> List[AuthPathEntry]:
        """Return the authentication path for a block (siblings up to the root)."""
        self._check_index(block_index)
        path: List[AuthPathEntry] = []
        node = block_index
        for level in range(len(self._levels) - 1):
            sibling = node ^ 1
            path.append(
                AuthPathEntry(
                    level=level,
                    index=sibling,
                    digest=self._levels[level][sibling],
                    is_left_sibling=(sibling < node),
                )
            )
            node //= 2
        return path

    def compute_root_from_path(
        self,
        block_index: int,
        data: bytes,
        version: int,
        path: Sequence[AuthPathEntry],
    ) -> bytes:
        """Recompute the root from a block value and an authentication path."""
        digest = self._leaf_hash(block_index, data, version)
        for entry in path:
            if entry.is_left_sibling:
                digest = self._node_hash(entry.digest, digest)
            else:
                digest = self._node_hash(digest, entry.digest)
        return digest

    def verify(self, block_index: int, data: bytes, version: Optional[int] = None) -> bool:
        """Check that ``data`` is the authentic current content of a block.

        Returns True when the recomputed root matches the trusted root.  Does
        not raise; the firewall decides how to react to a mismatch.
        """
        self._check_index(block_index)
        self._check_data(data)
        self.verify_count += 1
        if version is None:
            version = self._versions[block_index]
        # The authentication-path walk of compute_root_from_path(auth_path()),
        # reading the siblings straight from the levels.
        node_hash = self._node_hash
        digest = self._leaf_hash(block_index, data, version)
        node = block_index
        levels = self._levels
        for level in levels[:-1]:
            if node & 1:
                digest = node_hash(level[node - 1], digest)
            else:
                digest = node_hash(digest, level[node + 1])
            node >>= 1
        return digest == levels[-1][0]

    def verify_or_raise(self, block_index: int, data: bytes, version: Optional[int] = None) -> None:
        """Like :meth:`verify` but raises :class:`IntegrityViolation` on failure."""
        if not self.verify(block_index, data, version):
            raise IntegrityViolation(block_index)

    # -- invariants / helpers -------------------------------------------------

    def _check_index(self, block_index: int) -> None:
        if not 0 <= block_index < self.n_blocks:
            raise IndexError(
                f"block index {block_index} out of range [0, {self.n_blocks})"
            )

    def _check_data(self, data: bytes) -> None:
        if len(data) != self.block_size:
            raise ValueError(
                f"block data must be {self.block_size} bytes, got {len(data)}"
            )

    def node_count(self) -> int:
        """Total number of nodes in the tree (used by the area model)."""
        return sum(len(level) for level in self._levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MerkleTree(n_blocks={self.n_blocks}, block_size={self.block_size}, "
            f"depth={self.depth}, root={self.root.hex()[:16]}...)"
        )
