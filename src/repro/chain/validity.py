"""Block-validity consensus (BVC) engines.

Three rules are implemented:

- :class:`BitcoinValidity` -- the prescribed BVC: a fixed block size
  limit that every participant shares (Section 2.1 of the paper).
- :class:`BUValidity` -- Bitcoin Unlimited's per-node rule following
  Rizun's description (Section 2.2): blocks larger than the local ``EB``
  are *excessive* and only become valid once buried at acceptance depth
  ``AD``; accepting an excessive block opens a *sticky gate* that lifts
  the local limit to the 32 MB network-message cap until 144 consecutive
  non-excessive blocks appear.
- :class:`BUSourceCodeValidity` -- the inconsistent rule the paper
  extracted from the March 2017 BU source code, kept so its
  counter-intuitive edge case can be demonstrated.

A rule instance represents *one node's view* over *one block tree*; the
rules keep per-block caches so evaluating validity is O(1) amortized per
new block, which lets the Monte-Carlo simulator run long chains.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from repro.chain.block import Block
from repro.chain.tree import BlockTree
from repro.errors import ChainError
from repro.protocol.params import MESSAGE_LIMIT_MB, STICKY_GATE_WINDOW


class ValidityRule(ABC):
    """A node's block-validity rule over a single block tree."""

    def __init__(self) -> None:
        self._tree_id: Optional[int] = None

    def _check_tree(self, tree: BlockTree) -> None:
        if self._tree_id is None:
            self._tree_id = id(tree)
        elif self._tree_id != id(tree):
            raise ChainError(
                "a ValidityRule instance caches per-block state and must be "
                "used with a single BlockTree")

    @abstractmethod
    def valid_prefix_height(self, tree: BlockTree, tip: Block) -> int:
        """Return the height of the longest valid prefix of the chain
        ending at ``tip`` (genesis alone gives 0)."""

    def valid_prefix_block(self, tree: BlockTree, tip: Block) -> Block:
        """Return the last block of the longest valid prefix."""
        height = self.valid_prefix_height(tree, tip)
        return tree.ancestor_at_height(tip, height)

    def is_chain_valid(self, tree: BlockTree, tip: Block) -> bool:
        """Whether the whole chain ending at ``tip`` is valid."""
        return self.valid_prefix_height(tree, tip) == tip.height


class BitcoinValidity(ValidityRule):
    """The prescribed Bitcoin BVC: a single shared block size limit."""

    def __init__(self, max_block_size: float = 1.0) -> None:
        super().__init__()
        if max_block_size <= 0:
            raise ChainError("max_block_size must be positive")
        self.max_block_size = max_block_size
        # block_id -> height of first oversize block on its chain, or None
        self._poison: Dict[str, Optional[int]] = {}

    def _poison_height(self, tree: BlockTree, block: Block) -> Optional[int]:
        cached = self._poison.get(block.block_id)
        if cached is not None or block.block_id in self._poison:
            return cached
        if block.is_genesis:
            value: Optional[int] = None
        else:
            parent = tree.parent(block)
            assert parent is not None
            value = self._poison_height(tree, parent)
            if value is None and block.size > self.max_block_size:
                value = block.height
        self._poison[block.block_id] = value
        return value

    def valid_prefix_height(self, tree: BlockTree, tip: Block) -> int:
        self._check_tree(tree)
        poison = self._poison_height(tree, tip)
        return tip.height if poison is None else poison - 1


#: Per-block cached view state for :class:`BUValidity`:
#: ``(leaders, last_excessive_height, poison_height)`` where ``leaders``
#: is the sorted tuple of heights of excessive blocks that start a new
#: sticky-gate group (and therefore must individually reach acceptance
#: depth), ``last_excessive_height`` is the height of the most recent
#: excessive block on the chain (or ``None``), and ``poison_height`` is
#: the height of the first block exceeding the network-message limit
#: (or ``None``).
_BUState = Tuple[Tuple[int, ...], Optional[int], Optional[int]]


class BUValidity(ValidityRule):
    """Bitcoin Unlimited validity per Rizun's sticky-gate description.

    Parameters
    ----------
    eb:
        The node's excessive block size (megabytes).  A block of size
        exactly ``eb`` is *not* excessive.
    ad:
        Acceptance depth: an excessive block becomes valid once a chain
        of ``ad`` blocks (including itself) is built on it.
    sticky:
        Whether the sticky gate is enabled.  With the gate disabled
        (BUIP038, the paper's "setting 1"), every excessive block must
        individually reach acceptance depth.
    message_limit:
        Hard cap from the network-message size; blocks above it are
        permanently invalid.
    gate_window:
        Number of consecutive non-excessive blocks after which the
        sticky gate closes (144 in BU, roughly one day).
    """

    def __init__(self, eb: float, ad: int, sticky: bool = True,
                 message_limit: float = MESSAGE_LIMIT_MB,
                 gate_window: int = STICKY_GATE_WINDOW) -> None:
        super().__init__()
        if eb <= 0:
            raise ChainError("eb must be positive")
        if ad < 1:
            raise ChainError("ad must be at least 1")
        if gate_window < 1:
            raise ChainError("gate_window must be at least 1")
        if message_limit < eb:
            raise ChainError("message_limit must be at least eb")
        self.eb = eb
        self.ad = ad
        self.sticky = sticky
        self.message_limit = message_limit
        self.gate_window = gate_window
        self._state: Dict[str, _BUState] = {}

    def is_excessive(self, block: Block) -> bool:
        """Whether the node considers ``block`` excessive (> local EB)."""
        return block.size > self.eb

    def _block_state(self, tree: BlockTree, block: Block) -> _BUState:
        cached = self._state.get(block.block_id)
        if cached is not None:
            return cached
        if block.is_genesis:
            state: _BUState = ((), None, None)
        else:
            parent = tree.parent(block)
            assert parent is not None
            leaders, last_exc, poison = self._block_state(tree, parent)
            if poison is None and block.size > self.message_limit:
                poison = block.height
            if poison is None and self.is_excessive(block):
                covered = (self.sticky and last_exc is not None
                           and block.height - last_exc <= self.gate_window)
                if not covered:
                    leaders = leaders + (block.height,)
                last_exc = block.height
            state = (leaders, last_exc, poison)
        self._state[block.block_id] = state
        return state

    def valid_prefix_height(self, tree: BlockTree, tip: Block) -> int:
        self._check_tree(tree)
        leaders, _last_exc, poison = self._block_state(tree, tip)
        height = tip.height if poison is None else poison - 1
        # A leader at height e is accepted at tip height H iff its burial
        # H - e + 1 reaches AD.  Cutting the chain below a failing leader
        # can un-bury an earlier leader, so walk leaders from the tip
        # downwards.  Leaders are stored in ascending height and
        # ``height`` only falls, so the first accepted leader ends the
        # walk: no earlier one can be cut.
        for e in reversed(leaders):
            if e > height:
                continue
            if e <= height - self.ad + 1:
                break
            height = e - 1
        return height

    def gate_open_at(self, tree: BlockTree, tip: Block) -> bool:
        """Whether the sticky gate is open at ``tip`` on a fully valid
        chain (i.e. whether the node would accept blocks up to the
        message limit on top of ``tip``)."""
        self._check_tree(tree)
        if not self.sticky:
            return False
        if not self.is_chain_valid(tree, tip):
            return False
        _leaders, last_exc, _poison = self._block_state(tree, tip)
        if last_exc is None:
            return False
        return tip.height - last_exc < self.gate_window

    def last_excessive_height(self, tree: BlockTree,
                              tip: Block) -> Optional[int]:
        """Height of the most recent excessive block on the chain to
        ``tip``, or ``None`` if there is none."""
        self._check_tree(tree)
        _leaders, last_exc, _poison = self._block_state(tree, tip)
        return last_exc

    def local_limit_at(self, tree: BlockTree, tip: Block) -> float:
        """The maximum block size the node would accept immediately
        (without waiting for acceptance depth) on top of ``tip``."""
        if self.gate_open_at(tree, tip):
            return self.message_limit
        return self.eb


class BUSourceCodeValidity(ValidityRule):
    """The inconsistent validity rule from BU's March 2017 source code.

    Per Section 2.2 of the paper: a chain whose latest block has height
    ``h`` is valid iff the latest ``AD`` blocks are all non-excessive,
    *or* there is an excessive block whose height lies in
    ``[h - AD - 143, h - AD + 1]``.  The paper notes this yields
    counter-intuitive behaviour (a valid chain can become invalid by
    adding a block); we keep it to reproduce that edge case.
    """

    def __init__(self, eb: float, ad: int,
                 message_limit: float = MESSAGE_LIMIT_MB,
                 gate_window: int = STICKY_GATE_WINDOW) -> None:
        super().__init__()
        if eb <= 0:
            raise ChainError("eb must be positive")
        if ad < 1:
            raise ChainError("ad must be at least 1")
        self.eb = eb
        self.ad = ad
        self.message_limit = message_limit
        self.gate_window = gate_window
        # block_id -> (sorted tuple of excessive heights, poison height)
        self._state: Dict[str, Tuple[Tuple[int, ...], Optional[int]]] = {}

    def is_excessive(self, block: Block) -> bool:
        """Whether the node considers ``block`` excessive (> local EB)."""
        return block.size > self.eb

    def _block_state(self, tree: BlockTree,
                     block: Block) -> Tuple[Tuple[int, ...], Optional[int]]:
        cached = self._state.get(block.block_id)
        if cached is not None:
            return cached
        if block.is_genesis:
            state: Tuple[Tuple[int, ...], Optional[int]] = ((), None)
        else:
            parent = tree.parent(block)
            assert parent is not None
            exc, poison = self._block_state(tree, parent)
            if poison is None and block.size > self.message_limit:
                poison = block.height
            if poison is None and self.is_excessive(block):
                exc = exc + (block.height,)
            state = (exc, poison)
        self._state[block.block_id] = state
        return state

    def _predicate(self, exc_heights: Tuple[int, ...], h: int) -> bool:
        """The source-code validity predicate at tip height ``h``."""
        if h == 0:
            return True
        # Latest AD blocks (heights max(1, h-AD+1)..h) all non-excessive?
        lo = max(1, h - self.ad + 1)
        i = bisect.bisect_left(exc_heights, lo)
        if i >= len(exc_heights) or exc_heights[i] > h:
            return True
        # Or an excessive block with height in [h - AD - 143, h - AD + 1].
        lo2 = h - self.ad - (self.gate_window - 1)
        hi2 = h - self.ad + 1
        j = bisect.bisect_left(exc_heights, lo2)
        return j < len(exc_heights) and exc_heights[j] <= hi2

    def valid_prefix_height(self, tree: BlockTree, tip: Block) -> int:
        self._check_tree(tree)
        exc, poison = self._block_state(tree, tip)
        top = tip.height if poison is None else poison - 1
        for h in range(top, -1, -1):
            relevant = tuple(e for e in exc if e <= h)
            if self._predicate(relevant, h):
                return h
        return 0
