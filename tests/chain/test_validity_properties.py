"""Property-based tests of the validity engines."""

import random

from hypothesis import given, settings, strategies as st

from repro.chain.block import make_block
from repro.chain.tree import BlockTree
from repro.chain.validity import BitcoinValidity, BUValidity

# Chains as sequences of block sizes drawn from a small menu that
# exercises every regime: normal, boundary, excessive, gate-only, and
# beyond the message limit.
SIZES = st.sampled_from([0.5, 1.0, 2.0, 8.0, 33.0])
CHAINS = st.lists(SIZES, min_size=0, max_size=40)


def build(sizes):
    tree = BlockTree()
    tip = tree.genesis
    for s in sizes:
        tip = tree.add(make_block(tip, size=s, miner="m"))
    return tree, tip


def walk_reference(sizes, eb, ad, sticky, gate_window, message_limit=32.0):
    """Quadratic oracle: a prefix of length L is valid iff walking it
    with retroactive gate semantics finds no uncovered, under-buried
    excessive block and no over-limit block.  Prefixes are tried from
    the longest down, so a chain whose valid prefix ends near its tip
    costs a few linear walks."""
    def prefix_valid(upto):
        last_exc = None
        for idx in range(upto):
            size = sizes[idx]
            height = idx + 1
            if size > message_limit:
                return False
            if size > eb:
                covered = (sticky and last_exc is not None
                           and height - last_exc <= gate_window)
                if not covered and upto - height + 1 < ad:
                    return False
                last_exc = height
        return True

    for upto in range(len(sizes), -1, -1):
        if prefix_valid(upto):
            return upto


@given(CHAINS, st.sampled_from([1.0, 2.0]), st.integers(2, 6),
       st.booleans(), st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_bu_valid_prefix_matches_walk_oracle(sizes, eb, ad, sticky,
                                             gate_window):
    tree, tip = build(sizes)
    rule = BUValidity(eb=eb, ad=ad, sticky=sticky, gate_window=gate_window)
    got = rule.valid_prefix_height(tree, tip)
    expected = walk_reference(sizes, eb, ad, sticky, gate_window)
    assert got == expected


def test_bu_valid_prefix_matches_walk_oracle_on_a_long_chain():
    """A 12k-block chain without the sticky gate (setting 1), so every
    one of its ~2.4k excessive blocks is a leader, evaluated block by
    block as a node does.  Its tail holds leader ``a`` and, AD blocks
    later, an under-buried leader ``b``: cutting ``b`` leaves ``a``
    buried exactly AD deep, so the walk must accept ``a`` and stop."""
    ad = 6
    rng = random.Random(2017)
    sizes = [2.0 if rng.random() < 0.2 else 1.0 for _ in range(12_000)]
    a = len(sizes) + 1
    sizes += [2.0] + [1.0] * (ad - 1) + [2.0, 1.0]
    rule = BUValidity(eb=1.0, ad=ad, sticky=False)
    tree = BlockTree()
    tip = tree.genesis
    got = {}
    for s in sizes:
        tip = tree.add(make_block(tip, size=s, miner="m"))
        got[tip.height] = rule.valid_prefix_height(tree, tip)
    assert got[len(sizes)] == a + ad - 1
    for height in range(1000, len(sizes) + 1, 1000):
        assert got[height] == walk_reference(sizes[:height], 1.0, ad,
                                             False, 144)
    assert got[len(sizes)] == walk_reference(sizes, 1.0, ad, False, 144)


@given(CHAINS)
@settings(max_examples=100, deadline=None)
def test_bitcoin_prefix_is_first_violation(sizes):
    tree, tip = build(sizes)
    rule = BitcoinValidity(max_block_size=1.0)
    got = rule.valid_prefix_height(tree, tip)
    expected = len(sizes)
    for i, s in enumerate(sizes):
        if s > 1.0:
            expected = i
            break
    assert got == expected


@given(CHAINS, st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_valid_prefix_never_exceeds_height(sizes, ad):
    tree, tip = build(sizes)
    rule = BUValidity(eb=1.0, ad=ad)
    assert 0 <= rule.valid_prefix_height(tree, tip) <= tip.height


@given(CHAINS, st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_prefix_of_valid_prefix_is_stable(sizes, ad):
    """Evaluating the chain cut at its own valid prefix is a no-op."""
    tree, tip = build(sizes)
    rule = BUValidity(eb=1.0, ad=ad)
    head = rule.valid_prefix_block(tree, tip)
    assert rule.valid_prefix_height(tree, head) == head.height


@given(CHAINS)
@settings(max_examples=60, deadline=None)
def test_bigger_eb_accepts_no_less(sizes):
    """Monotonicity: raising EB can only extend the valid prefix."""
    tree, tip = build(sizes)
    small = BUValidity(eb=1.0, ad=4)
    large = BUValidity(eb=8.0, ad=4)
    assert (large.valid_prefix_height(tree, tip)
            >= small.valid_prefix_height(tree, tip))
