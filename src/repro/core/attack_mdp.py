"""Assembly of the attack MDP from the transition function, with a
structure-keyed build cache.

Building the setting-2 sticky-gate model (30,595 states) costs ~1s of
pure-Python BFS, so rebuilding it per sweep cell dominates sweeps whose
cells share a transition structure.  Two cache levels avoid that:

- **full hit**: the exact same :class:`AttackConfig` returns the same
  (immutable) :class:`~repro.mdp.model.MDP` instance, so its stacked
  Bellman kernel and policy-evaluation cache carry over between the
  three incentive-model solves of one cell;
- **structure hit**: configs that differ only in the *reward-only*
  fields ``rds`` / ``confirmations`` (the double-spend sensitivity
  sweeps) share the transition matrices, state keys, kernel and the
  reward-independent half of the evaluation cache; only the ``ds``
  reward channel is recomputed, from per-(state, action) orphan-count
  histograms recorded at first build.  The histogram trick works
  because the double-spend bonus of a resolved race depends only on
  how many blocks it orphaned: ``ds[a, s] = sum_k bonus(k) * P(race
  from (s, a) orphans k blocks)``.

The cache is per-process (parallel sweep workers each hold their own)
and guarded by a lock for thread safety.  See ``docs/performance.md``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import AttackConfig
from repro.core.double_spend import double_spend_bonus
from repro.core.states import base1_state
from repro.core.transitions import (CHANNELS, _base_raw, _fork_raw,
                                    actions_for, generate_raw_transitions)
from repro.mdp.builder import MDPBuilder, assemble_mdp
from repro.mdp.model import MDP
from repro.runtime.telemetry import counter_add, span

#: Config fields that affect only reward channels, not the transition
#: structure (both feed exclusively into the ``ds`` channel).
REWARD_ONLY_FIELDS = ("rds", "confirmations")

#: Number of transition structures kept in the per-process cache.
ATTACK_MDP_CACHE_SIZE = 4

_ORPH_PREFIX = "_orph"


@dataclass
class AttackMDPCacheStats:
    """Counters of the attack-MDP build cache.

    Attributes
    ----------
    hits:
        Exact-config hits (MDP instance returned as-is).
    reward_rebuilds:
        Structure hits where only the ``ds`` channel was recomputed.
    misses:
        Full builds (BFS + matrix assembly).
    """

    hits: int = 0
    reward_rebuilds: int = 0
    misses: int = 0


@dataclass
class _StructureEntry:
    """One cached transition structure and its reward variants."""

    base: MDP
    histograms: Dict[int, np.ndarray]
    variants: "OrderedDict[Tuple[float, int], MDP]" = field(
        default_factory=OrderedDict)


_lock = threading.Lock()
_cache: "OrderedDict[AttackConfig, _StructureEntry]" = OrderedDict()
_stats = AttackMDPCacheStats()


def attack_mdp_cache_stats() -> AttackMDPCacheStats:
    """The per-process build-cache counters."""
    return _stats


def clear_attack_mdp_cache() -> None:
    """Drop every cached structure and reset the counters."""
    global _stats
    with _lock:
        _cache.clear()
        _stats = AttackMDPCacheStats()


def _structure_key(config: AttackConfig) -> AttackConfig:
    """The config with reward-only fields canonicalized away."""
    return replace(config, rds=0.0, confirmations=1)


def _max_orphanable(config: AttackConfig) -> int:
    """Upper bound on blocks a single resolved race can orphan: the
    losing chain is always shorter than the winning lock depth."""
    return max(config.ad_bob, config.effective_ad_carol)


def _tag_orphan_histograms(raw):
    """Annotate a raw transition stream with ``_orph<k>`` indicator
    channels recording how many blocks each resolved race orphaned."""
    for tr in raw:
        rewards = tr[4]
        # Only race resolutions carry multi-channel rewards (all five
        # channels at once); everything else has 0 or 1 entries.
        if len(rewards) > 1:
            orphaned = int(rewards.get("alice_orphans", 0.0)
                           + rewards.get("others_orphans", 0.0))
            if orphaned:
                rewards = dict(rewards)
                rewards[f"{_ORPH_PREFIX}{orphaned}"] = 1.0
                yield tr[0], tr[1], tr[2], tr[3], rewards
                continue
        yield tr


def _channel_names(config: AttackConfig, with_histograms: bool
                   ) -> Tuple[List[str], List[str]]:
    channels: List[str] = list(CHANNELS)
    hist_names: List[str] = []
    if with_histograms:
        hist_names = [f"{_ORPH_PREFIX}{k}"
                      for k in range(1, _max_orphanable(config) + 1)]
        channels += hist_names
    return channels, hist_names


def _pop_histograms(mdp: MDP,
                    hist_names: List[str]) -> Dict[int, np.ndarray]:
    histograms: Dict[int, np.ndarray] = {}
    for name in hist_names:
        arr = mdp.rewards.pop(name)
        if arr.any():
            histograms[int(name[len(_ORPH_PREFIX):])] = arr
    return histograms


def _build_generic(config: AttackConfig, validate: bool,
                   with_histograms: bool
                   ) -> Tuple[MDP, Dict[int, np.ndarray]]:
    """Reference build: BFS over every state via the raw transition
    stream."""
    channels, hist_names = _channel_names(config, with_histograms)
    builder = MDPBuilder(actions=actions_for(config), channels=channels)
    raw = generate_raw_transitions(config)
    if with_histograms:
        raw = _tag_orphan_histograms(raw)
    builder.extend(raw)
    mdp = builder.build(start=base1_state(), validate=validate)
    return mdp, _pop_histograms(mdp, hist_names)


def _build_fast(config: AttackConfig, validate: bool,
                with_histograms: bool
                ) -> Tuple[MDP, Dict[int, np.ndarray]]:
    """Vectorized build for setting-2 phase-2-attack configs.

    The phase-2 fork blocks at different gate-counter values ``r`` are
    isomorphic: fork growth, probabilities and rewards depend only on
    the fork shape ``(l1, l2, a1, a2)``, and ``r`` enters solely
    through the Chain-1-win exit target ``base(max(r - dec, 0))``.  So
    instead of BFS-ing all ``gate_window`` copies in Python (~30k
    states with the paper's Table 2 parameters), this path generates
    the phase-1 states, the phase-2 base spine and ONE fork-block
    template per-state, then replicates the template across ``r`` with
    numpy index arithmetic.  Equality with :func:`_build_generic` (up
    to state relabeling) is covered by tests.
    """
    gw = config.gate_window
    actions = actions_for(config)
    action_index = {a: i for i, a in enumerate(actions)}
    channels, hist_names = _channel_names(config, with_histograms)

    # ---- small per-state part: phase 1 and the phase-2 base spine ----
    start = base1_state()
    small: list = []
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        produced = (_base_raw(config, state[1]) if state[0] == "base"
                    else _fork_raw(config, state))
        for tr in produced:
            small.append(tr)
            nxt = tr[2]
            # Expand only phase-1 fork states here; phase-2 targets
            # are handled by the spine / template below.
            if nxt[0] == "fork1" and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    for r in range(1, gw + 1):
        small.extend(_base_raw(config, r))
    if with_histograms:
        small = list(_tag_orphan_histograms(small))

    # ---- fork-block template at a symbolic gate counter ----
    # r0 exceeds every possible gate decrement, so a Chain-1-win exit
    # target ("base", r0 - dec) encodes dec without clamping at 0.
    r0 = config.effective_ad_carol + 1
    # Chain extended by each _fork_raw yield position, in order:
    # ON_CHAIN_1 gets (alice c1, compliant c1, compliant c2),
    # ON_CHAIN_2 gets (alice c2, compliant c1, compliant c2),
    # WAIT gets (compliant c1, compliant c2).
    chain_of_pos = (1, 1, 2, 2, 1, 2) + \
        ((1, 2) if config.include_wait else ())
    entry = (0, 1, 0, 1)
    tshapes: list = [entry]
    tshape_index = {entry: 0}
    # Per template transition: source shape id, action id, probability,
    # exit kind and its payload, rewards dict.
    t_rows: list = []
    stack = [entry]
    while stack:
        shape = stack.pop()
        sid = tshape_index[shape]
        rows = list(_fork_raw(config, ("fork2",) + shape + (r0,)))
        for chain, (_s, action, dst, p, rew) in zip(chain_of_pos, rows):
            if p == 0:
                continue
            if with_histograms and len(rew) > 1:
                orphaned = int(rew.get("alice_orphans", 0.0)
                               + rew.get("others_orphans", 0.0))
                if orphaned:
                    rew = dict(rew)
                    rew[f"{_ORPH_PREFIX}{orphaned}"] = 1.0
            if dst[0] == "fork2":
                dshape = dst[1:5]
                did = tshape_index.get(dshape)
                if did is None:
                    did = len(tshapes)
                    tshape_index[dshape] = did
                    tshapes.append(dshape)
                    stack.append(dshape)
                t_rows.append((sid, action_index[action], p,
                               "internal", did, rew))
            elif chain == 1:
                # Chain-1 win: target base(max(r - dec, 0)).
                t_rows.append((sid, action_index[action], p,
                               "base", r0 - dst[1], rew))
            else:
                # Chain-2 win: r-independent phase-3 target.
                t_rows.append((sid, action_index[action], p,
                               "const", dst, rew))
    # ---- state indexing ----
    keys: list = []
    index: Dict = {}

    def intern(key) -> int:
        idx = index.get(key)
        if idx is None:
            idx = len(keys)
            index[key] = idx
            keys.append(key)
        return idx

    intern(start)
    deferred: list = []  # (row_no, fork2 key) to resolve after offset
    s_src: list = []
    s_act: list = []
    s_dst: list = []
    s_prob: list = []
    s_rew: Dict[str, Tuple[list, list, list]] = {
        c: ([], [], []) for c in channels}
    for state, action, nxt, p, rewards in small:
        if p == 0:
            continue
        a = action_index[action]
        s = intern(state)
        if nxt[0] == "fork2":
            deferred.append((len(s_dst), nxt))
            t = -1
        else:
            t = intern(nxt)
        s_src.append(s)
        s_act.append(a)
        s_dst.append(t)
        s_prob.append(p)
        for name, value in rewards.items():
            if value != 0.0:
                lists = s_rew[name]
                lists[0].append(s)
                lists[1].append(a)
                lists[2].append(p * value)

    n_small = len(keys)
    n_shapes = len(tshapes)
    for r in range(1, gw + 1):
        for shape in tshapes:
            keys.append(("fork2",) + shape + (r,))

    def fork2_index(shape, r: int) -> int:
        return n_small + (r - 1) * n_shapes + tshape_index[shape]

    src_small = np.asarray(s_src, dtype=np.intp)
    act_small = np.asarray(s_act, dtype=np.intp)
    dst_small = np.asarray(s_dst, dtype=np.intp)
    prob_small = np.asarray(s_prob, dtype=float)
    for row_no, nxt in deferred:
        dst_small[row_no] = fork2_index(nxt[1:5], nxt[5])

    # ---- replicate the template across the gate counter ----
    t_src = np.array([row[0] for row in t_rows], dtype=np.intp)
    t_act = np.array([row[1] for row in t_rows], dtype=np.intp)
    t_prob = np.array([row[2] for row in t_rows], dtype=float)
    kinds = np.array([{"internal": 0, "base": 1, "const": 2}[row[3]]
                      for row in t_rows], dtype=np.intp)
    internal_mask = kinds == 0
    base_mask = kinds == 1
    const_mask = kinds == 2
    t_internal = np.array([row[4] if row[3] == "internal" else 0
                           for row in t_rows], dtype=np.intp)
    t_dec = np.array([row[4] if row[3] == "base" else 0
                      for row in t_rows], dtype=np.intp)
    t_const = np.array([index[row[4]] if row[3] == "const" else 0
                        for row in t_rows], dtype=np.intp)
    base_index = np.array([index[("base", rr)] for rr in range(gw + 1)],
                          dtype=np.intp)
    # Per-channel template reward scatter: (row index, value).
    t_rew: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for c in channels:
        rows_c = [(j, row[5][c]) for j, row in enumerate(t_rows)
                  if row[5].get(c, 0.0) != 0.0]
        if rows_c:
            jj = np.array([j for j, _ in rows_c], dtype=np.intp)
            vv = np.array([t_rows[j][2] * v for j, v in rows_c])
            t_rew[c] = (jj, vv)

    n_t = len(t_rows)
    src_parts = [src_small]
    act_parts = [act_small]
    dst_parts = [dst_small]
    prob_parts = [prob_small]
    rew_parts: Dict[str, Tuple[list, list, list]] = {
        c: ([np.asarray(sr[0], dtype=np.intp)],
            [np.asarray(sr[1], dtype=np.intp)],
            [np.asarray(sr[2], dtype=float)])
        for c, sr in s_rew.items()}
    for r in range(1, gw + 1):
        offset = n_small + (r - 1) * n_shapes
        src_r = offset + t_src
        dst_r = np.empty(n_t, dtype=np.intp)
        dst_r[internal_mask] = offset + t_internal[internal_mask]
        dst_r[base_mask] = base_index[
            np.maximum(r - t_dec[base_mask], 0)]
        dst_r[const_mask] = t_const[const_mask]
        src_parts.append(src_r)
        act_parts.append(t_act)
        dst_parts.append(dst_r)
        prob_parts.append(t_prob)
        for c, (jj, vv) in t_rew.items():
            lists = rew_parts[c]
            lists[0].append(src_r[jj])
            lists[1].append(t_act[jj])
            lists[2].append(vv)

    src = np.concatenate(src_parts)
    act = np.concatenate(act_parts)
    dst = np.concatenate(dst_parts)
    prob = np.concatenate(prob_parts)
    rew_scatter = {c: (np.concatenate(lists[0]),
                       np.concatenate(lists[1]),
                       np.concatenate(lists[2]))
                   for c, lists in rew_parts.items()}
    mdp = assemble_mdp(keys, actions, src, act, dst, prob, rew_scatter,
                       index[start], validate=validate)
    return mdp, _pop_histograms(mdp, hist_names)


def _build_fresh(config: AttackConfig, validate: bool,
                 with_histograms: bool = False,
                 fast: Optional[bool] = None
                 ) -> Tuple[MDP, Dict[int, np.ndarray]]:
    """Build an attack MDP; optionally record orphan-count histograms
    for the reward-rebuild path.

    ``fast=None`` auto-selects the vectorized template-replication
    path for the configs where it applies (setting 2 with the phase-2
    attack enabled, where the state space is dominated by isomorphic
    fork blocks); ``fast=True``/``False`` force a path (for tests).
    """
    if fast is None:
        fast = (config.setting == 2 and config.phase2_attack
                and config.gate_window >= 1)
    with span("build/attack-mdp"):
        if fast:
            return _build_fast(config, validate, with_histograms)
        return _build_generic(config, validate, with_histograms)


def _ds_channel(config: AttackConfig,
                histograms: Dict[int, np.ndarray],
                shape: Tuple[int, int]) -> np.ndarray:
    """Recompute the ``ds`` reward channel for new reward-only fields
    from the cached orphan-count histograms."""
    ds = np.zeros(shape)
    for orphaned, hist in histograms.items():
        bonus = double_spend_bonus(orphaned, config.rds,
                                   config.confirmations)
        if bonus != 0.0:
            ds += bonus * hist
    return ds


def _reward_variant(entry: _StructureEntry, config: AttackConfig) -> MDP:
    """A new MDP sharing ``entry``'s transition structure with only the
    ``ds`` channel rebuilt for ``config``'s reward-only fields."""
    base = entry.base
    rewards = {name: base.rewards[name] for name in CHANNELS if name != "ds"}
    rewards["ds"] = _ds_channel(config, entry.histograms,
                                (base.n_actions, base.n_states))
    mdp = MDP(state_keys=base.state_keys, actions=base.actions,
              transition=base.transition, rewards=rewards,
              available=base.available, start=base.start, validate=False)
    # Share the reward-independent performance caches: the Bellman
    # stack as-is, the evaluation cache through a structure view (the
    # structure certificate, per-policy evaluation artifacts and
    # stationary distributions carry over, reward memos start empty).
    mdp._kernel = base.kernel()
    mdp._eval_cache = base.eval_cache().structure_view(mdp)
    return mdp


def build_attack_mdp(config: AttackConfig, validate: bool = True,
                     cache: bool = True) -> MDP:
    """Build the Section 4 strategy-space MDP for ``config``.

    The state space is discovered by BFS from the phase-1 base state;
    with the paper's parameters (AD = 6) this yields 211 states in
    setting 1 and 30,595 states in setting 2.

    With ``cache=True`` (the default) builds go through the
    per-process structure cache: the exact same config returns the
    same MDP instance, and configs differing only in ``rds`` /
    ``confirmations`` reuse the cached transition structure with only
    the ``ds`` reward channel recomputed.  Cached MDPs must be treated
    as immutable; pass ``cache=False`` for a private instance.
    """
    if not cache:
        mdp, _ = _build_fresh(config, validate)
        return mdp
    skey = _structure_key(config)
    rkey = (config.rds, config.confirmations)
    with _lock:
        entry: Optional[_StructureEntry] = _cache.get(skey)
        if entry is not None:
            _cache.move_to_end(skey)
            variant = entry.variants.get(rkey)
            if variant is not None:
                _stats.hits += 1
                counter_add("build_cache/hits")
                entry.variants.move_to_end(rkey)
                return variant
    # Build outside the lock; worst case two threads race on the same
    # structure and the loser's build is discarded.
    if entry is None:
        mdp, histograms = _build_fresh(config, validate=True,
                                       with_histograms=True)
        with _lock:
            existing = _cache.get(skey)
            if existing is not None:
                entry = existing
            else:
                _stats.misses += 1
                counter_add("build_cache/misses")
                entry = _StructureEntry(base=mdp, histograms=histograms)
                entry.variants[rkey] = mdp
                _cache[skey] = entry
                while len(_cache) > ATTACK_MDP_CACHE_SIZE:
                    _cache.popitem(last=False)
                return mdp
    variant = _reward_variant(entry, config)
    with _lock:
        _stats.reward_rebuilds += 1
        counter_add("build_cache/reward_rebuilds")
        entry.variants[rkey] = variant
        while len(entry.variants) > ATTACK_MDP_CACHE_SIZE:
            entry.variants.popitem(last=False)
    return variant
