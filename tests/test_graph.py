"""Graph ingestion, connected components, and co-occurrence projections."""

import sys

import numpy as np
import pytest

from topocf.graph import (BipartiteGraph, GraphError, induced_subgraph,
                          ingest_and_build, largest_connected_component,
                          project, write_interactions)
from topocf.synthetic import heavy_tailed_graph

from conftest import (adjacency, load_graph, make_graph, random_bipartite,
                      to_scipy)


# ---------------------------------------------------------------------------
# ingestion

def test_ingest_basic_counts():
    g = ingest_and_build(["a\tx", "a\ty", "b\tx"])
    assert g.num_users == 2
    assert g.num_items == 2
    assert g.num_interactions == 3
    assert g.user_ids == ("a", "b")
    assert g.item_ids == ("x", "y")


def test_ingest_deduplicates_and_skips_comments():
    lines = ["# comment", "", "a x", "a x", "a x extra-column", "b y"]
    g = ingest_and_build(lines)
    assert g.num_interactions == 2


def test_ingest_any_whitespace():
    g = ingest_and_build(["a\t x", "b     y"])
    assert g.num_interactions == 2


def test_ingest_empty_is_error():
    with pytest.raises(GraphError, match="no interactions"):
        ingest_and_build(["# only a comment", ""])


def test_ingest_malformed_line_reports_number():
    with pytest.raises(GraphError, match="line 3"):
        ingest_and_build(["a x", "b y", "lonely"])


def _ingest_and_build_loop(source):
    """One split and one dict lookup per line: the parse ingest_and_build
    must match, graph and error message alike."""
    user_index = {}
    item_index = {}
    pairs = set()
    seen_any = False
    for lineno, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) < 2:
            raise GraphError(f"malformed interaction at line {lineno}: {stripped!r}")
        user_tok, item_tok = fields[0], fields[1]
        seen_any = True
        u = user_index.setdefault(user_tok, len(user_index))
        i = item_index.setdefault(item_tok, len(item_index))
        pairs.add((u, i))
    if not seen_any:
        raise GraphError("no interactions")
    edges = np.array(sorted(pairs), dtype=np.int64)
    user_ids = sorted(user_index, key=user_index.get)
    item_ids = sorted(item_index, key=item_index.get)
    return BipartiteGraph.from_edge_array(edges, user_ids, item_ids)


def _parse_outcome(parse, source):
    try:
        g = parse(source)
    except GraphError as err:
        return str(err)
    return (g.user_ids, g.item_ids, g.indptr.tolist(), g.indices.tolist())


def test_ingest_matches_line_loop(rng, tmp_path):
    """Random files: comments, blank lines, extra columns, mixed
    whitespace (tabs, spaces, Unicode spaces), duplicate pairs, non-ASCII
    tokens, and now and then a malformed line."""
    chars = list("abcxyz019#é中\x00😀\ud7ff")
    spaces = [" ", "\t", "  \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
              "\u2028", "\u3000"]

    def token():
        return "".join(rng.choice(chars, size=int(rng.integers(1, 4))))

    def gap():
        return "".join(rng.choice(spaces, size=int(rng.integers(1, 3))))

    outcomes = set()
    for trial in range(60):
        pool = [(token(), token()) for _ in range(int(rng.integers(1, 30)))]
        lines = []
        for _ in range(int(rng.integers(0, 80))):
            kind = rng.random()
            if kind < 0.1:
                lines.append(gap() * int(rng.integers(0, 2)) + "# " + token())
            elif kind < 0.2:
                lines.append(gap() * int(rng.integers(0, 2)))
            else:
                u, i = pool[int(rng.integers(len(pool)))]
                extra = [token() for _ in range(int(rng.integers(0, 3)))]
                lead = gap() if rng.random() < 0.3 else ""
                lines.append(lead + gap().join([u, i] + extra)
                             + (gap() if rng.random() < 0.3 else ""))
        if lines and rng.random() < 0.25:
            lines.insert(int(rng.integers(len(lines) + 1)),
                         gap() * int(rng.integers(0, 2)) + token())
        path = tmp_path / f"{trial}.tsv"
        path.write_text("\n".join(lines) + "\n" * int(rng.integers(0, 2)),
                        encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            expected = _parse_outcome(_ingest_and_build_loop, fh)
        assert _parse_outcome(load_graph, path) == expected
        assert _parse_outcome(ingest_and_build, lines) == \
            _parse_outcome(_ingest_and_build_loop, lines)
        outcomes.add(type(expected))
    assert outcomes == {str, tuple}


def test_ingest_keeps_a_list_item_as_one_line():
    """A list item is one line even when it holds a newline, as it was
    for the per-line loop."""
    lines = ["a x\nb y", "c", "d z"]
    with pytest.raises(GraphError, match="line 2: 'c'"):
        ingest_and_build(lines)
    g = ingest_and_build(["a x\nb y", "d z"])
    assert g.user_ids == ("a", "d") and g.item_ids == ("x", "z")


# every code point str.split() splits on
SEPARATORS = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.mark.parametrize("sep", SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
def test_ingest_splits_on_every_separator(sep):
    lines = [sep.join(["a", "x"]), sep * 2 + sep.join(["b", "", "y", "z"]),
             sep.join(["", "a", "y", ""])]
    assert _parse_outcome(ingest_and_build, lines) == \
        _parse_outcome(_ingest_and_build_loop, lines)
    g = ingest_and_build(lines)
    assert g.user_ids == ("a", "b") and g.item_ids == ("x", "y")


def test_ingest_keeps_non_space_code_points_in_tokens():
    """U+200B and U+180E are not str.split() whitespace, nor is U+3001,
    the code point after the last one that is (U+3000), nor a CJK
    character or an emoji."""
    lines = ["u\u200bv\titem\u3001", "\u180e x\u4e2d", "\u3001 \U0001F600",
             "\u4e2d\U0001F600 \u200b"]
    g = ingest_and_build(lines)
    assert g.user_ids == ("u\u200bv", "\u180e", "\u3001",
                          "\u4e2d\U0001F600")
    assert g.item_ids == ("item\u3001", "x\u4e2d", "\U0001F600", "\u200b")
    assert _parse_outcome(ingest_and_build, lines) == \
        _parse_outcome(_ingest_and_build_loop, lines)


def _write_interactions_loop(g, path):
    """One formatted line per edge: the bytes write_interactions must
    match."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i in g.edge_array():
            fh.write(f"{g.user_ids[u]}\t{g.item_ids[i]}\n")


def test_write_interactions_matches_line_loop(rng, tmp_path):
    graphs = [random_bipartite(rng) for _ in range(10)]
    graphs.append(BipartiteGraph.from_edge_array(
        np.array([(0, 1), (1, 0), (1, 1)]), [7, "b"], ["é", 2.5]))
    graphs.append(BipartiteGraph.from_edge_array(
        np.empty((0, 2), dtype=np.int64), ["a"], ["x"]))
    for n, g in enumerate(graphs):
        got, expected = tmp_path / f"got{n}.tsv", tmp_path / f"loop{n}.tsv"
        write_interactions(g, got)
        _write_interactions_loop(g, expected)
        assert got.read_bytes() == expected.read_bytes()
    assert got.read_bytes() == b""


def test_degree_sums_match_edge_count(rng):
    for _ in range(25):
        g = random_bipartite(rng)
        assert int(g.user_degrees.sum()) == g.num_interactions
        assert int(g.item_degrees.sum()) == g.num_interactions


def test_adjacency_symmetry_and_sortedness(rng):
    for _ in range(25):
        g = random_bipartite(rng)
        user_adj, item_adj = adjacency(g)
        for u, adj in enumerate(user_adj):
            assert np.all(np.diff(adj) > 0)
            for i in adj:
                assert u in item_adj[i]
        for i, adj in enumerate(item_adj):
            assert np.all(np.diff(adj) > 0)
            for u in adj:
                assert i in user_adj[u]


def _adjacency_by_append(edges, n_users, n_items):
    """Per-edge append loop: the reference the CSR builder must match."""
    user_adj = [[] for _ in range(n_users)]
    item_adj = [[] for _ in range(n_items)]
    for u, i in edges[np.lexsort((edges[:, 1], edges[:, 0]))]:
        user_adj[u].append(i)
    for u, i in edges[np.lexsort((edges[:, 0], edges[:, 1]))]:
        item_adj[i].append(u)
    return user_adj, item_adj


def test_from_edge_array_matches_append_loop(rng):
    for trial in range(60):
        n_users = int(rng.integers(1, 15))
        n_items = int(rng.integers(1, 15))
        # some rows and columns stay empty; edges arrive in random order
        mask = rng.random((n_users, n_items)) < rng.uniform(0.05, 0.5)
        us, its = np.nonzero(mask)
        edges = np.column_stack([us, its])[rng.permutation(len(us))]
        g = BipartiteGraph.from_edge_array(
            edges, [f"u{j}" for j in range(n_users)],
            [f"i{j}" for j in range(n_items)])
        expected_users, expected_items = _adjacency_by_append(
            edges, n_users, n_items)
        user_adj, item_adj = adjacency(g)
        assert g.num_users == n_users and g.num_items == n_items
        assert g.num_interactions == len(edges)
        assert [a.tolist() for a in user_adj] == expected_users
        assert [a.tolist() for a in item_adj] == expected_items
        assert g.user_degrees.tolist() == [len(a) for a in expected_users]
        assert g.item_degrees.tolist() == [len(a) for a in expected_items]


def test_edge_array_sorted_and_consistent(small_graph):
    edges = small_graph.edge_array()
    assert len(edges) == small_graph.num_interactions
    as_tuples = list(map(tuple, edges))
    assert as_tuples == sorted(as_tuples)


def test_to_sparse_round_trip(small_graph):
    R = small_graph.to_sparse()
    assert R.shape == (4, 5)
    assert R.nnz == 8
    us, its = to_scipy(R).nonzero()
    assert sorted(zip(us, its)) == list(map(tuple, small_graph.edge_array()))


# ---------------------------------------------------------------------------
# largest connected component

def _induced_by_sets(g, edges):
    """Oracle: kept tokens in index order and the token pairs of the kept
    edges, from Python sets."""
    users = sorted({int(u) for u, _ in edges})
    items = sorted({int(i) for _, i in edges})
    return ([g.user_ids[u] for u in users], [g.item_ids[i] for i in items],
            {(g.user_ids[u], g.item_ids[i]) for u, i in edges})


def _check_induced(g, edges):
    sub = induced_subgraph(g, edges)
    user_ids, item_ids, pairs = _induced_by_sets(g, edges)
    assert list(sub.user_ids) == user_ids
    assert list(sub.item_ids) == item_ids
    got = [(sub.user_ids[u], sub.item_ids[i]) for u, i in sub.edge_array()]
    assert len(got) == len(edges) and set(got) == pairs
    assert sub.user_degrees.min() >= 1 and sub.item_degrees.min() >= 1


def test_induced_subgraph_matches_set_oracle(rng):
    g = heavy_tailed_graph(num_users=300, num_items=200,
                           num_interactions=2000, seed=6)
    edges = g.edge_array()
    for keep in (0.05, 0.5, 0.95):
        _check_induced(g, edges[rng.random(len(edges)) < keep])
    # drop whole users and items, including the first and last of each
    user_kept = rng.random(g.num_users) < 0.6
    item_kept = rng.random(g.num_items) < 0.6
    user_kept[[0, -1]] = item_kept[[0, -1]] = False
    subset = edges[user_kept[edges[:, 0]] & item_kept[edges[:, 1]]]
    assert len(np.unique(subset[:, 0])) < g.num_users
    assert len(np.unique(subset[:, 1])) < g.num_items
    _check_induced(g, subset)
    for _ in range(30):
        small = random_bipartite(rng)
        small_edges = small.edge_array()
        mask = rng.random(len(small_edges)) < 0.5
        mask[rng.integers(len(mask))] = True
        _check_induced(small, small_edges[mask])


def _components_by_union_find(g):
    """Independent oracle: union-find over the same node numbering."""
    total = g.num_users + g.num_items
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, i in g.edge_array():
        ra, rb = find(int(u)), find(g.num_users + int(i))
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for node in range(total):
        groups.setdefault(find(node), []).append(node)
    return list(groups.values())


def test_lcc_matches_union_find_oracle(rng):
    for _ in range(50):
        g = random_bipartite(rng, p=0.08)
        comps = _components_by_union_find(g)
        # compare against components that contain at least one edge
        sizes = []
        for nodes in comps:
            node_set = set(nodes)
            edge_count = sum(1 for u, i in g.edge_array()
                             if int(u) in node_set)
            if edge_count:
                sizes.append((len(nodes), edge_count))
        expected_nodes, expected_edges = max(sizes)
        lcc = largest_connected_component(g)
        assert lcc.num_users + lcc.num_items == expected_nodes
        assert lcc.num_interactions == expected_edges


def test_lcc_keeps_original_tokens():
    g = make_graph([(0, 0), (1, 1), (2, 1)])
    lcc = largest_connected_component(g)
    assert lcc.num_users == 2
    assert lcc.user_ids == ("u1", "u2")
    assert lcc.item_ids == ("i1",)


def test_lcc_tie_breaks_on_edge_count():
    # two components with 4 nodes each; the right one has 4 edges, left 3
    g = make_graph([(0, 0), (0, 1), (1, 1),
                    (2, 2), (2, 3), (3, 2), (3, 3)])
    lcc = largest_connected_component(g)
    assert lcc.num_interactions == 4
    assert lcc.user_ids == ("u2", "u3")


def test_lcc_tie_breaks_on_lowest_index():
    # two identical 2-node/1-edge components: keep the one containing u0
    g = make_graph([(0, 0), (1, 1)])
    lcc = largest_connected_component(g)
    assert lcc.user_ids == ("u0",)
    assert lcc.item_ids == ("i0",)


def test_lcc_of_two_component_fixture(small_graph):
    # small_graph splits into {u0,u1 / i0,i1,i2} (5 edges) and
    # {u2,u3 / i3,i4} (3 edges); the first wins on node count
    lcc = largest_connected_component(small_graph)
    assert lcc.num_users == 2
    assert lcc.num_items == 3
    assert lcc.num_interactions == 5
    assert lcc.user_ids == ("u0", "u1")


# ---------------------------------------------------------------------------
# projection

def _project_bruteforce(g, partition):
    """All-pairs co-occurrence counts via explicit neighbor sets."""
    user_adj, item_adj = adjacency(g)
    if partition == "user":
        adj = [set(map(int, a)) for a in user_adj]
    else:
        adj = [set(map(int, a)) for a in item_adj]
    weights = {}
    for v in range(len(adj)):
        for w in range(v + 1, len(adj)):
            shared = len(adj[v] & adj[w])
            if shared:
                weights[(v, w)] = shared
    return weights


@pytest.mark.parametrize("partition", ["user", "item"])
def test_projection_matches_bruteforce(rng, partition):
    for _ in range(40):
        g = random_bipartite(rng)
        expected = _project_bruteforce(g, partition)
        proj = project(g, partition)
        got = {(int(v), int(w)): int(wt)
               for v, w, wt in zip(proj.v, proj.w, proj.weight)}
        assert got == expected


def test_projection_degrees_count_distinct_coneighbors(rng):
    for _ in range(20):
        g = random_bipartite(rng)
        proj = project(g, "user")
        expected = np.zeros(g.num_users, dtype=int)
        for (v, w) in _project_bruteforce(g, "user"):
            expected[v] += 1
            expected[w] += 1
        assert np.array_equal(proj.degrees, expected)


def test_projection_k22(k22_graph):
    proj = project(k22_graph, "user")
    assert proj.num_edges == 1
    assert int(proj.weight[0]) == 2  # two shared items
    assert list(proj.degrees) == [1, 1]


def test_projection_keeps_zero_degree_nodes(rng):
    """A split's train graph keeps users and items with no train edge; the
    projection must carry them as pair-free nodes of degree 0."""
    for _ in range(40):
        g = random_bipartite(rng, max_users=12, max_items=12, p=0.4)
        nu, ni = g.num_users + 3, g.num_items + 2
        # spread the edges over a wider index range, leaving gaps
        users = rng.permutation(nu)[:g.num_users]
        items = rng.permutation(ni)[:g.num_items]
        edges = g.edge_array()
        wide = make_graph(list(zip(users[edges[:, 0]], items[edges[:, 1]])),
                          nu, ni)
        assert (wide.user_degrees == 0).sum() >= 3
        assert (wide.item_degrees == 0).sum() >= 2
        for partition in ("user", "item"):
            proj = project(wide, partition)
            got = {(int(v), int(w)): int(wt)
                   for v, w, wt in zip(proj.v, proj.w, proj.weight)}
            assert got == _project_bruteforce(wide, partition)
            degrees = (wide.user_degrees if partition == "user"
                       else wide.item_degrees)
            assert proj.n == len(degrees)
            assert (proj.degrees[degrees == 0] == 0).all()


def test_projection_relabeling_invariance(rng):
    """Permuting item labels must not change the user projection."""
    g = random_bipartite(rng, max_users=8, max_items=8, p=0.4)
    perm = rng.permutation(g.num_items)
    edges = g.edge_array().copy()
    edges[:, 1] = perm[edges[:, 1]]
    g2 = make_graph(list(map(tuple, edges)), g.num_users, g.num_items)
    p1, p2 = project(g, "user"), project(g2, "user")
    assert np.array_equal(p1.v, p2.v)
    assert np.array_equal(p1.w, p2.w)
    assert np.array_equal(p1.weight, p2.weight)
