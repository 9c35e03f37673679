"""Correctness tests for the color-coding build-up phase (paper §2.1, §3).

The central check: the Spark DataFrame DP must produce exactly the
per-vertex colorful rooted-treelet counts that exhaustive enumeration
produces, for every (vertex, rooted shape, color set) triple.
"""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core import buildup, coloring, treelet as tl
from repro.exactcount import esu
from repro.graphs import generators as gen
from repro.oracle import assert_equivalent


def _collect_counts(tables: buildup.CountTables, h: int) -> dict[tuple[int, int, int], int]:
    pdf = tables.levels[h].toPandas()
    return {
        (int(r.v), int(r.t), int(r.c)): int(r.cnt) for r in pdf.itertuples() if int(r.cnt) != 0
    }


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [3, 4])
def test_dp_matches_bruteforce_er(spark, seed, k):
    """Every c(T_C, v) from the Spark DP equals the brute-force count."""
    g = gen.er_graph(14, 26, seed=seed)
    tables = buildup.build_tables(spark, g, k, seed=seed + 10, zero_rooting=False)
    colors = tables.colors
    brute = esu.brute_force_rooted_treelet_counts(g.adj, colors, k)
    got = {}
    for h in range(1, k + 1):
        got.update(_collect_counts(tables, h))
    assert got == {key: c for key, c in brute.items() if c != 0}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_dp_on_path_graph(spark, k):
    """On a path, every k-treelet is a k-path; totals have a closed form:
    each of the n-k+1 path copies is colorful iff its k colors differ."""
    n = 16
    g = gen.path_graph(n)
    tables = buildup.build_tables(spark, g, k, seed=3, zero_rooting=False)
    colors = tables.colors
    expected_copies = 0
    for start in range(n - k + 1):
        cs = colors[start : start + k]
        if len(set(cs.tolist())) == k:
            expected_copies += 1
    # zero_rooting=False counts every copy once per rooting (k times).
    total = sum(_collect_counts(tables, k).values())
    assert total == k * expected_copies


def test_zero_rooting_counts_each_copy_once(spark):
    g = gen.er_graph(30, 80, seed=7)
    k = 4
    t_root = buildup.build_tables(spark, g, k, seed=5, zero_rooting=True)
    t_free = buildup.build_tables(spark, g, k, seed=5, zero_rooting=False)
    assert t_free.total_treelets() == t_root.total_treelets()
    free_sum = sum(_collect_counts(t_free, k).values())
    root_sum = sum(_collect_counts(t_root, k).values())
    assert free_sum == k * root_sum
    # 0-rooted entries live only at color-0 vertices.
    for (v, _, _), _ in _collect_counts(t_root, k).items():
        assert t_root.colors[v] == 0


def test_zero_rooting_shrinks_final_level(spark):
    """The paper reports ~1/k final-level records under 0-rooting."""
    g = gen.er_graph(60, 200, seed=8)
    k = 4
    rows_root = buildup.build_tables(spark, g, k, seed=6, zero_rooting=True).stats.rows_per_level[k]
    rows_free = buildup.build_tables(spark, g, k, seed=6, zero_rooting=False).stats.rows_per_level[k]
    assert rows_root < rows_free
    assert rows_root < 0.6 * rows_free  # roughly 1/k of the rootings survive


@pytest.mark.parametrize("k", [3, 4])
def test_dp_level_matches_duckdb_oracle(spark, k):
    """The level-k aggregation re-expressed in SQL over the level tables,
    the edge table and the merge table gives identical counts (catches
    join/filter/groupBy bugs independently of the DP derivation)."""
    g = gen.er_graph(20, 50, seed=9)
    tables = buildup.build_tables(spark, g, k, seed=11, zero_rooting=False)
    merge_pdf = pd.DataFrame(
        [r for r in tl.merge_table(k) if r[0] + r[1] == k],
        columns=["size_l", "size_r", "tl", "tr", "tm", "beta"],
    )
    level_pdfs = {
        h: tables.levels[h].toPandas().assign(cnt=lambda d: d.cnt.map(int).astype("int64"))
        for h in range(1, k + 1)
    }
    edges_pdf = pd.DataFrame({"src": np.r_[g.edge_array[:, 0], g.edge_array[:, 1]],
                              "dst": np.r_[g.edge_array[:, 1], g.edge_array[:, 0]]})
    union_sql = "\nUNION ALL\n".join(
        f"""
        SELECT l.v AS v, m.tm AS t, (l.c | r.c) AS c,
               CAST(SUM(l.cnt * r.cnt) / MAX(m.beta) AS BIGINT) AS cnt
        FROM lvl{size_l} l
        JOIN mergetab m ON l.t = m.tl AND m.size_l = {size_l} AND m.size_r = {size_r}
        JOIN edges e ON l.v = e.src
        JOIN lvl{size_r} r ON e.dst = r.v AND r.t = m.tr
        WHERE (l.c & r.c) = 0
        GROUP BY l.v, m.tm, (l.c | r.c)
        """
        for size_l, size_r in sorted({(r.size_l, r.size_r) for r in merge_pdf.itertuples()})
    )
    spark_level = tables.levels[k].select(
        "v", "t", "c", tables.levels[k].cnt.cast("long").alias("cnt")
    )
    assert_equivalent(
        spark_level,
        union_sql,
        edges=edges_pdf,
        mergetab=merge_pdf,
        **{f"lvl{h}": level_pdfs[h] for h in range(1, k)},
    )


def test_flushed_equals_inmemory(spark, tmp_path):
    """Greedy flushing to parquet must not change any count."""
    g = gen.er_graph(25, 60, seed=12)
    k = 4
    mem = buildup.build_tables(spark, g, k, seed=13)
    disk = buildup.build_tables(spark, g, k, seed=13, flush_dir=str(tmp_path / "tables"))
    for h in range(1, k + 1):
        assert _collect_counts(mem, h) == _collect_counts(disk, h)
    assert disk.stats.total_bytes > 0


@pytest.mark.parametrize("flush", [False, True], ids=["in_memory", "flushed"])
def test_broadcast_and_shuffled_joins_agree(spark, tmp_path, monkeypatch, flush):
    """With BROADCAST_ROWS at 0 no join side is broadcast, so every join
    shuffles. That plan must give the broadcast plan's urn row for row,
    and both must equal brute-force enumeration (0-rooted at level k)."""
    g = gen.er_graph(12, 24, seed=4)
    k = 5

    def urn(name):
        flush_dir = str(tmp_path / name) if flush else None
        tables = buildup.build_tables(spark, g, k, seed=14, flush_dir=flush_dir)
        rows = {
            h: sorted(tuple(r) for r in tables.levels[h].select("v", "t", "c", "cnt").collect())
            for h in range(1, k + 1)
        }
        return tables, rows

    tables, broadcast = urn("broadcast")
    monkeypatch.setattr(buildup, "BROADCAST_ROWS", 0)
    _, shuffled = urn("shuffled")
    assert shuffled == broadcast

    brute = esu.brute_force_rooted_treelet_counts(g.adj, tables.colors, k)
    expected = {
        key: c
        for key, c in brute.items()
        if c != 0 and (tl.size(key[1]) < k or tables.colors[key[0]] == 0)
    }
    got = {(v, t, c): int(cnt) for rows in broadcast.values() for v, t, c, cnt in rows if cnt}
    assert got == expected


def test_expected_colorful_fraction(seed=0):
    """E[c_i] = p_k · g_i (§2.2): averaged over many colorings, the
    colorful fraction of triangle copies approaches k!/k^k."""
    k = 3
    g = gen.er_graph(40, 150, seed=2)
    triangles = [
        nodes
        for nodes in _triangles(g)
    ]
    assert len(triangles) > 10
    rng_seeds = range(400)
    fracs = []
    for s in rng_seeds:
        colors = coloring.assign_colors(g.n, k, seed=s)
        colorful = sum(
            1 for (a, b, c) in triangles if len({colors[a], colors[b], colors[c]}) == 3
        )
        fracs.append(colorful / len(triangles))
    assert abs(np.mean(fracs) - coloring.p_colorful(k)) < 0.01


def _triangles(g: gen.Graph):
    for a, b in g.edge_array:
        common = np.intersect1d(g.adj[int(a)], g.adj[int(b)])
        for c in common[common > b]:
            yield (int(a), int(b), int(c))


def test_root_pdf_and_totals(spark):
    g = gen.er_graph(30, 90, seed=14)
    k = 4
    tables = buildup.build_tables(spark, g, k, seed=15)
    pdf = tables.root_pdf()
    assert (pdf["cnt"] > 0).all()
    assert tables.total_treelets() == int(pdf["cnt"].sum())
    shape_totals = tables.shape_totals()
    assert sum(shape_totals.values()) == tables.total_treelets()
    assert set(shape_totals) == set(tl.unrooted_shapes(k))


def test_counts_are_decimal_38(spark):
    """Counters are Decimal(38,0) — the 128-bit-counter reproduction."""
    g = gen.er_graph(20, 40, seed=16)
    tables = buildup.build_tables(spark, g, 3, seed=17)
    field = dict(tables.levels[3].dtypes)["cnt"]
    assert field == "decimal(38,0)"


def test_star_counts_match_binomials(spark):
    """On the n-star with a colorful-friendly coloring, level-h star
    counts at the hub follow binomial sums over leaf colors; we verify
    against brute force to pin down β handling (β = h-1 for stars)."""
    g = gen.star_graph(12)
    k = 4
    tables = buildup.build_tables(spark, g, k, seed=18, zero_rooting=False)
    brute = esu.brute_force_rooted_treelet_counts(g.adj, tables.colors, k)
    got = {}
    for h in range(1, k + 1):
        got.update(_collect_counts(tables, h))
    assert got == {key: c for key, c in brute.items() if c != 0}


def test_biased_coloring_probability():
    for k in (3, 4, 5):
        assert coloring.p_colorful(k) == pytest.approx(math.factorial(k) / k**k)
        lam = 0.05
        assert coloring.p_colorful(k, lam) == pytest.approx(
            math.factorial(k) * lam ** (k - 1) * (1 - (k - 1) * lam)
        )
        assert coloring.p_colorful(k, lam) < coloring.p_colorful(k)


def test_biased_coloring_shrinks_tables(spark):
    """§3.4: biased coloring must reduce the number of stored pairs."""
    g = gen.ba_graph(300, 4, seed=19)
    k = 4
    uni = buildup.build_tables(spark, g, k, seed=20)
    bia = buildup.build_tables(spark, g, k, seed=20, lam=0.08)
    assert bia.stats.total_rows < uni.stats.total_rows
    # heavy color 0 dominates: most vertices still get counted at level 1
    assert (bia.colors == 0).mean() > 0.5


def test_biased_coloring_validation():
    with pytest.raises(ValueError):
        coloring.assign_colors(10, 5, seed=0, lam=0.3)  # (k-1)λ >= 1
