"""Link-graph analytics over (src:int64, dst:int64) edge Datasets.

Crawl context: PageRank over the host/outlink graph is the classic
frontier-prioritization signal (the reference's `valid_url` policy,
urls.py:106-241, gates WHICH links enter the frontier; a link-graph
score decides WHICH to fetch first — SURVEY.md §2.6 O6). The engine's
crawl harvests the (src_host, dst_host) edges anyway; this module turns
them into scores with the same algebra at any scale.

The iterative operators — ``pagerank`` (plain, personalized, weighted),
``hits``, ``core_decomposition``, ``strongly_connected_components``,
``label_propagation`` and ``shortest_paths`` — are each ONE driver
loop of vertex-program steps: a step sends a message along every live
edge (a value computed from the sending endpoint's state), combines
the messages per receiving node (sum / max / min / plurality vote),
and applies a node-table update. ``_graph`` materializes the edges,
discovers the node universe (``_node_universe_switch``) and picks the
backend by |V| against ``node_broadcast_limit``:

- ``_Local`` (|V| fits): node state is numpy arrays over the sorted
  node ids. A step ships the columns it reads via ``ray.put`` and
  streams the edges once — ids index-encoded inside the pass — and
  every block returns typed, pre-reduced (idx, value) partials that the
  driver folds with ``add`` / ``maximum`` / ``minimum.at``.
- ``_Resident`` (|V| too large for the driver): node state is one
  (node, ...) Dataset. A step hash_joins the read columns onto the
  sending endpoint, pre-reduces per batch, combines in one salted
  exchange and left-joins back onto the node table; nothing
  node-scaled reaches the driver, only per-step scalars.

Both backends run the same message, apply and scalar-reduction
functions, so the float64 algebra is the same (equal up to summation
order; consumers round). BFS, triangles, link prediction, HyperBall
and walks are Dataset-only operators.

The oracles in ``__ray_entry__.oracle_sql_all()`` re-derive the
fixed-iteration scores with chained SQL CTEs (one join+groupby per
iteration), so every float is checked against an independent
implementation.
"""

from __future__ import annotations

import copy

import numpy as np
import pandas as pd
import pyarrow as pa


# --- the vertex-program core --------------------------------------------

# message kinds: (combine ufunc, identity). The identity's dtype is the
# message dtype; a value equal to the identity is never sent, and a node
# that receives nothing reads the identity.
_SUM = (np.add, np.float64(0.0))
_COUNT = (np.add, np.int64(0))
_MAX = (np.maximum, np.int64(np.iinfo(np.int64).min))
_MIN = (np.minimum, np.int64(np.iinfo(np.int64).max))
# plurality vote, every node also voting its own value (ties: smallest)
_VOTE = ("vote", np.int64(0))
_AGG = {np.add: "sum", np.maximum: "max", np.minimum: "min"}


def _ids(t: pa.Table, col: str) -> np.ndarray:
    return t[col].to_numpy(zero_copy_only=False).astype(np.int64)


def _key(col: str):
    """Salted-exchange combine key on one integer column."""
    return lambda t: _ids(t, col)


def _pair_key(a: str, b: str):
    """Salted-exchange combine key folding two integer columns."""
    def fn(t: pa.Table) -> np.ndarray:
        with np.errstate(over="ignore"):
            k = (_ids(t, a).astype(np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15)
                 + _ids(t, b).astype(np.uint64))
        return k.view(np.int64)
    return fn


def _cols(t: pa.Table) -> dict:
    return {c: t[c].to_numpy(zero_copy_only=False) for c in t.column_names}


def _collect(ds, **dtypes) -> dict:
    """A small Dataset's columns on the driver as typed arrays. A Dataset
    whose blocks are all empty comes back without a schema; the empty
    case is typed here, once."""
    df = ds.to_pandas()
    return {c: (df[c].to_numpy(dt) if c in df.columns
                else np.zeros(0, dt)) for c, dt in dtypes.items()}


def _uniq(cols):
    def fn(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([_ids(t, c) for c in cols]))
        return pa.table({"node": pa.array(u, pa.int64())})
    return fn


def _distinct_nodes(edges_ds, cols=("src", "dst"), extra=None,
                    n_parts: int = 16):
    """(node) Dataset of the distinct ids in ``cols`` ∪ ``extra``:
    per-batch uniques, one salted exchange."""
    import ray.data as rd

    from .shuffle import salted_partition_apply

    found = edges_ds.map_batches(_uniq(cols), batch_format="pyarrow")
    if extra is not None and extra.size:
        found = found.union(rd.from_arrow(
            pa.table({"node": pa.array(extra, pa.int64())})))
    return salted_partition_apply(found, lambda df: df.drop_duplicates(
        "node"), _key("node"), n_parts=n_parts)


def _node_universe_switch(edges_ds, node_broadcast_limit: int,
                          n_parts: int = 16, cols=("src", "dst"),
                          extra=None):
    """Scale-safe node discovery + the |V| switch: ``edges_ds`` must be
    materialized; the universe is the ids in ``cols`` plus ``extra``.
    When even the ``len(cols)·|E|`` bound fits the limit, per-batch
    uniques concatenate on the driver directly (bounded by the same
    limit; skips one salted exchange). Only when the BOUND overflows
    does the distinct run as a distributed exchange — and then the
    driver sees nothing node-scaled before the path is chosen. Returns
    ``(nodes, nodes_ds, n)``: exactly one of nodes (sorted ndarray) /
    nodes_ds (distinct-node Dataset, |V| over the limit) is non-None."""
    extra = np.zeros(0, np.int64) if extra is None else extra
    if len(cols) * edges_ds.count() + extra.size <= node_broadcast_limit:
        found = _collect(edges_ds.map_batches(_uniq(cols),
                                              batch_format="pyarrow"),
                         node=np.int64)["node"]
        nodes = np.unique(np.concatenate([found, extra]))
        return nodes, None, len(nodes)
    nodes_ds = _distinct_nodes(edges_ds, cols, extra, n_parts).materialize()
    n = nodes_ds.count()
    if n <= node_broadcast_limit:    # discovered distributed, but fits
        return np.sort(_collect(nodes_ds, node=np.int64)["node"]), None, n
    return None, nodes_ds, n


def _compact(ds, k: int = 8):
    """Re-materialize loop-carried state with a BOUNDED block count.
    Fixpoint loops (k-core peel, SCC trim/color/backward) otherwise
    accumulate blocks wave over wave — union and hash_join outputs sum
    their inputs' block counts, and per-execution scheduling cost grows
    with block count, not bytes (measured: the 9-edge SCC hand graph
    livelocked past 15 min before this, 3 min after). One repartition
    per wave of node-scaled state is noise next to the exchanges the
    wave already runs. The blocks come back as a fresh Dataset: a
    materialized one still carries its inputs' stats tree, which Ray
    summarizes after every execution, and a step that reads the state
    twice doubles that tree (measured: the 9-edge SCC hand graph's
    steps grew 1 s → 52 s over nine steps)."""
    import ray.data as rd

    return rd.from_arrow_refs(ds.repartition(k).materialize()
                              .to_arrow_refs())


def _starts(*cols) -> np.ndarray:
    """Group start offsets of rows sorted on ``cols``."""
    if not cols[0].size:
        return np.zeros(0, np.intp)
    new = np.zeros(cols[0].size, bool)
    new[0] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(new)


def _tally(k, v, n):
    """Sum the vote counts ``n`` per (key, value) pair."""
    o = np.lexsort((v, k))
    k, v, n = k[o], v[o], n[o]
    s = _starts(k, v)
    return k[s], v[s], (np.add.reduceat(n, s) if s.size else n)


def _plurality(k, v, n):
    """Per key, the value with the most votes (ties: the smallest)."""
    k, v, n = _tally(k, v, n)
    o = np.lexsort((v, -n, k))
    k, v = k[o], v[o]
    s = _starts(k)
    return k[s], v[s]


def _one(e: dict) -> np.ndarray:
    """The counting message: 1 per live edge."""
    return np.ones(e["src"].size, np.int64)


def _is_vote(msgs: dict) -> bool:
    return any(kind[0] == "vote" for _to, _fn, kind in msgs.values())


def _partials(e: dict, keys: dict, msgs: dict) -> pa.Table:
    """One block's pre-reduction of a step's messages. ``msgs`` maps a
    name to (receiving endpoint, value fn over the edge columns ``e``,
    kind); ``keys`` gives each endpoint's key per edge (node index or
    node id). Returns a typed table — (key, <name>...) rows, one per
    receiving key, or (key, v, n) vote counts — even when empty."""
    if _is_vote(msgs):
        (to, fn, _kind), = msgs.values()
        k, v, n = _tally(keys[to], np.asarray(fn(e), np.int64),
                         np.ones(keys[to].size, np.int64))
        return pa.table({"key": pa.array(k, pa.int64()),
                         "v": pa.array(v, pa.int64()),
                         "n": pa.array(n, pa.int64())})
    ks, vals = [], {m: [] for m in msgs}
    for m, (to, fn, (_uf, ident)) in msgs.items():
        v = np.asarray(fn(e), ident.dtype)
        sent = v != ident
        ks.append(keys[to][sent])
        for o, (_t, _f, (_u, oid)) in msgs.items():
            vals[o].append(v[sent] if o == m
                           else np.full(int(sent.sum()), oid))
    k = np.concatenate(ks)
    order = np.argsort(k, kind="stable")
    s = _starts(k[order])
    out = {"key": pa.array(k[order][s], pa.int64())}
    for m, (_to, _fn, (uf, ident)) in msgs.items():
        v = np.concatenate(vals[m])[order]
        out[m] = pa.array(uf.reduceat(v, s) if s.size else v,
                          pa.from_numpy_dtype(ident.dtype))
    return pa.table(out)


def _applied(b: dict, apply) -> dict:
    """The node-table apply both backends run: ``apply(columns)``
    returns the columns it sets; the rest carry over."""
    if apply is not None:
        b.update(apply(b))
    return b


def _table(b: dict) -> pa.Table:
    return pa.table({c: pa.array(np.asarray(v)) for c, v in b.items()})


class _Local:
    """Broadcast backend: node state is a dict of numpy arrays over the
    sorted node ids, held on the driver (|V| fits). The live subgraph
    is the edges whose endpoints are both alive and, after
    ``restrict``, in the same group."""

    def __init__(self, edges_ds, nodes: np.ndarray, weight):
        import ray

        self.n, self.nodes = len(nodes), {"node": nodes}
        self._edges, self._weight = edges_ds, weight
        self._nref = ray.put(nodes)
        self._alive = self._group = None

    def step(self, state, msgs, apply=None, frm="src", reads=()):
        import ray

        nref, weight = self._nref, self._weight
        ref = ray.put((self._alive, self._group,
                       {c: state[c] for c in reads}))

        def partial(t: pa.Table) -> pa.Table:
            nd = ray.get(nref)
            alive, group, st = ray.get(ref)
            src, dst = _ids(t, "src"), _ids(t, "dst")
            si = np.searchsorted(nd, src).clip(0, max(nd.size - 1, 0))
            di = np.searchsorted(nd, dst).clip(0, max(nd.size - 1, 0))
            live = (nd[si] == src) & (nd[di] == dst)
            if alive is not None:
                live &= alive[si] & alive[di]
            if group is not None:
                live &= group[si] == group[di]
            si, di = si[live], di[live]
            e = {"src": src[live], "dst": dst[live]}
            if weight:
                e["weight"] = t[weight].to_numpy(zero_copy_only=False)[live]
            at = si if frm == "src" else di
            e.update({c: v[at] for c, v in st.items()})
            return _partials(e, {"src": si, "dst": di}, msgs)

        parts = self._edges.map_batches(partial, batch_format="pyarrow")
        b = dict(state)
        if _is_vote(msgs):
            (name, (_to, fn, _kind)), = msgs.items()
            got = _collect(parts, key=np.int64, v=np.int64, n=np.int64)
            k, v = _plurality(  # every node also votes its own value
                np.concatenate([got["key"], np.arange(self.n)]),
                np.concatenate([got["v"], np.asarray(fn(state), np.int64)]),
                np.concatenate([got["n"], np.ones(self.n, np.int64)]))
            b[name] = np.empty(self.n, np.int64)
            b[name][k] = v
            return _applied(b, apply)
        got = _collect(parts, key=np.int64, **{
            m: kind[1].dtype for m, (_t, _f, kind) in msgs.items()})
        for m, (_to, _fn, (uf, ident)) in msgs.items():
            b[m] = np.full(self.n, ident)
            uf.at(b[m], got["key"], got[m])
        return _applied(b, apply)

    def apply(self, state, fn):
        return _applied(dict(state), fn)

    def total(self, state, fn, how: str = "sum"):
        a = np.asarray(fn(state))
        return a.sum() if how == "sum" else a.min()

    def drop(self, state, dead) -> int:
        """Remove the nodes where ``dead(state)`` from the live subgraph;
        returns how many there were."""
        gone = np.asarray(dead(state), bool)
        self._alive = ~gone if self._alive is None else self._alive & ~gone
        return int(gone.sum())

    def restrict(self, state, col: str):
        """The live subgraph's edges whose endpoints agree on ``col``."""
        sub = copy.copy(self)
        sub._group = np.asarray(state[col])
        return sub

    def frame(self, state, **out) -> pd.DataFrame:
        return pd.DataFrame({o: state[c] for o, c in out.items()})

    def dataset(self, state, cols):
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({c: state[c] for c in cols}))


class _Resident:
    """Dataset-resident backend: node state is one (node, ...) Dataset
    and the live subgraph is an edge Dataset that ``drop`` shrinks; the
    driver sees only per-step scalars."""

    def __init__(self, edges_ds, nodes_ds, n: int, weight, n_parts: int,
                 broadcast_limit_bytes: int):
        self.n, self.nodes = n, nodes_ds
        self._edges, self._weight = edges_ds, weight
        self._n_parts, self._blim = n_parts, broadcast_limit_bytes

    def _join(self, left, right, on: str, how: str = "inner"):
        from .join import hash_join

        return hash_join(left, right, on=on, how=how, n_parts=self._n_parts)

    def step(self, state, msgs, apply=None, frm="src", reads=()):
        from .shuffle import salted_partition_apply

        if not self._edges.count():     # no live edge: nothing is sent
            def silent(b: dict) -> dict:
                b.update({m: (np.asarray(fn(b), np.int64)
                              if kind[0] == "vote"
                              else np.full(len(b["node"]), kind[1]))
                          for m, (_to, fn, kind) in msgs.items()})
                return _applied(b, apply)
            return self.apply(state, silent)
        weight = self._weight
        edges = self._edges
        if reads:
            edges = self._join(edges, state.map_batches(
                lambda t: pa.table({frm: t["node"],
                                    **{c: t[c] for c in reads}}),
                batch_format="pyarrow"), on=frm)

        def partial(t: pa.Table) -> pa.Table:
            e = {c: t[c].to_numpy(zero_copy_only=False) for c in reads}
            e["src"], e["dst"] = _ids(t, "src"), _ids(t, "dst")
            if weight:
                e["weight"] = t[weight].to_numpy(zero_copy_only=False)
            return _partials(e, e, msgs)

        parts = edges.map_batches(partial, batch_format="pyarrow")
        if _is_vote(msgs):
            (name, (_to, fn, _kind)), = msgs.items()
            parts = parts.union(state.map_batches(   # the self-votes
                lambda t: pa.table({
                    "key": t["node"],
                    "v": pa.array(np.asarray(fn(_cols(t)), np.int64)),
                    "n": pa.array(np.ones(len(t), np.int64))}),
                batch_format="pyarrow"))

            def combine(df: pd.DataFrame) -> pd.DataFrame:
                k, v = _plurality(df["key"].to_numpy(np.int64),
                                  df["v"].to_numpy(np.int64),
                                  df["n"].to_numpy(np.int64))
                return pd.DataFrame({"node": k, "_m_" + name: v})
        else:
            agg = {m: _AGG[kind[0]] for m, (_t, _f, kind) in msgs.items()}

            def combine(df: pd.DataFrame) -> pd.DataFrame:
                return df.groupby("key", as_index=False).agg(agg).rename(
                    columns={"key": "node",
                             **{m: "_m_" + m for m in msgs}})

        # materialized: the join would otherwise run the whole step once
        # more just to read the combined side's schema
        combined = salted_partition_apply(parts, combine, _key("key"),
                                          n_parts=self._n_parts).materialize()
        idents = {m: kind[1] for m, (_t, _f, kind) in msgs.items()}

        def fold(t: pa.Table) -> pa.Table:
            b = {}
            for c in t.column_names:
                if not c.startswith("_m_"):
                    b[c] = t[c].to_numpy(zero_copy_only=False)
                    continue
                ident = idents[c[3:]]          # no message: the identity
                b[c[3:]] = t[c].fill_null(pa.scalar(
                    ident.item(), t[c].type)).to_numpy(zero_copy_only=False)
            return _table(_applied(b, apply))

        return _compact(self._join(state, combined, on="node", how="left")
                        .map_batches(fold, batch_format="pyarrow"))

    def apply(self, state, fn):
        return _compact(state.map_batches(
            lambda t: _table(_applied(_cols(t), fn)),
            batch_format="pyarrow"))

    def total(self, state, fn, how: str = "sum"):
        def v(t: pa.Table) -> pa.Table:
            a = np.asarray(fn(_cols(t)))
            return pa.table({"v": a.astype(np.int64) if a.dtype == bool
                             else a})
        vals = state.map_batches(v, batch_format="pyarrow")
        return (vals.sum("v") if how == "sum" else vals.min("v")) or 0

    def drop(self, state, dead) -> int:
        """Remove the nodes where ``dead(columns)`` from the live edges;
        returns how many there were."""
        gone = _compact(state.map_batches(
            lambda t: t.select(["node"]).filter(
                pa.array(np.asarray(dead(_cols(t)), bool))),
            batch_format="pyarrow"))
        n_gone = gone.count()
        if n_gone and self._edges.count():
            self._edges = _drop_edges_touching(
                self._edges, gone, n_gone, n_parts=self._n_parts,
                broadcast_limit_bytes=self._blim).materialize()
        return n_gone

    def restrict(self, state, col: str):
        """The live edges whose endpoints agree on ``col``."""
        import pyarrow.compute as pc

        def side(end: str, as_: str):
            return state.map_batches(
                lambda t: pa.table({end: t["node"], as_: t[col]}),
                batch_format="pyarrow")

        keep = self._edges.schema().names
        same = self._join(self._join(self._edges, side("src", "_gs"),
                                     on="src"),
                          side("dst", "_gd"), on="dst").map_batches(
            lambda t: t.filter(pc.equal(t["_gs"], t["_gd"])).select(keep),
            batch_format="pyarrow")
        sub = copy.copy(self)
        sub._edges = _compact(same, k=self._n_parts)
        return sub

    def frame(self, state, **out) -> pd.DataFrame:
        df = state.to_pandas().sort_values("node")
        return pd.DataFrame({o: df[c].to_numpy() for o, c in out.items()})

    def dataset(self, state, cols):
        return state.map_batches(lambda t: t.select(cols),
                                 batch_format="pyarrow")


def _graph(edges_ds, node_broadcast_limit: int, *, weight=None,
           cols=("src", "dst"), extra=None, n_parts: int = 16,
           broadcast_limit_bytes: int = 256 << 20):
    """Materialize the edges once (projected to src, dst[, weight] in
    16 blocks — every extra block is one more task per step), discover
    the node universe and return the backend the |V| switch picks."""
    keep = ["src", "dst"] + ([weight] if weight else [])
    edges_ds = edges_ds.map_batches(lambda t: t.select(keep),
                                    batch_format="pyarrow") \
        .repartition(16).materialize()
    nodes, nodes_ds, n = _node_universe_switch(
        edges_ds, node_broadcast_limit, n_parts=min(n_parts, 16),
        cols=cols, extra=extra)
    if nodes_ds is None:
        return _Local(edges_ds, nodes, weight)
    return _Resident(edges_ds, nodes_ds, n, weight, n_parts,
                     broadcast_limit_bytes)


def _empty(**dtypes) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=dt) for c, dt in dtypes.items()})


def pagerank(edges_ds, damping: float = 0.85, iters: int = 3,
             node_broadcast_limit: int = 50_000_000,
             personalize: "list[int] | None" = None,
             weight_col: str | None = None):
    """Fixed-iteration PageRank over a directed edge Dataset
    (src:int64, dst:int64), with full dangling-node (sink) handling:
    the node universe is src ∪ dst, sinks carry out-degree 0, and their
    rank mass is redistributed uniformly each iteration (the standard
    PageRank dangling term) — so a general crawl host graph with sink
    pages is scored correctly, not crashed on or silently mis-credited.
    Returns pandas (node_id, score) sorted by node_id — node-scaled,
    the quantity any consumer holds.

    Vertex program (module docstring): one out-degree step, then per
    iteration the dangling mass as a scalar reduction and one step
    sending rank/deg along every edge. Up to ``node_broadcast_limit``
    nodes the rank vector lives on the driver (host graphs have
    |V| ≪ |E|); above it nothing node-scaled touches the driver.

    ``personalize``: seed node ids for PERSONALIZED PageRank — the
    teleport vector (and the dangling-mass sink) concentrates on the
    seeds present in the graph, 1/|S| each, instead of uniform 1/n;
    initial ranks likewise. The seed set is small by definition (it is
    user input), so it broadcasts into the step closures; seeds absent
    from the edge set are ignored, an all-absent set raises.

    ``weight_col``: optional per-edge positive weight — rank mass
    leaves a node proportionally to w(e)/Σ_out w (out-STRENGTH, the
    anchor-count-weighted host-rank form); None reproduces the
    uniform 1/deg algebra. A node whose out-weights sum to 0 is a sink,
    same as no out-edges."""
    if weight_col in ("src", "dst", "node", "rank", "deg", "w",
                      "sink_rank", "c"):
        raise ValueError(f"weight_col collides with an internal "
                         f"column: {weight_col!r}")

    g = _graph(edges_ds, node_broadcast_limit, weight=weight_col)
    if g.n == 0:
        return _empty(node_id="int64", score="float64")
    n = g.n
    seeds = (None if personalize is None
             else np.unique(np.asarray(personalize, dtype=np.int64)))
    if seeds is not None:
        n_seeds = int(g.total(g.nodes, lambda b: np.isin(b["node"], seeds)))
        if n_seeds == 0:
            raise ValueError("no personalization seed exists in the graph")

    def teleport(b: dict, mass: float) -> np.ndarray:
        """``mass`` spread uniformly, or over the seeds."""
        if seeds is None:
            return np.full(len(b["node"]), mass / n)
        return np.where(np.isin(b["node"], seeds), mass / n_seeds, 0.0)

    def with_rank(rank: np.ndarray, deg: np.ndarray) -> dict:
        # w = the rank mass each out-edge (per unit weight) carries
        return {"rank": rank, "w": np.where(deg > 0, rank / np.where(
            deg > 0, deg, 1.0), 0.0)}

    def weight(e: dict) -> np.ndarray:
        return (e["weight"].astype(np.float64) if weight_col
                else np.ones(e["src"].size))

    st = g.step(g.nodes, {"deg": ("src", weight, _SUM)},
                lambda b: with_rank(teleport(b, 1.0), b["deg"]))
    for _ in range(iters):
        dangling = float(g.total(st, lambda b: np.where(
            b["deg"] > 0, 0.0, b["rank"])))
        mass = (1.0 - damping) + damping * dangling
        st = g.step(
            st, {"c": ("dst", lambda e: e["w"] * weight(e), _SUM)},
            lambda b, _m=mass: with_rank(
                teleport(b, _m) + damping * b["c"], b["deg"]),
            reads=("w",))
    return g.frame(st, node_id="node", score="rank")


def _trade_pair_edges(sf_dir: str, edge_rows, *,
                      with_quantity: bool = False, n_parts: int = 64,
                      reduce_fn=None):
    """Shared base of every trade-graph derivation (plain / cyclic /
    sparse — previously three private copies of the same scaffold,
    review finding): lineitem ⋈ orders through the runtime
    broadcast-vs-exchange switch, ``edge_rows(batch) -> (src, dst)``
    chooses the emission (predicates, direction, node encoding), then
    ONE pair-keyed salted exchange reduces to distinct edges.
    ``with_quantity`` prunes the read to the columns the emission
    actually needs."""
    from .analytics import read
    from .join import adaptive_join
    from .shuffle import salted_partition_apply

    cols = ["l_orderkey", "l_suppkey"] + (
        ["l_quantity"] if with_quantity else [])
    li = read(sf_dir, "lineitem", cols)
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = adaptive_join(li, orders, on="l_orderkey",
                           right_on="o_orderkey")

    def distinct_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["src", "dst"])

    return salted_partition_apply(
        joined.map_batches(edge_rows, batch_format="pyarrow"),
        reduce_fn or distinct_pairs, _pair_key("src", "dst"),
        n_parts=n_parts)


def _pair_rows(t: pa.Table) -> pa.Table:
    """One (customer → supplier) row per lineitem ⋈ orders row; node ids
    disambiguate the two families (cust·2, supp·2+1)."""
    return pa.table({"src": pa.array(_ids(t, "o_custkey") * 2, pa.int64()),
                     "dst": pa.array(_ids(t, "l_suppkey") * 2 + 1,
                                     pa.int64())})


def _bidir(t: pa.Table, weight: str | None = None) -> pa.Table:
    """Symmetrize distinct (src, dst[, weight]) rows — both directions
    out, each carrying its pair's weight."""
    s, d = _ids(t, "src"), _ids(t, "dst")
    out = {"src": np.concatenate([s, d]), "dst": np.concatenate([d, s])}
    if weight:
        out[weight] = np.concatenate([_ids(t, weight)] * 2)
    return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})


def trade_edges(sf_dir: str):
    """Bidirectional customer↔supplier trade graph from lineitem ⋈
    orders: one edge pair per DISTINCT (custkey, suppkey) that ever
    traded (``_pair_rows`` node encoding)."""
    return _trade_pair_edges(sf_dir, _pair_rows) \
        .map_batches(_bidir, batch_format="pyarrow")


def trade_edges_weighted(sf_dir: str):
    """Bidirectional trade graph with per-edge WEIGHT = the number of
    lineitem rows between the pair (trade intensity); same node
    encoding, one pair-keyed count exchange instead of the distinct."""

    def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["src", "dst"], as_index=False).size()
        return g.rename(columns={"size": "wt"})

    return _trade_pair_edges(sf_dir, _pair_rows, reduce_fn=count_pairs) \
        .map_batches(_bidir, fn_kwargs={"weight": "wt"},
                     batch_format="pyarrow")


def trade_pagerank_weighted(sf_dir: str, damping: float = 0.85,
                            iters: int = 3) -> pd.DataFrame:
    """PageRank over the WEIGHTED bidirectional trade graph — rank
    mass flows proportionally to trade intensity (w/Σ_out w), the
    anchor-count-weighted host-rank algebra; chained weighted-CTE
    oracle."""
    return pagerank(trade_edges_weighted(sf_dir), damping=damping,
                    iters=iters, weight_col="wt")


def trade_pagerank(sf_dir: str, damping: float = 0.85, iters: int = 3):
    """PageRank scores over the trade graph; floats rounded to 6 for
    oracle hash-stability (summation-order noise is ~1e-16)."""
    df = pagerank(trade_edges(sf_dir), damping=damping, iters=iters)
    df["score"] = df["score"].round(6)
    return df.sort_values("node_id").reset_index(drop=True)


def trade_edges_directed(sf_dir: str):
    """ONE-WAY customer→supplier edges (no reverse direction): every
    supplier node is a pure sink, exercising the dangling-mass term of
    ``pagerank`` under the SQL oracle."""
    ds = trade_edges(sf_dir)

    def forward_only(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        keep = src % 2 == 0          # customer ids are even by encoding
        return pa.table({"src": pa.array(src[keep], pa.int64()),
                         "dst": pa.array(dst[keep], pa.int64())})

    return ds.map_batches(forward_only, batch_format="pyarrow")


def trade_pagerank_directed(sf_dir: str, damping: float = 0.85,
                            iters: int = 3):
    """PageRank over the one-way trade graph: all supplier nodes are
    sinks, so scores depend on correct uniform redistribution of
    dangling mass every iteration — oracle-checked against a chained-CTE
    SQL form that computes the same dangling term explicitly."""
    df = pagerank(trade_edges_directed(sf_dir), damping=damping,
                  iters=iters)
    df["score"] = df["score"].round(6)
    return df.sort_values("node_id").reset_index(drop=True)


def _two_smallest_src(edges_ds) -> list[int]:
    """The two smallest src ids — the deterministic seed pick the
    trade BFS / PPR / shortest-path oracles mirror: each block's two
    smallest, then the two smallest of those."""
    def min2(t: pa.Table) -> pa.Table:
        return pa.table({"node_id": pa.array(
            np.unique(_ids(t, "src"))[:2], pa.int64())})

    found = _collect(edges_ds.map_batches(min2, batch_format="pyarrow"),
                     node_id=np.int64)["node_id"]
    return np.unique(found)[:2].tolist()


def hits(edges_ds, iters: int = 3,
         node_broadcast_limit: int = 50_000_000) -> pd.DataFrame:
    """Fixed-iteration HITS (Kleinberg hubs & authorities) over a
    directed edge Dataset (src:int64, dst:int64): per iteration
    ``auth = normalize(AᵀH)`` then ``hub = normalize(A·auth)`` with L2
    norms, init hub = 1 on the full node universe (src ∪ dst). Returns
    pandas (node_id, authority, hub) sorted by node_id — node-scaled.

    Vertex program (module docstring), behind the same node-count
    switch as ``pagerank``: each half-iteration is one step summing the
    other endpoint's score, then the L2 norm as a scalar reduction.
    Oracle: chained-CTE SQL in __ray_entry__ (one join+groupby+norm per
    half-iteration)."""
    g = _graph(edges_ds, node_broadcast_limit)
    if g.n == 0:
        return _empty(node_id="int64", authority="float64", hub="float64")

    def half(st, col: str, frm: str, read: str):
        st = g.step(st, {col: ("dst" if frm == "src" else "src",
                               lambda e: e[read], _SUM)},
                    frm=frm, reads=(read,))
        z = np.sqrt(float(g.total(st, lambda b: b[col] * b[col])))
        return g.apply(st, lambda b: {col: b[col] / z}) if z > 0 else st

    st = g.apply(g.nodes, lambda b: {"hub": np.ones(len(b["node"])),
                                     "auth": np.zeros(len(b["node"]))})
    for _ in range(iters):
        st = half(st, "auth", "src", "hub")
        st = half(st, "hub", "dst", "auth")
    return g.frame(st, node_id="node", authority="auth", hub="hub")


def trade_hits(sf_dir: str, iters: int = 3) -> pd.DataFrame:
    """HITS over the one-way customer→supplier trade graph: customers
    are pure hubs (no in-edges), suppliers pure authorities — the
    bipartite case where HITS degenerates to iterated co-citation
    weighting, fully oracle-checkable. Floats rounded to 6dp for
    hash-stability."""
    df = hits(trade_edges_directed(sf_dir), iters=iters)
    df["authority"] = df["authority"].round(6)
    df["hub"] = df["hub"].round(6)
    return df.sort_values("node_id").reset_index(drop=True)


def connected_components(edges_ds, n_parts: int = 32,
                         max_rounds: int = 30) -> pd.DataFrame:
    """Public connected-components operator over a directed-or-symmetric
    (src:int64, dst:int64) edge Dataset: returns (node_id, component_id)
    with component_id = the component's minimum node id, one row per
    node that appears in any edge.

    Engine: the alternating large-star/small-star edge rewriting the
    minhash dedup-group resolver runs (Kiveris et al. SoCC'14 — see
    dedup.resolve_duplicate_groups_distributed); the graph stays an edge
    Dataset end to end, O(log n) salted exchanges, loud failure on
    non-convergence. This wrapper is the crawl-scale entry point (host
    clusters over the outlink graph); the SQL oracle re-derives the same
    labels with a recursive reachability closure."""
    def to_pairs(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["src"], "b": t["dst"]})

    from .dedup import resolve_duplicate_groups_distributed

    out = resolve_duplicate_groups_distributed(
        edges_ds.map_batches(to_pairs, batch_format="pyarrow"),
        max_rounds=max_rounds, n_parts=n_parts)
    return out.rename(columns={"doc_id": "node_id",
                               "keep_doc_id": "component_id"})


def trade_components(sf_dir: str) -> pd.DataFrame:
    """Connected components of the bidirectional customer↔supplier trade
    graph (same edge derivation as trade_pagerank)."""
    return connected_components(trade_edges(sf_dir))


def bfs_hops(edges_ds, sources: list[int], max_hops: int = 4,
             n_parts: int = 32) -> pd.DataFrame:
    """Multi-source BFS hop distances over a (src:int64, dst:int64)
    edge Dataset: (node_id, dist) for every node within ``max_hops`` of
    any source, dist = the MINIMUM hop count (sources at 0). The
    frontier-priority primitive behind crawl-depth accounting and
    seed-distance features.

    Scale shape: the frontier and the visited set stay DATASETS end to
    end — per hop, ONE semi-join keeps the edges leaving the frontier
    (edges exchange on src), a salted distinct collapses their dst
    multiplicity, and an anti-join against visited shrinks the next
    frontier; the graph never concentrates on the driver (only per-hop
    row COUNTS cross, for termination). max_hops × 3 key-functional
    exchanges total — the same per-iteration shape as the distributed
    PageRank path, with the visited anti-join keeping re-expansion off
    the table on high-diameter graphs."""
    import ray.data as rd

    from .join import hash_join
    from .shuffle import salted_partition_apply

    src_ids = np.unique(np.asarray(sources, dtype=np.int64))
    if src_ids.size == 0:
        raise ValueError("bfs_hops needs at least one source node")
    visited = rd.from_pandas(pd.DataFrame({"node_id": src_ids}))
    frontier = rd.from_pandas(pd.DataFrame({"src": src_ids}))
    levels = [pd.DataFrame({"node_id": src_ids,
                            "dist": np.zeros(src_ids.size, np.int64)})]

    def dst_only(t: pa.Table) -> pa.Table:
        return pa.table({"node_id": t["dst"]})

    def as_src(t: pa.Table) -> pa.Table:
        # avoids Dataset.rename_columns, whose Project stage rejects
        # the pandas blocks the exchange emits (Ray 2.49)
        return pa.table({"src": t["node_id"]})

    for h in range(1, max_hops + 1):
        out_edges = hash_join(edges_ds, frontier, on="src",
                              how="semi", n_parts=n_parts)
        cand = salted_partition_apply(
            out_edges.map_batches(dst_only, batch_format="pyarrow"),
            lambda df: df.drop_duplicates("node_id"),
            _key("node_id"), n_parts=n_parts)
        nxt = hash_join(cand, visited, on="node_id", how="anti",
                        n_parts=n_parts).materialize()
        n_new = nxt.count()
        if n_new == 0:
            break
        levels.append(pd.DataFrame({
            "node_id": nxt.to_pandas()["node_id"].astype("int64"),
            "dist": np.full(n_new, h, np.int64)}))
        visited = visited.union(nxt).materialize()
        frontier = nxt.map_batches(as_src, batch_format="pyarrow")

    out = pd.concat(levels, ignore_index=True)
    return out.sort_values("node_id").reset_index(drop=True)


def trade_bfs(sf_dir: str, max_hops: int = 3) -> pd.DataFrame:
    """BFS hop distances over the bidirectional trade graph from the
    two smallest node ids (deterministic seed pick, shared with the
    recursive-CTE oracle). NOTE: levels collect to pandas on the
    driver — O(nodes-within-range) rows, the same driver volume as the
    result itself."""
    edges = trade_edges(sf_dir).materialize()
    return bfs_hops(edges, _two_smallest_src(edges), max_hops=max_hops)


def _drop_edges_touching(live_ds, dead_ds, n_dead: int,
                         n_parts: int = 16,
                         broadcast_limit_bytes: int = 256 << 20):
    """Remove every edge with either endpoint in ``dead_ds`` (a
    (node:int64) Dataset of ``n_dead`` rows) from a (src, dst) edge
    Dataset — the per-wave subgraph shrink of the Dataset-resident
    k-core / SCC paths. Byte-probed two-path form (the engine's
    standard small-side switch): a wave's peel set is usually tiny, so
    the sorted-membership broadcast filter wins; a degenerate wave
    (star-graph leaf kill) can be node-scaled, so above the byte bound
    the same semantics run as two anti hash-joins (src then dst) with
    nothing node-scaled on the driver. Returns an unmaterialized
    Dataset either way."""
    import ray

    from .join import hash_join
    from .shuffle import collect_sorted_keys, sorted_membership

    if n_dead * 8 <= broadcast_limit_bytes:
        dead = collect_sorted_keys(dead_ds, "node")
        ref = ray.put(dead)

        def keep(t: pa.Table) -> pa.Table:
            dd = ray.get(ref)
            s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
            m = (~sorted_membership(dd, s)) & (~sorted_membership(dd, d))
            return t.filter(pa.array(m))

        return live_ds.map_batches(keep, batch_format="pyarrow")
    # materialized: the second join reads its schema, and an empty
    # Dataset has none
    half = hash_join(live_ds, dead_ds, on="src", right_on="node",
                     how="anti", n_parts=n_parts).materialize()
    if not half.count():
        return half
    # bound the block count: joins sum their inputs' blocks, and this
    # output is loop-carried (next wave's live set)
    return hash_join(half, dead_ds, on="dst", right_on="node",
                     how="anti", n_parts=n_parts).repartition(n_parts)


def _src_degrees_ds(live_ds, n_parts: int = 16):
    """Per-src live degree as a Dataset (node, deg): per-batch unique
    counts, one salted node-functional exchange. The Dataset-resident
    replacement for the broadcast paths' bincount-into-|V|-vector."""
    from .shuffle import salted_partition_apply

    def partial(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(s, return_counts=True)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "deg": pa.array(c.astype(np.int64))})

    return salted_partition_apply(
        live_ds.map_batches(partial, batch_format="pyarrow"),
        lambda df: df.groupby("node", as_index=False)["deg"].sum(),
        combine_key=_key("node"),
        n_parts=n_parts)


def core_decomposition(edges_ds,
                       node_broadcast_limit: int = 50_000_000,
                       max_waves: int = 100_000,
                       broadcast_limit_bytes: int = 256 << 20,
                       n_parts: int = 16) -> pd.DataFrame:
    """Exact k-core decomposition — coreness(v) = the largest k such
    that v survives in a subgraph of minimum degree k — over an
    undirected graph given as a BIDIRECTIONAL edge Dataset (src, dst
    both directions, the trade_edges contract, so a count over src IS
    the live degree). The density/community primitive PageRank and
    triangles don't give you: spam-farm stripping and seed selection
    peel the crawl host graph by coreness.

    Peeling (Batagelj–Žaberšnik order, Montresor-et-al round
    structure) as a vertex program: each WAVE is one live-degree step,
    a scalar ``min`` over the alive nodes for the k-jump (raising k is
    a free re-check of the same degrees, so every wave removes ≥ 1
    node), and the removal of every alive node whose degree is < k
    from the live subgraph. The number of waves is the graph's
    degeneracy ordering depth, typically O(tens). Above
    ``node_broadcast_limit`` nodes the Dataset-resident backend shrinks
    the edge Dataset per wave with ``_drop_edges_touching``
    (``broadcast_limit_bytes`` picks its plan).

    Returns pandas (node_id, coreness:int64) sorted by node_id, one
    row per node appearing in any edge."""
    g = _graph(edges_ds, node_broadcast_limit, n_parts=n_parts,
               broadcast_limit_bytes=broadcast_limit_bytes)
    if g.n == 0:
        return _empty(node_id="int64", coreness="int64")
    imax = np.iinfo(np.int64).max
    st = g.apply(g.nodes, lambda b: {     # coreness -1 = still alive
        "core": np.full(len(b["node"]), -1, np.int64)})
    n_alive, k, waves = g.n, 1, 0
    while n_alive:
        waves += 1
        if waves > max_waves:
            raise RuntimeError(f"core_decomposition: no convergence "
                               f"after {max_waves} waves")
        st = g.step(st, {"deg": ("src", _one, _COUNT)})
        m = int(g.total(st, lambda b: np.where(b["core"] < 0, b["deg"],
                                               imax), "min"))
        k = max(k, m + 1)                   # the k-jump (see docstring)

        def doomed(b, _k=k):
            return (b["core"] < 0) & (b["deg"] < _k)

        n_alive -= g.drop(st, doomed)
        st = g.apply(st, lambda b, _k=k: {
            "core": np.where(doomed(b), _k - 1, b["core"])})
    return g.frame(st, node_id="node", coreness="core")


def trade_coreness(sf_dir: str) -> pd.DataFrame:
    """k-core decomposition of the bidirectional customer↔supplier
    trade graph (same edge derivation as trade_pagerank)."""
    return core_decomposition(trade_edges(sf_dir))


def triangle_counts(edges_ds, n_parts: int = 64) -> pd.DataFrame:
    """Per-node triangle counts over an undirected simple graph given as
    a CANONICAL edge Dataset (u:int64, v:int64, u < v, distinct rows).
    Returns pandas (node_id, n_triangles) for every node in ≥1 triangle,
    sorted by node_id — node-scaled, the quantity any consumer holds.

    Engine shape (the standard distributed triangle scheme — degree-
    ordered orientation, cf. Suri & Vassilvitskii WWW'11 "Counting
    triangles and the curse of the last reducer"): orienting every edge
    from its lower-(degree, id) endpoint to the higher bounds per-node
    out-degree at O(sqrt(m)), so the wedge blowup is O(m^1.5) total and
    immune to hub skew — a raw groupby(src) pairing without the
    orientation is quadratic in the hottest node's degree.

      1. degrees — one salted exchange over edge endpoints;
      2. orientation — degrees attach via two hash_join exchanges
         (node-scaled right side; nothing node-scaled on the driver);
      3. wedges — oriented edges group by src (salted exchange), each
         src emits its out-neighbor pairs, canonicalized (a < b);
      4. close — wedges ⋈ canonical edges, partitioned by the pair HASH
         but matched inside each part on the exact (a, b) ints (the
         house collision-only-co-locates pattern), each surviving wedge
         being exactly one triangle, counted once;
      5. per-node counts — flat-emit the 3 corners, salted count.
    """
    from .shuffle import salted_partition_apply
    from .join import hash_join

    edges_ds = edges_ds.materialize()  # reused: degrees, orientation, close

    # 1. degrees (one row per endpoint occurrence -> count per node)
    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.array(np.concatenate([
            t["u"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["v"].to_numpy(zero_copy_only=False).astype(np.int64)]),
            pa.int64())})

    def count_nodes(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("node", sort=False).size().reset_index(name="deg")
        return out.astype({"node": "int64", "deg": "int64"})

    degrees = salted_partition_apply(
        edges_ds.map_batches(endpoints, batch_format="pyarrow"),
        count_nodes, _key("node"),
        n_parts=n_parts)

    # 2. orientation: low (deg, id) -> high (deg, id)
    du = degrees.map_batches(
        lambda t: t.rename_columns(["u", "du"]), batch_format="pyarrow")
    dv = degrees.map_batches(
        lambda t: t.rename_columns(["v", "dv"]), batch_format="pyarrow")
    e = hash_join(hash_join(edges_ds, du, on="u", n_parts=n_parts),
                  dv, on="v", n_parts=n_parts)

    def orient(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        duv = t["du"].to_numpy(zero_copy_only=False)
        dvv = t["dv"].to_numpy(zero_copy_only=False)
        u_first = (duv < dvv) | ((duv == dvv) & (u < v))
        return pa.table({
            "src": pa.array(np.where(u_first, u, v), pa.int64()),
            "dst": pa.array(np.where(u_first, v, u), pa.int64())})

    oriented = e.map_batches(orient, batch_format="pyarrow")

    # 3. wedges: per src, all out-neighbor pairs (canonical a < b), src rides
    def emit_wedges(df: pd.DataFrame) -> pd.DataFrame:
        srcs, a_out, b_out, s_out = df["src"].to_numpy(), [], [], []
        dsts = df["dst"].to_numpy()
        order = np.argsort(srcs, kind="mergesort")
        srcs, dsts = srcs[order], dsts[order]
        bounds = np.flatnonzero(np.r_[True, srcs[1:] != srcs[:-1], True])
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            n = hi - lo
            if n < 2:
                continue
            nb = np.sort(dsts[lo:hi])
            ia, ib = np.triu_indices(n, k=1)
            a_out.append(nb[ia]); b_out.append(nb[ib])
            s_out.append(np.full(ia.size, srcs[lo], np.int64))
        if not a_out:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="int64")})
        return pd.DataFrame({"a": np.concatenate(a_out),
                             "b": np.concatenate(b_out),
                             "s": np.concatenate(s_out)})

    wedges = salted_partition_apply(
        oriented, emit_wedges,
        _key("src"), n_parts=n_parts)

    # 4. close the wedges against the edge set: one pair-hash-keyed
    # exchange each side, exact (a, b) merge inside the part
    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_edge", pa.array(np.full(t.num_rows, side, np.int8)))
        return fn

    def edge_ab(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["u"], "b": t["v"],
                         "s": pa.array(np.zeros(t.num_rows, np.int64))})

    both = wedges.map_batches(tag(0), batch_format="pyarrow").union(
        edges_ds.map_batches(edge_ab, batch_format="pyarrow")
        .map_batches(tag(1), batch_format="pyarrow"))

    def close_part(df: pd.DataFrame) -> pd.DataFrame:
        w = df[df["is_edge"] == 0]
        eset = df[df["is_edge"] == 1][["a", "b"]]
        hit = w.merge(eset, on=["a", "b"], how="inner")
        return hit[["a", "b", "s"]].reset_index(drop=True)

    tri = salted_partition_apply(
        both, close_part, _pair_key("a", "b"),
        n_parts=n_parts)

    # 5. per-node participation counts
    def corners(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.array(np.concatenate([
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False),
            t["s"].to_numpy(zero_copy_only=False)]), pa.int64())})

    def count_tri(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("node", sort=False).size() \
            .reset_index(name="n_triangles")
        return out.astype({"node": "int64", "n_triangles": "int64"})

    per_node = salted_partition_apply(
        tri.map_batches(corners, batch_format="pyarrow"),
        count_tri, _key("node"),
        n_parts=n_parts).to_pandas()
    return per_node.rename(columns={"node": "node_id"}) \
        .sort_values("node_id").reset_index(drop=True)


def part_coorder_edges(sf_dir: str, n_parts: int = 64):
    """Canonical distinct (u < v) part co-order edges: parts that ship in
    the same order. One exchange on l_orderkey generates in-order pairs
    (per-order fan-out is order-line-bounded, ~4-7 lines in TPC-H-ish
    data), a second pair-hash exchange makes them globally distinct."""
    from .analytics import read
    from .shuffle import salted_partition_apply

    li = read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs_in_order(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["l_orderkey", "l_partkey"]) \
            .sort_values(["l_orderkey", "l_partkey"], kind="mergesort")
        ok = df["l_orderkey"].to_numpy()
        pk = df["l_partkey"].to_numpy().astype(np.int64)
        bounds = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1], True])
        a_out, b_out = [], []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            n = hi - lo
            if n < 2:
                continue
            ia, ib = np.triu_indices(n, k=1)
            a_out.append(pk[lo:hi][ia]); b_out.append(pk[lo:hi][ib])
        if not a_out:
            return pd.DataFrame({"u": pd.Series([], dtype="int64"),
                                 "v": pd.Series([], dtype="int64")})
        return pd.DataFrame({"u": np.concatenate(a_out),
                             "v": np.concatenate(b_out)}).drop_duplicates()

    in_order = salted_partition_apply(
        li, pairs_in_order,
        _key("l_orderkey"),
        n_parts=n_parts)

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["u", "v"]).reset_index(drop=True)

    return salted_partition_apply(in_order, distinct, _pair_key("u", "v"),
                                  n_parts=n_parts)


def part_triangles(sf_dir: str) -> pd.DataFrame:
    """Per-part triangle counts of the part co-order graph — the
    co-occurrence-network form of triangle counting (node_id = partkey,
    n_triangles = closed co-order triples through it)."""
    return triangle_counts(part_coorder_edges(sf_dir))


def trade_ppr(sf_dir: str, damping: float = 0.85, iters: int = 3,
              node_broadcast_limit: int = 50_000_000) -> pd.DataFrame:
    """Personalized PageRank over the ONE-WAY cust→supp trade graph
    from the two smallest customer nodes (deterministic seed pick,
    mirrored in the SQL oracle): teleport, initial mass, and the
    dangling redistribution all concentrate on the seeds — the "pages
    relevant to THIS site" crawl-prioritization signal, vs the global
    importance trade_pagerank gives. Suppliers are pure sinks here, so
    the seed-directed dangling term is exercised, not just the teleport."""
    edges = trade_edges_directed(sf_dir).materialize()
    df = pagerank(edges, damping=damping, iters=iters,
                  node_broadcast_limit=node_broadcast_limit,
                  personalize=_two_smallest_src(edges))
    df["score"] = df["score"].round(6)
    return df.sort_values("node_id").reset_index(drop=True)


def strongly_connected_components(edges_ds, max_rounds: int = 50,
                                  max_waves: int = 200,
                                  node_broadcast_limit: int = 50_000_000,
                                  broadcast_limit_bytes: int = 256 << 20,
                                  n_parts: int = 16) -> pd.DataFrame:
    """Exact SCC decomposition of a directed edge Dataset (src, dst) —
    the FW-BW-Trim / coloring family (Fleischer-Hendrickson-Pinar 2000,
    Orzan 2004; the standard distributed SCC since Tarjan's stack is
    inherently sequential). Returns (node_id, scc_id) with scc_id = the
    MAXIMUM node id in the component (the coloring root), matching an
    oracle that derives components from mutual reachability.

    Rounds: (1) TRIM — nodes with zero in- or out-degree in the active
    subgraph are singleton SCCs, peeled to fixpoint (kills the DAG
    fringe that would otherwise cost one round each); (2) COLOR —
    forward max-label propagation to fixpoint partitions active nodes
    into color classes rooted at their max reachable-from id;
    (3) BACKWARD — within each color class, nodes that reach the root
    against the edges form the root's SCC (every color class peels its
    root SCC simultaneously — one round retires MANY components).
    Raises if max_rounds/max_waves don't converge (loud, like the CC
    non-convergence raise).

    Every wave is one vertex-program step over the live subgraph
    (module docstring): (out, in)-degree counts for trim, a max over
    in-neighbors' colors for color, a max over same-color
    out-neighbors' marks for backward; retired nodes leave the live
    subgraph. Above ``node_broadcast_limit`` nodes the same rounds run
    Dataset-resident (``broadcast_limit_bytes`` picks the edge-shrink
    plan)."""
    g = _graph(edges_ds, node_broadcast_limit, n_parts=n_parts,
               broadcast_limit_bytes=broadcast_limit_bytes)
    if g.n == 0:
        return _empty(node_id="int64", scc_id="int64")

    def retire(st, dead, scc_of: str):
        """Give the nodes where ``dead`` their SCC id and take them out
        of the live subgraph; returns (state, number retired)."""
        nd = g.drop(st, dead)
        if nd:
            st = g.apply(st, lambda b: {
                "scc": np.where(dead(b), b[scc_of], b["scc"]),
                "act": np.where(dead(b), 0, b["act"])})
        return st, nd

    def fixpoint(sub, st, col: str, to: str, what: str):
        """Propagate the max of ``col`` against ``to`` until stable."""
        frm = "src" if to == "dst" else "dst"
        for _wave in range(max_waves):
            st = sub.step(st, {"m": (to, lambda e: e[col], _MAX)},
                          lambda b: {col: np.maximum(b[col], b["m"]),
                                     "chg": (b["m"] > b[col])
                                     .astype(np.int64)},
                          frm=frm, reads=(col,))
            if not g.total(st, lambda b: b["chg"]):
                return st
        raise RuntimeError(f"SCC {what} did not converge")

    st = g.apply(g.nodes, lambda b: {
        "act": np.ones(len(b["node"]), np.int64),
        "scc": np.full(len(b["node"]), -1, np.int64)})
    n_active = g.n
    for _round in range(max_rounds):
        if n_active == 0:
            break

        # --- 1. TRIM to fixpoint ---
        for _wave in range(max_waves):
            st = g.step(st, {"od": ("src", _one, _COUNT),
                             "ind": ("dst", _one, _COUNT)})
            st, nk = retire(st, lambda b: (b["act"] == 1) & (
                (b["od"] == 0) | (b["ind"] == 0)), "node")
            n_active -= nk
            if nk == 0 or n_active == 0:
                break
        else:
            raise RuntimeError("SCC trim did not converge")
        if n_active == 0:
            break

        # --- 2. COLOR: forward max-label propagation ---
        st = g.apply(st, lambda b: {
            "color": np.where(b["act"] == 1, b["node"], np.int64(-1))})
        st = fixpoint(g, st, "color", "dst", "coloring")

        # --- 3. BACKWARD: reach the color root against the edges ---
        st = g.apply(st, lambda b: {"mark": (
            (b["act"] == 1) & (b["color"] == b["node"])).astype(np.int64)})
        st = fixpoint(g.restrict(st, "color"), st, "mark", "src",
                      "backward pass")
        st, nm = retire(st, lambda b: b["mark"] == 1, "color")
        n_active -= nm
    else:
        if n_active:
            raise RuntimeError("SCC peel did not converge in max_rounds")
    return g.frame(st, node_id="node", scc_id="scc")


def link_prediction_scores(edges_ds, k: int = 50, n_parts: int = 64):
    """Top-k link-prediction candidates over an undirected graph given
    as a BIDIRECTIONAL edge Dataset (the trade_edges contract): for
    every non-adjacent pair (a, b) sharing ≥1 neighbor, the
    common-neighbor count and the Adamic–Adar score
    Σ_{c ∈ N(a)∩N(b)} 1/ln(deg(c)) — the classic local link
    predictors (Liben-Nowell & Kleinberg 2003). Returns pandas
    (a, b, common_neighbors, adamic_adar) — aa rounded to 4 dp, ranked
    (aa desc, a asc, b asc), limit k.

    Scale shape: degrees from one salted per-src exchange ride back
    onto the edges via hash_join (never a driver map); WEDGES explode
    where the center lives — one center-keyed exchange groups each
    node's neighbor list, the per-part self-merge emits (u, v,
    1/ln(deg_center)) rows (wedge volume: Σ deg(c)², the triangle-
    counting bound — a hot hub is quadratic in ITS degree, the
    inherent cost of exact local link prediction; cap hubs upstream if
    that bound breaks); pair scores fold on one pair-keyed salted
    exchange where existing-edge marker rows ride along, so the
    adjacency exclusion is EXACT in-part (a, b) equality — never a
    collision-prone fold comparison. The final rank is a Dataset sort
    + limit; only k rows reach the driver."""
    from .join import hash_join
    from .shuffle import salted_partition_apply

    # consumed three times (degrees, wedge join, edge markers) — an
    # unmaterialized input pipeline would re-execute per consumer
    edges_ds = edges_ds.materialize()
    deg_ds = _src_degrees_ds(edges_ds, n_parts=n_parts)
    # arrow-map rename: right_on would go through rename_columns,
    # which rejects the pandas blocks the degree exchange emits
    ewd = hash_join(edges_ds, _arrow_rename(deg_ds, {"node": "src"}),
                    on="src", how="inner", n_parts=n_parts)

    # wedge candidates: group (center=src) -> neighbors, self-merge
    def center_rows(t: pa.Table) -> pa.Table:
        return pa.table({"center": t["src"], "doc_id": t["dst"],
                         "deg": t["deg"]})

    def wedge_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # the shared bucket self-merge with the CENTER as the bucket
        # key; deg rides the rows, so deg_x IS the center's degree
        # (distinct-edges input contract — multi-edges would
        # double-count wedges)
        from .dedup import _self_merge_pairs
        m = _self_merge_pairs(df[["center", "doc_id", "deg"]],
                              ["center"], cap=None)
        if m.empty:
            return pd.DataFrame({
                "a": pd.Series(dtype="int64"),
                "b": pd.Series(dtype="int64"),
                "w": pd.Series(dtype="float64"),
                "is_edge": pd.Series(dtype="int64")})
        w = 1.0 / np.log(m["deg_x"].to_numpy(dtype=np.float64))
        return pd.DataFrame({
            "a": pd.Series(m["doc_id_x"].to_numpy(), dtype="int64"),
            "b": pd.Series(m["doc_id_y"].to_numpy(), dtype="int64"),
            "w": pd.Series(w, dtype="float64"),
            "is_edge": pd.Series(np.zeros(len(m), np.int64))})

    wedges = salted_partition_apply(
        ewd.map_batches(center_rows, batch_format="pyarrow"),
        wedge_pairs,
        combine_key=_key("center"),
        n_parts=n_parts)

    # existing edges as canonical (min, max) marker rows riding the
    # same pair exchange — exact in-part exclusion
    def edge_markers(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s < d                  # bidirectional input: one copy
        return pa.table({
            "a": pa.array(s[keep]), "b": pa.array(d[keep]),
            "w": pa.array(np.zeros(int(keep.sum()), np.float64)),
            "is_edge": pa.array(np.ones(int(keep.sum()), np.int64))})

    from .dedup import _pair_ab_key

    def score_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], as_index=False).agg(
            cn=("is_edge", "size"), w=("w", "sum"),
            ne=("is_edge", "sum"))
        # marker rows inflate cn by their own count — subtract, then
        # drop adjacent pairs and pairs with no true wedge
        g["cn"] = g["cn"] - g["ne"]
        g = g[(g["ne"] == 0) & (g["cn"] > 0)]
        return pd.DataFrame({
            "a": pd.Series(g["a"].to_numpy(), dtype="int64"),
            "b": pd.Series(g["b"].to_numpy(), dtype="int64"),
            "common_neighbors": pd.Series(g["cn"].to_numpy(),
                                          dtype="int64"),
            "adamic_adar": pd.Series(
                np.round(g["w"].to_numpy(dtype=np.float64), 4),
                dtype="float64")})

    scored = salted_partition_apply(
        wedges.union(edges_ds.map_batches(edge_markers,
                                          batch_format="pyarrow")),
        score_part, _pair_ab_key, n_parts=n_parts)
    out = scored.sort(["adamic_adar", "a", "b"],
                      descending=[True, False, False]) \
        .limit(k).to_pandas()
    return out.reset_index(drop=True)


def trade_edges_sparse(sf_dir: str):
    """Bidirectional SPARSE trade graph: distinct (cust, supp) pairs
    that ever traded at quantity ≤ 2 — the tail-extreme filter the
    cyclic SCC graph uses, here symmetric. The full trade graph's hub
    suppliers make Σ deg² (the exact wedge bound of local link
    prediction) run to ~5·10^8 at sf0.1; link prediction on the RARE
    trades is both tractable at any sf and the more meaningful signal
    (shared rare suppliers, not shared commodity ones)."""
    import pyarrow.compute as pc

    return _trade_pair_edges(
        sf_dir, lambda t: _pair_rows(t.filter(
            pc.less_equal(t["l_quantity"], 2))),
        with_quantity=True, n_parts=16) \
        .map_batches(_bidir, batch_format="pyarrow")


def trade_link_prediction(sf_dir: str, k: int = 50) -> pd.DataFrame:
    """Top-k Adamic–Adar link predictions over the sparse (quantity ≤ 2)
    bidirectional trade graph: which customer pairs (or supplier pairs
    — the graph is bipartite, so every wedge candidate is same-family)
    share the most rare-trade partners. The oracle re-derives the same
    scores with a wedge self-join + degree CTE over the same filtered
    pair set. n_parts=16: the sparse graph's exchanges are fixed-cost
    bound, not volume-bound (64 parts measured ~2 s slower at sf0.1
    for identical output)."""
    return link_prediction_scores(trade_edges_sparse(sf_dir), k=k,
                                  n_parts=16)


def hyperball(edges_ds, max_t: int = 3, p: int = 12,
              n_parts: int = 16) -> pd.DataFrame:
    """HyperBall (Boldi & Vigna 2013): the neighborhood function
    N(t) = Σ_v |ball(v, t)| — the count of (source, reachable-within-t)
    pairs, self included — estimated for ALL nodes simultaneously by
    iterating per-node HLL counters against the edge Dataset. N(t)'s
    90% crossing is the standard effective-diameter statistic of a web
    host graph. Returns pandas (t, pairs_est:float64) for t = 1..max_t
    (early-stops when every ball has converged).

    Scale shape: counters live as a (node, regs:binary) Dataset (2^p
    bytes each); per iteration ONE hash_join ships each dst-counter to
    its in-edges' sources, a per-batch register-max partial collapses
    per src, and one salted node-keyed exchange max-merges partials
    WITH the previous counters riding along (self-inclusion and union
    in the same exchange — register-wise max IS HLL union). The driver
    sees per-iteration scalars (the N(t) sums). Per-iteration exchange
    volume is edge-scaled × 2^p bytes — the HyperBall cost model; at
    web scale run p = 6-8 (64-256 B counters, ~4-7% σ), p = 12 here
    so the registry gate can pin a ±5% tolerance."""
    from .join import hash_join
    from .shuffle import salted_partition_apply
    from .sketch import _bucket_ranks, hll_estimate

    m = 1 << p
    edges_ds = edges_ds.materialize()
    if edges_ds.count() == 0:
        return pd.DataFrame({"t": pd.Series(dtype="int64"),
                             "pairs_est": pd.Series(dtype="float64")})

    def init_rows(t: pa.Table) -> pa.Table:
        node = _ids(t, "node")
        b, r = _bucket_ranks(node, p)
        regs = np.zeros((node.size, m), np.uint8)
        regs[np.arange(node.size), b] = r
        return pa.table({
            "node": pa.array(node),
            "regs": pa.array([row.tobytes() for row in regs],
                             pa.binary())})

    counters = _distinct_nodes(edges_ds, n_parts=n_parts) \
        .map_batches(init_rows, batch_format="pyarrow") \
        .repartition(n_parts).materialize()

    def est_sum(ds) -> float:
        def partial(t: pa.Table) -> pa.Table:
            s = sum(hll_estimate(np.frombuffer(b, np.uint8))
                    for b in t["regs"].to_pylist())
            return pa.table({"s": pa.array([float(s)], pa.float64())})
        return float(ds.map_batches(partial, batch_format="pyarrow")
                     .sum("s") or 0.0)

    def max_by_node(nodes_arr: np.ndarray, regs_list) -> tuple:
        """Vectorized register-wise max per node: stack, sort by node,
        maximum.reduceat at group starts."""
        stack = np.stack([np.frombuffer(b, np.uint8)
                          for b in regs_list])
        order = np.argsort(nodes_arr, kind="stable")
        ns, st = nodes_arr[order], stack[order]
        starts = _starts(ns)
        return ns[starts], np.maximum.reduceat(st, starts, axis=0)

    out_t, out_est = [], []
    prev = est_sum(counters)
    for t_ in range(1, max_t + 1):
        shipped = hash_join(
            edges_ds,
            _arrow_rename(counters, {"node": "dst"}),
            on="dst", how="inner", n_parts=n_parts)

        def src_partial(tb: pa.Table) -> pa.Table:
            src = tb["src"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if src.size == 0:
                return pa.table({"node": pa.array([], pa.int64()),
                                 "regs": pa.array([], pa.binary())})
            ns, mx = max_by_node(src, tb["regs"].to_pylist())
            return pa.table({
                "node": pa.array(ns, pa.int64()),
                "regs": pa.array([row.tobytes() for row in mx],
                                 pa.binary())})

        def merge_part(df: pd.DataFrame) -> pd.DataFrame:
            ns, mx = max_by_node(
                df["node"].to_numpy().astype(np.int64),
                list(df["regs"]))
            return pd.DataFrame({
                "node": pd.Series(ns, dtype="int64"),
                "regs": [row.tobytes() for row in mx]})

        counters = salted_partition_apply(
            shipped.map_batches(src_partial, batch_format="pyarrow")
            .union(counters),
            merge_part, _key("node"), n_parts=n_parts) \
            .repartition(n_parts).materialize()
        cur = est_sum(counters)
        out_t.append(t_)
        out_est.append(cur)
        if abs(cur - prev) < 1e-9:        # every ball converged
            break
        prev = cur
    return pd.DataFrame({"t": pd.Series(out_t, dtype="int64"),
                         "pairs_est": pd.Series(out_est,
                                                dtype="float64")})


def _exact_neighborhood_pairs(edges: pd.DataFrame,
                              max_t: int) -> list[int]:
    """Exact N(t) for t = 1..max_t on a DRIVER-COLLECTED edge frame —
    the truth-set recount behind the hyperball registry gate (clearly
    labeled: graph-scaled driver memory, test/gate scales only).
    Packed-bitmap closure: ball(t+1)[v] = ball(t)[v] | OR over
    out-neighbors u of ball(t)[u], via one unbuffered bitwise_or.at
    per round."""
    nodes = np.unique(np.concatenate([
        edges["src"].to_numpy(), edges["dst"].to_numpy()])
        .astype(np.int64))
    n = nodes.size
    si = np.searchsorted(nodes, edges["src"].to_numpy().astype(np.int64))
    di = np.searchsorted(nodes, edges["dst"].to_numpy().astype(np.int64))
    nb = (n + 7) // 8
    ball = np.zeros((n, nb), np.uint8)
    idx = np.arange(n)
    ball[idx, idx >> 3] |= (1 << (idx & 7)).astype(np.uint8)
    popcnt = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1).sum(axis=1)
    out = []
    for _ in range(max_t):
        nxt = ball.copy()
        np.bitwise_or.at(nxt, si, ball[di])
        ball = nxt
        out.append(int(popcnt[ball].sum()))
    return out


def trade_edges_cyclic(sf_dir: str):
    """Sparse DIRECTED trade graph with real cycles: cust→supp for
    distinct pairs that ever traded at quantity ≤ 2, supp→cust for
    quantity ≥ 49 (the tail extremes, so the graph is sparse enough
    for non-trivial SCC structure — one big component + a DAG fringe
    at the test scales, re-derived verbatim by the SQL oracle)."""

    def edge_rows(t: pa.Table) -> pa.Table:
        c = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64) * 2
        s = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64) * 2 + 1
        q = t["l_quantity"].to_numpy(zero_copy_only=False)
        lo = q <= 2
        hi = q >= 49
        return pa.table({
            "src": pa.array(np.concatenate([c[lo], s[hi]]), pa.int64()),
            "dst": pa.array(np.concatenate([s[lo], c[hi]]), pa.int64())})

    return _trade_pair_edges(sf_dir, edge_rows, with_quantity=True)


def trade_scc(sf_dir: str) -> pd.DataFrame:
    """SCC decomposition of the cyclic trade graph; scc_id = max node
    id of the component (coloring root), matching the recursive-CTE
    mutual-reachability oracle re-keyed to the max."""
    return strongly_connected_components(trade_edges_cyclic(sf_dir))


# --- host-level link graph from a pages table --------------------------------


def host_link_edges(pages_ds, url_col: str = "url",
                    html_col: str = "html", n_parts: int = 16):
    """Distinct (src_host, dst_host) edges from the pages table's
    anchor walk (the SAME harvest+absolutize path the anchor-text gate
    pins byte-exact against a DuckDB regexp re-derivation) —
    self-loops dropped. Per-batch distinct combiner where the html
    lives, then ONE salted exchange keyed on the pair hash; html never
    re-ships."""
    from ..functions.dom import fromstring
    from ..functions.extract import harvest_anchors_from_doc
    from .shuffle import salted_partition_apply

    def _host(u: str) -> str:
        parts = u.split("/")
        return parts[2] if len(parts) > 2 and "://" in u else ""

    def harvest(t: pa.Table) -> pa.Table:
        src: list[str] = []
        dst: list[str] = []
        for url, html in zip(t[url_col].to_pylist(),
                             t[html_col].to_pylist()):
            sh = _host(url)
            if not sh:
                continue
            try:
                doc = fromstring(html)
            except Exception:
                continue
            for d, _txt in harvest_anchors_from_doc(doc, url):
                dh = _host(d)
                if dh and dh != sh:
                    src.append(sh)
                    dst.append(dh)
        df = pd.DataFrame({"src_host": src, "dst_host": dst}) \
            .drop_duplicates()
        # explicit string schema: an anchor-free batch would otherwise
        # emit an empty frame Arrow infers as DOUBLE columns, and the
        # downstream exchange dies unifying double vs string blocks
        # (review finding)
        return pa.table({
            "src_host": pa.array(df["src_host"].tolist(), pa.string()),
            "dst_host": pa.array(df["dst_host"].tolist(), pa.string())})

    def pair_key(t: pa.Table) -> np.ndarray:
        a = pd.util.hash_array(
            t["src_host"].to_numpy(zero_copy_only=False))
        b = pd.util.hash_array(
            t["dst_host"].to_numpy(zero_copy_only=False))
        return (a * np.uint64(1000003) + b).view(np.int64)

    return salted_partition_apply(
        pages_ds.map_batches(harvest, batch_format="pyarrow"),
        lambda df: df.drop_duplicates(), pair_key, n_parts=n_parts)


def host_rank_for_docs(pages_ds, damping: float = 0.85, iters: int = 3):
    """Domain-reputation weighting — the webtext curation composition:
    host link graph off the anchor walk → PageRank over hosts (full
    dangling handling; hosts linked-to but never crawled are real
    sinks) → every page annotated with its host's rank. Hosts are
    node-scaled by definition (|hosts| ≪ |pages|), so the id map and
    the rank lookup broadcast; the pages table streams through one
    map_batches for the final annotate. Returns a Dataset of
    (url, host, host_rank)."""
    import ray

    edges = host_link_edges(pages_ds).to_pandas().drop_duplicates()
    hosts = np.unique(np.concatenate(
        [edges["src_host"].to_numpy(), edges["dst_host"].to_numpy()]))
    hid = {h: i for i, h in enumerate(hosts)}
    import ray.data as rd
    eds = rd.from_pandas(pd.DataFrame({
        "src": edges["src_host"].map(hid).astype("int64"),
        "dst": edges["dst_host"].map(hid).astype("int64")}))
    pr = pagerank(eds, damping=damping, iters=iters)
    rank_of = dict(zip(hosts[pr["node_id"].to_numpy()],
                       pr["score"].to_numpy()))
    ref = ray.put(rank_of)

    def annotate(t: pa.Table) -> pa.Table:
        ro = ray.get(ref)
        urls = t["url"].to_pylist()
        hs = [u.split("/")[2] if "://" in u else "" for u in urls]
        rk = [float(ro.get(h, 0.0)) for h in hs]
        return pa.table({"url": t["url"],
                         "host": pa.array(hs, pa.string()),
                         "host_rank": pa.array(rk, pa.float64())})

    # project BEFORE the annotate stage so html never crosses the
    # map boundary a second time (review finding: the in-lambda
    # select still paid the blob deserialization)
    return pages_ds.select_columns(["url"]) \
        .map_batches(annotate, batch_format="pyarrow")


def _arrow_rename(ds, mapping: dict):
    """Rename Dataset columns via an arrow map — the shared workaround
    for Dataset.rename_columns' Project stage rejecting the pandas
    blocks exchanges emit (Ray 2.49); previously re-implemented inline
    at each site (review finding)."""
    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [mapping.get(c, c) for c in t.column_names])
    return ds.map_batches(fn, batch_format="pyarrow")


def label_propagation(edges_ds, iters: int = 4,
                      n_parts: int = 64,
                      node_broadcast_limit: int = 500_000):
    """Community detection by synchronous label propagation (Raghavan
    et al. 2007), made deterministic: every node votes its CURRENT
    label for itself and for each neighbor, and each node adopts the
    plurality label with the tie-break (count desc, label asc). The
    self-vote keeps singleton-phase ties anchored, so dense groups
    converge to their min node id while sparse bridges heal back (a
    leaked label loses the plurality vote on the next round) — unlike
    min-label propagation, which IS connected components and floods
    through every bridge.

    ``edges_ds`` must be SYMMETRIC (src, dst) int64 — the same contract
    as `pagerank` — so dst alone covers every node (the node universe);
    a src outside it casts no vote. Fixed ``iters`` synchronous rounds
    (the planted-gate suite converges in 2; the deterministic rule
    cannot oscillate once votes are stable, and fixed rounds keep the
    oracle re-derivable). Each round is one vote step (module
    docstring); above ``node_broadcast_limit`` nodes the votes count in
    a dst-keyed salted exchange where the node lives. Returns a Dataset
    (node, label)."""
    g = _graph(edges_ds, node_broadcast_limit, cols=("dst",),
               n_parts=n_parts)
    st = g.apply(g.nodes, lambda b: {"label": b["node"]})
    for _ in range(iters):
        st = g.step(st, {"label": ("dst", lambda e: e["label"], _VOTE)},
                    reads=("label",))
    return g.dataset(st, ["node", "label"])


def shortest_paths(edges_ds, sources: list[int], max_hops: int = 3,
                   n_parts: int = 32,
                   node_broadcast_limit: int = 500_000) -> pd.DataFrame:
    """Bounded-hop weighted shortest paths (Bellman–Ford relaxation
    rounds) over a weighted edge Dataset (src:int64, dst:int64,
    w:int64): dist(v) = MIN total weight over paths of ≤ ``max_hops``
    edges from any source (sources at 0). The cost-aware sibling of
    ``bfs_hops`` — crawl-budget routing and host-proximity features
    where edges carry latency/politeness cost rather than unit hops.

    Each round is one min-relaxation step (module docstring) from the
    reached nodes; with integer weights the min-fold is exact (no float
    summation-order noise). The node universe includes every source,
    so an edge-less source still gets its dist-0 row."""
    src_ids = np.unique(np.asarray(sources, dtype=np.int64))
    if src_ids.size == 0:
        raise ValueError("shortest_paths needs at least one source")
    inf = np.int64(np.iinfo(np.int64).max // 4)
    g = _graph(edges_ds, node_broadcast_limit, weight="w", extra=src_ids,
               n_parts=n_parts)

    def relax(e: dict) -> np.ndarray:
        return np.where(e["dist"] < inf, e["dist"] + e["weight"].astype(
            np.int64), _MIN[1])

    st = g.apply(g.nodes, lambda b: {
        "dist": np.where(np.isin(b["node"], src_ids), 0, inf)})
    for _ in range(max_hops):
        st = g.step(st, {"m": ("dst", relax, _MIN)},
                    lambda b: {"dist": np.minimum(b["dist"], b["m"])},
                    reads=("dist",))
    out = g.frame(st, node_id="node", dist="dist")
    return out[out["dist"] < inf].reset_index(drop=True)


def trade_weighted_edges(sf_dir: str):
    """The bidirectional trade graph with a deterministic symmetric
    integer weight per edge: w = (src + dst) % 7 + 1 — pure arithmetic
    on the node encoding so the SQL oracle derives the SAME weights
    independently (no shipped lookup to trust)."""
    edges = trade_edges(sf_dir)

    def weigh(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"src": t["src"], "dst": t["dst"],
                         "w": pa.array((s + d) % 7 + 1, pa.int64())})

    return edges.map_batches(weigh, batch_format="pyarrow")


def trade_shortest_paths(sf_dir: str, max_hops: int = 3) -> pd.DataFrame:
    """Min-cost distances over the weighted trade graph from the two
    smallest node ids (same deterministic seed pick as ``trade_bfs``).
    With weights in 1..7 the 3-hop min-COST route often differs from
    the 1-hop route BFS would report — the oracle's chained per-round
    min-relaxation CTEs check exactly that."""
    edges = trade_weighted_edges(sf_dir).materialize()
    return shortest_paths(edges, _two_smallest_src(edges),
                          max_hops=max_hops)


def _walks_csr(edges_ds):
    """Collect a deduped edge Dataset into CSR arrays (sorted unique
    src, neighbor offsets, dst) — the broadcast form of a graph.
    Edge-scaled on the driver; callers guard with an edge-count
    switch."""
    df = edges_ds.to_pandas()
    src = df["src"].to_numpy(np.int64)
    dst = df["dst"].to_numpy(np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    nodes, starts_idx = np.unique(src, return_index=True)
    offsets = np.append(starts_idx, src.size)
    return nodes, offsets, dst


def _walk_hash(walk_id: int, step: int, dst: np.ndarray) -> np.ndarray:
    """md5_number_lower(walk#step#dst) per candidate — bit-compatible
    with DuckDB (little-endian LAST 8 digest bytes), so the oracle's
    max_by re-derives every step."""
    import hashlib

    out = np.empty(dst.size, np.uint64)
    prefix = f"{walk_id}#{step}#".encode()
    for j in range(dst.size):
        d = hashlib.md5(prefix + str(dst[j]).encode()).digest()
        out[j] = int.from_bytes(d[8:], "little")
    return out


def walk_corpus(edges_ds, starts_ds, walk_len: int = 3,
                edge_broadcast_limit: int = 5_000_000,
                n_parts: int = 32) -> pd.DataFrame:
    """Deterministic 'random'-walk corpus over a deduped edge Dataset —
    the node2vec/DeepWalk input generator, RNG-free so it is resumable
    and SQL-checkable: from each start node one walk of ``walk_len``
    steps, where step s of walk w moves to the out-neighbor d
    maximizing md5(w#s#d) — a hash-rank choice that is uniform over
    neighbors yet reproducible anywhere (the same
    Efraimidis-Spirakis-style trick as `weighted_sample_topk`). A walk
    ends early at a dead-end node. Returns (walk_id, step, node) rows,
    step 0 = the start.

    Two physical paths (the pagerank/LPA switch): under
    ``edge_broadcast_limit`` edges the graph broadcasts once as CSR
    arrays and each WALK block advances all its walks locally per step
    (walks are the data-parallel axis; zero exchanges). Above it, each
    step ships the frontier through one hash_join on src and one
    walk-keyed salted argmax exchange — nothing edge-scaled on the
    driver. Path parity is pinned in pytest with a forced-zero limit."""
    import ray

    from .join import adaptive_join
    from .shuffle import salted_partition_apply

    # global distinct on walk ids FIRST: duplicate starts would make
    # the two physical paths diverge (CSR loops per row, the exchange
    # argmax collapses per walk_id — review finding)
    def start_ids(t: pa.Table) -> pa.Table:
        u = np.unique(t["walk_id"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"walk_id": pa.array(u, pa.int64())})

    starts_ds = salted_partition_apply(
        starts_ds.map_batches(start_ids, batch_format="pyarrow"),
        lambda df: df.drop_duplicates("walk_id"),
        combine_key=_key("walk_id"),
        n_parts=min(n_parts, 16))

    edges_ds = edges_ds.materialize()
    if edges_ds.count() <= edge_broadcast_limit:
        csr = ray.put(_walks_csr(edges_ds))

        def advance(t: pa.Table) -> pa.Table:
            nodes, offsets, dst = ray.get(csr)
            walks = t["walk_id"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            out_w, out_s, out_n = [], [], []
            for w in walks:
                cur = w
                out_w.append(w); out_s.append(0); out_n.append(cur)
                for s in range(1, walk_len + 1):
                    i = int(np.searchsorted(nodes, cur))
                    if i >= nodes.size or nodes[i] != cur:
                        break               # dead end
                    nb = dst[offsets[i]:offsets[i + 1]]
                    hv = _walk_hash(int(w), s, nb)
                    cur = int(nb[int(np.argmax(hv))])
                    out_w.append(w); out_s.append(s); out_n.append(cur)
            return pa.table({
                "walk_id": pa.array(np.asarray(out_w, np.int64)),
                "step": pa.array(np.asarray(out_s, np.int64)),
                "node": pa.array(np.asarray(out_n, np.int64))})

        out = starts_ds.map_batches(advance, batch_format="pyarrow") \
            .to_pandas()
        return out.sort_values(["walk_id", "step"]) \
            .reset_index(drop=True)

    # exchange path: frontier through hash_join + walk-keyed argmax
    def as_frontier(t: pa.Table) -> pa.Table:
        return pa.table({"walk_id": t["walk_id"],
                         "src": t["walk_id"]})

    frontier = starts_ds.map_batches(as_frontier,
                                     batch_format="pyarrow")
    rows = [starts_ds.map_batches(
        lambda t: pa.table({
            "walk_id": t["walk_id"],
            "step": pa.array(np.zeros(len(t), np.int64)),
            "node": t["walk_id"]}),
        batch_format="pyarrow").to_pandas()]

    for s in range(1, walk_len + 1):
        # frontier is walk-scaled (≪ edges): adaptive_join broadcasts
        # it and STREAMS the edge side — reshuffling all |E| rows
        # through a hash_join exchange per step was the review finding
        cand = adaptive_join(edges_ds, frontier, on="src",
                             n_parts=n_parts)

        def pick(df: pd.DataFrame, _s=s) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame({"walk_id": [], "src": []}) \
                    .astype({"walk_id": "int64", "src": "int64"})
            parts = []
            for w, g in df.groupby("walk_id", sort=False):
                nb = g["dst"].to_numpy(np.int64)
                hv = _walk_hash(int(w), _s, nb)
                parts.append((w, int(nb[int(np.argmax(hv))])))
            return pd.DataFrame(parts, columns=["walk_id", "src"])

        frontier = salted_partition_apply(
            cand, pick,
            combine_key=_key("walk_id"),
            n_parts=n_parts).materialize()
        step_df = frontier.to_pandas()
        if step_df.empty:
            break
        rows.append(pd.DataFrame({
            "walk_id": step_df["walk_id"].astype("int64"),
            "step": np.int64(s),
            "node": step_df["src"].astype("int64")}))

    out = pd.concat(rows, ignore_index=True)
    return out.sort_values(["walk_id", "step"]).reset_index(drop=True)


def trade_walk_corpus(sf_dir: str, walk_len: int = 3,
                      **kw) -> pd.DataFrame:
    """Walks from every 10th customer node over the bidirectional trade
    graph (walk_id = the start node id — unique by construction)."""
    import ray.data as rd

    edges = trade_edges(sf_dir).materialize()   # starts + walks share it

    def starts_of(t: pa.Table) -> pa.Table:
        s = np.unique(t["src"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        s = s[(s % 2 == 0) & ((s // 2) % 10 == 0)]   # every 10th cust
        return pa.table({"walk_id": pa.array(s, pa.int64())})

    starts = np.unique(
        edges.map_batches(starts_of, batch_format="pyarrow")
        .to_pandas()["walk_id"].to_numpy(np.int64))
    starts_ds = rd.from_pandas(pd.DataFrame({"walk_id": starts}))
    return walk_corpus(edges, starts_ds, walk_len=walk_len, **kw)
