"""Query profiles: staged, cost-annotated descriptions of executed plans.

The profiler walks a logical plan once, **really evaluating** every node on
the generated data, and emits a sequence of :class:`StageProfile` records —
the MAL-like horizontal-parallelism stages MonetDB would run (compare the
paper's Fig 3/6).  Each stage knows:

* which **base columns** it scans (page footprints come from the BATs),
* which earlier stages' **intermediates** it consumes (partitioned) and
  which it reads **fully per worker** (shared hash tables),
* its **output bytes** (from the real intermediate sizes, scaled to the
  simulated database size) and **compute cycles**.

Profiles are independent of the worker count, so one profile per query is
computed once and reused by every client; the compiler in
:mod:`repro.db.cost` instantiates it for a concrete number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlanError
from ..units import left_sum
from .catalog import Catalog
from .cost import CostModel
from .operators import (Aggregate, Distinct, Filter, IndexLookup, Join,
                        Limit, OrderBy, PlanNode, Project, Relation, Scan,
                        relation_bytes, relation_rows)


@dataclass(frozen=True)
class StageProfile:
    """One horizontally parallel (or serial) execution stage.

    ``point_reads`` carries index-style accesses: ``(table, column,
    row_fraction, n_pages)`` entries the compiler resolves to a few
    concrete pages instead of a partitioned column stream.
    """

    label: str
    parallel: bool = True
    base_reads: tuple[tuple[str, str], ...] = ()
    point_reads: tuple[tuple[str, str, float, int], ...] = ()
    consumes: tuple[int, ...] = ()
    shared_consumes: tuple[int, ...] = ()
    output_bytes: float = 0.0
    output_per_worker: bool = False
    cycles: float = 0.0


@dataclass
class QueryProfile:
    """A fully profiled query, ready for compilation into work items."""

    name: str
    stages: list[StageProfile]
    result: Relation
    result_rows: int
    input_sim_bytes: float = 0.0

    @property
    def total_cycles(self) -> float:
        """Total compute across all stages."""
        return left_sum(s.cycles for s in self.stages)


class _Out:
    """Profiler bookkeeping for one evaluated node."""

    __slots__ = ("producer", "table", "rel", "sim_bytes")

    def __init__(self, producer: int | None, table: str | None,
                 rel: Relation, sim_bytes: float):
        self.producer = producer
        self.table = table
        self.rel = rel
        self.sim_bytes = sim_bytes


class Profiler:
    """Evaluates a plan tree and produces its :class:`QueryProfile`."""

    def __init__(self, catalog: Catalog, byte_scale: float,
                 cost: CostModel | None = None):
        if byte_scale <= 0:
            raise PlanError("byte_scale must be positive")
        self.catalog = catalog
        self.byte_scale = byte_scale
        self.cost = cost or CostModel()
        self._stages: list[StageProfile] = []
        self._input_sim_bytes = 0.0

    # ------------------------------------------------------------------

    def profile(self, root: PlanNode, name: str) -> QueryProfile:
        """Run the tree and emit the staged profile."""
        self._stages = []
        self._input_sim_bytes = 0.0
        out = self._walk(root)
        if out.producer is None:
            # bare table scan as a query: materialise it through one stage
            out = self._stage_for_passthrough(out)
        self._stages.append(StageProfile(
            label="sql.resultSet", parallel=False,
            consumes=(out.producer,),
            output_bytes=0.0,
            cycles=self.cost.result_cycles(out.sim_bytes)))
        return QueryProfile(
            name=name,
            stages=self._stages,
            result=out.rel,
            result_rows=relation_rows(out.rel),
            input_sim_bytes=self._input_sim_bytes,
        )

    # ------------------------------------------------------------------

    def _emit(self, stage: StageProfile) -> int:
        self._stages.append(stage)
        return len(self._stages) - 1

    def _sim_bytes(self, rel: Relation) -> float:
        return relation_bytes(rel) * self.byte_scale

    def _inputs_of(self, out: _Out,
                   columns: set[str]) -> tuple[tuple, tuple, float]:
        """Resolve one child as (base_reads, consumes, input_sim_bytes)."""
        if out.producer is None:
            table = self.catalog.table(out.table)
            cols = tuple(sorted(c for c in columns if c in table))
            if not cols:
                # predicate-less passthrough: read every scanned column
                cols = tuple(sorted(out.rel))
            reads = tuple((out.table, c) for c in cols)
            sim = sum(table.bat(c).sim_bytes for _, c in reads)
            self._input_sim_bytes += sim
            return reads, (), sim
        return (), (out.producer,), out.sim_bytes

    def _walk(self, node: PlanNode) -> _Out:
        handler = _HANDLERS.get(type(node))
        if handler is None:
            raise PlanError(f"cannot profile node type {type(node).__name__}")
        child_outs = [self._walk(child) for child in node.children()]
        return handler(self, node, child_outs)

    # ------------------------------------------------------------------
    # per-node handlers
    # ------------------------------------------------------------------

    def _on_scan(self, node: Scan, child_outs) -> _Out:
        rel = node.compute([], self.catalog)
        return _Out(None, node.table, rel, self._sim_bytes(rel))

    def _on_index_lookup(self, node: IndexLookup, child_outs) -> _Out:
        rel = node.compute([], self.catalog)
        fraction = node.match_fraction(self.catalog)
        table = self.catalog.table(node.table)
        columns = sorted(set(rel) | {node.key_column})
        columns = [c for c in columns if c in table]
        point_reads = tuple(
            (node.table, column, fraction, 1) for column in columns)
        out_bytes = self._sim_bytes(rel)
        idx = self._emit(StageProfile(
            label=getattr(node, "mal_name", "index.lookup"),
            parallel=False,
            point_reads=point_reads,
            output_bytes=out_bytes,
            cycles=self.cost.index_lookup_cycles()))
        return _Out(idx, None, rel, out_bytes)

    def _stage_for_passthrough(self, out: _Out) -> _Out:
        reads, consumes, sim = self._inputs_of(out, set(out.rel))
        idx = self._emit(StageProfile(
            label="algebra.projection", base_reads=reads, consumes=consumes,
            output_bytes=self._sim_bytes(out.rel),
            cycles=self.cost.project_cycles(sim)))
        return _Out(idx, None, out.rel, self._sim_bytes(out.rel))

    def _on_filter(self, node: Filter, child_outs) -> _Out:
        child = child_outs[0]
        rel = node.compute([child.rel], self.catalog)
        needed = set(node.predicate.columns())
        if node.keep is not None:
            needed |= set(node.keep)
        else:
            needed |= set(child.rel)
        reads, consumes, sim = self._inputs_of(child, needed)
        out_bytes = self._sim_bytes(rel)
        idx = self._emit(StageProfile(
            label=getattr(node, "mal_name", "algebra.select"),
            base_reads=reads, consumes=consumes,
            output_bytes=out_bytes,
            cycles=self.cost.select_cycles(sim)))
        return _Out(idx, None, rel, out_bytes)

    def _on_project(self, node: Project, child_outs) -> _Out:
        child = child_outs[0]
        rel = node.compute([child.rel], self.catalog)
        needed = set()
        for expr in node.outputs.values():
            needed |= expr.columns()
        reads, consumes, sim = self._inputs_of(child, needed)
        out_bytes = self._sim_bytes(rel)
        idx = self._emit(StageProfile(
            label=getattr(node, "mal_name", "algebra.projection"),
            base_reads=reads, consumes=consumes,
            output_bytes=out_bytes,
            cycles=self.cost.project_cycles(sim)))
        return _Out(idx, None, rel, out_bytes)

    def _on_join(self, node: Join, child_outs) -> _Out:
        left, right = child_outs
        rel = node.compute([left.rel, right.rel], self.catalog)
        # build side: hash the right input
        build_needed = set(node.right_keys)
        if node.how in ("inner", "left"):
            keep_right = (node.keep_right if node.keep_right is not None
                          else [c for c in right.rel
                                if c not in node.right_keys])
            build_needed |= set(keep_right)
        b_reads, b_consumes, b_sim = self._inputs_of(right, build_needed)
        hash_bytes = self.cost.hash_table_bytes(b_sim)
        build_idx = self._emit(StageProfile(
            label=getattr(node, "mal_name_build", "join.build"),
            base_reads=b_reads, consumes=b_consumes,
            output_bytes=hash_bytes,
            cycles=self.cost.join_build_cycles(b_sim)))
        # probe side
        probe_needed = set(node.left_keys)
        probe_needed |= set(node.keep_left if node.keep_left is not None
                            else list(left.rel))
        p_reads, p_consumes, p_sim = self._inputs_of(left, probe_needed)
        out_bytes = self._sim_bytes(rel)
        probe_idx = self._emit(StageProfile(
            label=getattr(node, "mal_name", "algebra.join"),
            base_reads=p_reads, consumes=p_consumes,
            shared_consumes=(build_idx,),
            output_bytes=out_bytes,
            cycles=self.cost.join_probe_cycles(p_sim, hash_bytes)))
        return _Out(probe_idx, None, rel, out_bytes)

    def _group_like(self, node, child_outs, needed: set[str],
                    rel: Relation, label: str) -> _Out:
        child = child_outs[0]
        reads, consumes, sim = self._inputs_of(child, needed)
        out_bytes = self._sim_bytes(rel)
        partial_idx = self._emit(StageProfile(
            label=f"{label}.partial",
            base_reads=reads, consumes=consumes,
            output_bytes=out_bytes, output_per_worker=True,
            cycles=self.cost.agg_cycles(sim)))
        final_idx = self._emit(StageProfile(
            label=f"{label}.final", parallel=False,
            consumes=(partial_idx,),
            output_bytes=out_bytes,
            cycles=self.cost.agg_final_cycles(out_bytes)))
        return _Out(final_idx, None, rel, out_bytes)

    def _on_aggregate(self, node: Aggregate, child_outs) -> _Out:
        child = child_outs[0]
        rel = node.compute([child.rel], self.catalog)
        needed = set(node.group_by)
        for _, expr in node.aggs.values():
            if expr is not None:
                needed |= expr.columns()
        label = getattr(node, "mal_name", "aggr.group")
        return self._group_like(node, child_outs, needed, rel, label)

    def _on_distinct(self, node: Distinct, child_outs) -> _Out:
        child = child_outs[0]
        rel = node.compute([child.rel], self.catalog)
        label = getattr(node, "mal_name", "algebra.unique")
        return self._group_like(node, child_outs, set(node.columns), rel,
                                label)

    def _on_orderby(self, node: OrderBy, child_outs) -> _Out:
        child = child_outs[0]
        rel = node.compute([child.rel], self.catalog)
        needed = set(child.rel)
        reads, consumes, sim = self._inputs_of(child, needed)
        rows = max(relation_rows(child.rel), 2)
        out_bytes = self._sim_bytes(rel)
        partial_idx = self._emit(StageProfile(
            label="algebra.sort.partial",
            base_reads=reads, consumes=consumes,
            output_bytes=out_bytes, output_per_worker=True,
            cycles=self.cost.sort_cycles(sim, rows)))
        final_idx = self._emit(StageProfile(
            label="algebra.sort.merge", parallel=False,
            consumes=(partial_idx,),
            output_bytes=out_bytes,
            cycles=self.cost.agg_final_cycles(out_bytes)))
        return _Out(final_idx, None, rel, out_bytes)

    def _on_limit(self, node: Limit, child_outs) -> _Out:
        child = child_outs[0]
        rel = node.compute([child.rel], self.catalog)
        if child.producer is None:
            child = self._stage_for_passthrough(child)
        out_bytes = self._sim_bytes(rel)
        idx = self._emit(StageProfile(
            label="algebra.slice", parallel=False,
            consumes=(child.producer,),
            output_bytes=out_bytes,
            cycles=self.cost.result_cycles(out_bytes)))
        return _Out(idx, None, rel, out_bytes)


_HANDLERS = {
    Scan: Profiler._on_scan,
    IndexLookup: Profiler._on_index_lookup,
    Filter: Profiler._on_filter,
    Project: Profiler._on_project,
    Join: Profiler._on_join,
    Aggregate: Profiler._on_aggregate,
    Distinct: Profiler._on_distinct,
    OrderBy: Profiler._on_orderby,
    Limit: Profiler._on_limit,
}


def profile_query(root: PlanNode, catalog: Catalog, name: str,
                  byte_scale: float,
                  cost: CostModel | None = None) -> QueryProfile:
    """Convenience wrapper: profile ``root`` in one call."""
    return Profiler(catalog, byte_scale, cost).profile(root, name)
