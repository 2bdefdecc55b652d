(** Batched, sharded construction of remote-spanners at scale.

    Every construction in this library is a union of per-root
    dominating trees. This module replaces the root-at-a-time loop
    with three coordinated mechanisms (see docs/PERFORMANCE.md,
    "Scaling"):

    - roots are traversed [Rs_graph.Msbfs.width] at a time by the
      bit-parallel multi-source BFS, in a locality order that makes
      each batch's balls overlap;
    - batches are fanned over domains by the work-stealing {!drive};
    - each domain emits canonical edge ids into a flat int
      accumulator, merged once into the result set — no O(n) [Tree.t]
      per root, no per-tree [Edge_set.t].

    The resulting edge set is {e identical} to the sequential
    per-root reference for every strategy, domain count, batch size
    and root order (QCheck-asserted): trees depend only on their
    root's ball and every tie-break is by vertex id. In the default
    (global) mode the [core/trees_built], [bfs/runs] and
    [bfs/expansions] totals also match the sequential run exactly. *)

open Rs_graph

(** Which per-root tree to build: [Gdy] = Algorithm 1
    ({!Dom_tree.gdy}), [Mis] = Algorithm 2 ({!Dom_tree.mis}),
    [Gdy_k] = Algorithm 4 ({!Dom_tree_k.gdy_k}), [Mis_k] = Algorithm 5
    ({!Dom_tree_k.mis_k}). [Mis_k] roots are not batched through the
    multi-source BFS: each runs {!Dom_tree_k.mis_k_edges} on its own
    radius-2 traversal (fanned over domains and merged like the rest),
    in vertex-id order unless [?order] is given, and each domain holds
    only a traversal scratch, not the O(n) batch arrays the other
    strategies allocate; [?local] has no effect on it. *)
type strategy =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

val default_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val drive :
  ?chunk:int -> n:int -> domains:int -> stop:(unit -> bool) ->
  ((unit -> (int * int) option) -> int) -> unit
(** Work-stealing scheduler over the range [0, n): each of [domains]
    domains (the calling one included) runs the worker with a [claim]
    function handing out inclusive chunks until the range is empty or
    [stop ()] is true; the worker returns its item count, recorded
    with the domain's wall time in the [parallel/domain_items] and
    [parallel/domain_wall_s] histograms. [~chunk] overrides the
    auto-sized chunk (use [1] when each index is already a coarse unit
    of work). *)

val locality_order : Graph.t -> int array
(** Multi-restart BFS visit order: a permutation in which consecutive
    vertices are graph-close, so a batch of [Msbfs.width] consecutive
    roots has overlapping balls. The default order of {!build}.
    Not recorded as a bfs/runs traversal. *)

val build :
  ?domains:int ->
  ?order:int array ->
  ?chunk:int ->
  ?local:bool ->
  Graph.t ->
  strategy ->
  Edge_set.t
(** [build g strat] is the union of [strat]'s dominating trees over
    all roots — the same edge set as
    [Remote_spanner.union_trees g (tree_of strat)], built batched and
    sharded. [?domains] defaults to {!default_domains} (forced to 1
    below 64 vertices); [?order] overrides the root order (a
    permutation of the vertex range — e.g.
    [Rs_geometry.Proximity.grid_order] for geometric graphs, any
    hash-bucket order for Gnp; affects only performance, never the
    result); [?chunk] caps the batch width (default and maximum
    [Msbfs.width]).

    [?local:true] additionally materializes, per batch, the induced
    sub-graph on the batch's roots plus a [(radius-1)]-halo and runs
    the batch against that shard. Roots whose traversal stayed clear
    of the shard fringe are emitted locally; clipped roots are re-run
    against the host graph in a final boundary-repair pass. Same edge
    set, but traversal metrics count the local re-runs, so local mode
    trades the sequential metric parity for shard-sized working sets.
    Raises [Invalid_argument] on invalid strategy parameters or an
    [order] that is not a permutation of [0 .. n-1] (wrong length,
    out-of-range entry, or duplicate). *)
