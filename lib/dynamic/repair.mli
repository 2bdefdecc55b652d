(** Incremental spanner repair under topology deltas.

    The paper's locality promise (Propositions 1 and 5) made
    operational: a node's dominating tree is a function of its bounded
    neighborhood only — radius [max r (r-1+beta)] for the Prop.-1 tree
    families, radius 2 for the (2,0)/(2,1) k-connecting star families —
    so when a delta touches the topology, only the roots whose
    {e relevant neighborhood} (in the old {e or} the new graph)
    intersects the changed edges need their trees recomputed. [Repair]
    maintains the full union-of-trees spanner across deltas by:

    + computing the dirty set with bounded multi-source BFS from the
      delta's touched endpoints, at the spec's locality radius;
    + recomputing dominating trees for dirty roots only (reusing one
      {!Rs_graph.Bfs.Scratch} across roots, and the lazy greedy covers
      underneath the constructions);
    + splicing the new trees into the maintained edge multiset —
      per-edge reference counts over canonical pairs, so an edge leaves
      the spanner exactly when its last contributing tree drops it;
    + carrying the spanner edge set over to the patched host graph by
      diff ({!Rs_graph.Edge_set.rehost}, then flipping the pairs whose
      refcount crossed zero) instead of rebuilding it;
    + verifying the repair with a {e local} gate — no retained tree
      uses a removed edge, the clean trees on the dirty fringe are
      still the trees a fresh build picks, and every recomputed tree
      is dominating, each checked over its own root's ball — and {e escalating} when verification
      fails: dirty set -> 2-hop closure -> full rebuild (the ladder).
      Propositions 1 and 5 make the gate sufficient: a union in which
      every root has a dominating tree is an (alpha, beta)-remote-
      spanner, and roots beyond the fringe keep an unchanged ball and
      a tree whose edges all survive. The global (alpha, beta) check
      ({!Rs_core.Verify}) stays off the write path: it runs in
      [Store.recover ~verify:true], [rspan heal]/[recover] verification
      and every test and chaos gate.

    Every per-delta step costs O(|delta| + the dirty balls), plus the
    flat O(n + m) copies of {!Rs_graph.Graph.patch} and
    {!Rs_graph.Edge_set.rehost}; nothing sorts, hashes or lists the
    whole graph or spanner.

    The repaired spanner is identical, root tree by root tree, to a
    from-scratch build on the new graph (the equivalence property
    tests assert exactly this). With the correct locality radius the
    ladder never escalates; it exists so that an under-estimated
    radius (see [?dirty_radius]) degrades to a wider, costlier repair
    with the same result instead of a wrong one. *)

open Rs_graph

(** Which dominating-tree family the maintained spanner unions. The
    four specs correspond to {!Rs_core.Remote_spanner.rem_span},
    [low_stretch], [exact_distance]/[k_connecting] and
    [k_connecting_mis]/[two_connecting] respectively. *)
type spec =
  | Gdy of { r : int; beta : int }  (** Algorithm 1 trees *)
  | Mis of { r : int }  (** Algorithm 2 trees (beta = 1) *)
  | Gdy_k of { k : int }  (** Algorithm 4 stars, (2,0) *)
  | Mis_k of { k : int }  (** Algorithm 5 trees, (2,1) *)

val pp_spec : Format.formatter -> spec -> unit

val radius : spec -> int
(** Locality radius of the spec's tree construction: a root whose
    distance to every delta endpoint exceeds this (in both the old and
    the new graph) provably computes the same tree. *)

val alpha_beta : spec -> (float * float) option
(** The (alpha, beta) remote-spanner guarantee of the union, for the
    global {!Rs_core.Verify} check recovery and the test harnesses run
    off the write path; [None] for parameterizations the paper proves
    no distance bound for (e.g. [Gdy] with [beta >= 2] — repairs of
    every spec are gated on tree domination alone). *)

val build : spec -> Graph.t -> Edge_set.t
(** From-scratch union of the spec's trees over all roots — the
    reference the repaired spanner is checked against. *)

(** {1 Maintained state} *)

type t
(** A graph, one dominating tree per root, and their refcounted edge
    union. *)

val init : spec -> Graph.t -> t
(** Full build: one tree per root (n bounded traversals). *)

val graph : t -> Graph.t
(** The current host graph ({e after} all applied deltas). *)

val spanner : t -> Edge_set.t
(** The maintained spanner over {!graph}. Owned by the repair state —
    do not mutate; it is replaced wholesale by {!apply}. *)

val pairs : t -> (int * int) list
(** The spanner as sorted canonical pairs — host-independent, for
    equivalence checks against a from-scratch build. *)

val publish : t -> Graph.t * Edge_set.t
(** The current [(graph, spanner)] pair as an immutable snapshot:
    {!apply} replaces both values wholesale (a freshly patched graph
    and a fresh edge set for every non-quiescent delta) and never
    mutates a previously returned one, so the pair may be handed to
    concurrent reader domains and stays valid — frozen at this
    generation — across later applies. This is the publication seam
    the resident service's atomic snapshot pointer is built on. *)

val tree_edges : t -> int -> (int * int) list
(** [(parent, child)] edges of the maintained tree of one root,
    shallow-first. *)

val export_trees : t -> (int * int) list array
(** Per-root [(parent, child)] tree edge lists, shallow-first — the
    exact state a durable snapshot must persist for {!restore} to
    resurrect this value without rerunning any construction. The
    returned array is fresh; the lists are shared but immutable. *)

val restore : spec -> Graph.t -> trees:(int * int) list array -> t
(** Rebuild maintained state from stored per-root trees: refcounts and
    the spanner edge set are rederived, {e no} BFS or tree construction
    runs — this is what makes crash recovery from a snapshot fast.
    Validates that every stored edge exists in [g] and that each list
    replays into a well-formed rooted tree; raises [Failure] with a
    one-line diagnostic otherwise. [restore spec g ~trees:(export_trees
    st)] is equivalent to [st] whenever [g] equals [graph st]. *)

type level =
  | Local  (** dirty set only — the fast path *)
  | Widened  (** escalated once: 2-hop closure of the dirty set *)
  | Full  (** escalated twice: from-scratch rebuild *)

type outcome = {
  dirty : int;  (** size of the initial dirty set *)
  rebuilt : int;  (** trees recomputed, across all ladder rungs *)
  escalations : int;  (** ladder rungs climbed (0 on the fast path) *)
  level : level;  (** rung at which verification passed *)
  edges_changed : int;  (** spanner edges added + removed by the repair *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val apply : ?dirty_radius:int -> t -> Delta.t -> outcome
(** Apply one delta batch and repair the spanner: {!Delta.net} against
    {!graph}, then {!apply_net}. A delta with empty net effect
    recomputes nothing and leaves both {!graph} and {!spanner}
    physically untouched. Records [repair/*] counters (dirty nodes,
    trees rebuilt, escalations, saved BFS runs) and the
    [repair/latency] histogram (milliseconds per apply).

    [?dirty_radius] overrides the spec's locality radius — a testing
    and experimentation hook: an under-estimate makes the local gate
    fail and exercises the escalation ladder. Whatever the radius, the
    result equals {!build} on the new graph, not merely a verified
    remote-spanner. *)

val apply_net : ?dirty_radius:int -> t -> Delta.net -> outcome
(** {!apply} for a delta already resolved against {!graph} (its [base]
    must be that very value — raises [Invalid_argument] otherwise).
    Afterwards {!graph} is the net's [result], so a store holding
    several spanners over one graph resolves and patches each write
    once and all of them share the patched graph. *)

type diff = {
  before : Edge_set.t;  (** the spanner the apply started from *)
  gained : (int * int) list;  (** pairs that entered, sorted canonical *)
  lost : (int * int) list;  (** pairs that left, sorted canonical *)
}

val last_diff : t -> diff option
(** The spanner change made by the most recent non-quiescent apply
    ([None] right after {!init}/{!restore}). A consumer that derived
    something from [before] can update it by this diff instead of
    recomputing it from {!spanner} — how the service publishes views. *)

val incremental_target : spec -> Graph.t -> (int * int) list
(** A stateful maintainer for {!Rs_distributed.Periodic.simulate}'s
    [?incremental] hook: the first call initializes a repair state from
    the given graph, every later call diffs against the previous graph
    and repairs; returns the maintained spanner as sorted canonical
    pairs. Each returned closure owns its own state. *)
