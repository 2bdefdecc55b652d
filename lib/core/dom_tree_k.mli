(** k-connecting (2, beta)-dominating trees (paper, Section 3).

    A k-connecting (2, beta)-dominating tree T for [u] is a tree
    rooted at [u] such that every node [v] at distance 2 from [u]
    satisfies one of:
    - [v] has k neighbors in [B_T(u, 1+beta)] whose tree paths to [u]
      are pairwise internally disjoint (share only [u]); or
    - every common neighbor [w] of [u] and [v] has edge [uw] in T.

    For k = 1 this degenerates to a (2, beta)-dominating tree. Unions
    over all roots give k-connecting remote-spanners: (2, 0)-trees
    characterize k-connecting (1,0)-remote-spanners (Proposition 5),
    2-connecting (2, 1)-trees yield 2-connecting
    (2,-1)-remote-spanners (Proposition 4).

    In a rooted tree, root paths to two nodes are internally disjoint
    iff the nodes lie under different children of the root, so the
    "k disjoint paths" test reduces to counting distinct depth-1
    ancestors — see {!disjoint_branch_count}. *)

open Rs_graph

val disjoint_branch_count : Graph.t -> Tree.t -> beta:int -> int -> int
(** [disjoint_branch_count g t ~beta v]: the maximum number of
    pairwise internally disjoint tree paths from the root to distinct
    neighbors of [v] lying in [B_T(root, 1+beta)] — the number of root
    children whose subtree contains such a neighbor. *)

val is_k_dominating : Graph.t -> k:int -> beta:int -> Tree.t -> bool
(** Literal check of the definition above; the condition part is
    {!k_dominates}. *)

val k_dominates :
  scratch:Bfs.Scratch.t ->
  Graph.t ->
  k:int ->
  beta:int ->
  int ->
  member:(int -> (int * int) option) ->
  bool
(** [k_dominates ~scratch g ~k ~beta u ~member] checks the condition
    for root [u] with the tree given as [member x] = [Some (depth,
    first_hop)] for a member [x] ([first_hop] = its depth-1 ancestor;
    only read for non-root members) and [None] otherwise: one BFS of
    radius 2, cost of the 2-ball. The tree's edges are not checked. *)

val gdy_k : ?scratch:Bfs.Scratch.t -> Graph.t -> k:int -> int -> Tree.t
(** Algorithm 4 (DomTreeGdy_{2,0,k}): greedy k-multicover of the
    2-sphere of [u] by neighbor balls ({!Rs_setcover.Setcover}'s lazy
    greedy); the tree is a star around [u]. Edge count within
    [1 + log Delta] of the optimal k-connecting (2,0)-dominating tree
    (Proposition 6). Ties by smallest id. Pass [~scratch] to reuse BFS
    state across roots (per-tree work proportional to the 2-ball, not
    [n]); a scratch must not be shared between domains. *)

val gdy_k_emit :
  Graph.t -> k:int -> sphere:int array -> int -> add:(int -> int -> unit) -> unit
(** Edge-emitting core of {!gdy_k}: everything after the radius-2
    traversal, with [sphere] the id-sorted 2-sphere of the root and
    [add u relay] invoked per star edge. Lets the batched builder
    ([Rs_core.Sharded]) skip the O(n) [Tree.t] per root; edges and
    metrics identical to {!gdy_k}. Assumes [k >= 1]. *)

val gdy_k_edges : scratch:Bfs.Scratch.t -> Graph.t -> k:int -> int -> (int * int) list
(** The star edges [(u, relay)] of [gdy_k ~scratch g ~k u] in emission
    order, without the n-sized {!Tree.t}. *)

val mis_k : ?scratch:Bfs.Scratch.t -> Graph.t -> k:int -> int -> Tree.t
(** Algorithm 5 (DomTreeMIS_{2,1,k}): k rounds of greedy maximal
    independent sets over the not-yet-dominated 2-sphere; each picked
    node [x] is attached through a fresh common neighbor and up to
    [k-1] further fresh relays become extra root children. O(k^2)
    edges on unit ball graphs of doubling metrics (Proposition 7). *)

val mis_k_edges : scratch:Bfs.Scratch.t -> Graph.t -> k:int -> int -> (int * int) list
(** The [(parent, child)] edges of [mis_k ~scratch g ~k u] in emission
    order (parents first), without the n-sized {!Tree.t}: cost of the
    2-ball. *)

val extract_k21 : Graph.t -> Edge_set.t -> k:int -> int -> Tree.t option
(** [extract_k21 g h ~k u] greedily builds a k-connecting
    (2,1)-dominating tree for [u] using only edges of [h]: relays come
    from [h]'s depth-1/2 structure around [u] instead of the whole
    graph. [Some t] certifies that [h] induces such a tree for [u]
    (checked with {!is_k_dominating} before returning); [None] means
    the greedy extraction failed — a sufficiency check, exact in the
    star-like cases, used to audit Proposition 4's premise on
    construction outputs. *)
