(** Mutable sets of edges of a fixed host graph.

    A sub-graph [H] of [G] with [V(H) = V(G)] is represented as the set
    of canonical edge ids of its edges — a bit vector of length [m(G)].
    This is how every remote-spanner candidate is stored: constructions
    union dominating trees into an [Edge_set.t], verifiers materialize
    its adjacency with {!to_adjacency}. *)

type t

val create : Graph.t -> t
(** Empty edge set over the given host graph. *)

val full : Graph.t -> t
(** All edges of the host graph. *)

val host : t -> Graph.t

val copy : t -> t

val add : t -> int -> int -> unit
(** [add s u v] inserts edge [uv]; the edge must exist in the host
    graph (raises [Not_found] otherwise). Idempotent. *)

val add_id : t -> int -> unit
(** Insert by canonical edge id. *)

val remove : t -> int -> int -> unit

val mem : t -> int -> int -> bool
(** Membership; false when [uv] is not even a host edge. *)

val mem_id : t -> int -> bool

val cardinal : t -> int
(** Number of edges currently in the set. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds all edges of [src] into [dst]. Both must
    share the same host graph. *)

val rehost :
  t -> Graph.t -> added:(int * int) list -> removed:(int * int) list -> t
(** [rehost s g' ~added ~removed] is [s] carried over to
    [g' = Graph.patch (host s) ~added ~removed]: a fresh set holding
    every member of [s] except the [removed] pairs, with the [added]
    host edges absent. The bits move in runs through the patch's
    monotone id shift — O(m / 8), no per-member work — so a maintained
    spanner follows its host graph without being rebuilt. [s] is left
    untouched. *)

val iter : (int -> int -> unit) -> t -> unit
(** Iterate over member edges as canonical [(u, v)], [u < v]. *)

val to_list : t -> (int * int) list

val to_adjacency : t -> int array array
(** Materialize sorted adjacency arrays of the sub-graph (on the full
    vertex set of the host). Cost O(n + m). *)

val to_graph : t -> Graph.t
(** Materialize as a standalone {!Graph.t} on the same vertex set. *)

val subset : t -> t -> bool
(** [subset a b] is true when every edge of [a] is in [b]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
