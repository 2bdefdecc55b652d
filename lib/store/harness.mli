(** Scaffolding shared by the seeded fault harnesses ({!Crash},
    [Rs_serve.Chaos], [Rs_net.Net_chaos]): the random churn they drive,
    the gates they apply to the aftermath of a fault, and the runner
    that plays a table of named scenarios. *)

open Rs_graph
open Rs_dynamic

val random_delta : Rand.t -> Graph.t -> Delta.t
(** A batch of 1–3 random ops against [g] (45% edge additions, 35%
    removals, 10% node downs, 10% node ups with 1–3 links), redrawn up
    to 16 times while it would leave [g] unchanged. Deterministic in
    the state of [rand]. *)

val wait_until : ?timeout:float -> what:string -> (unit -> bool) -> unit
(** Poll [pred] every 2 ms until it holds; raises [Failure] naming
    [what] after [timeout] seconds (default 20). *)

val verify_state : what:string -> Graph.t -> (Repair.spec * Edge_set.t) list -> unit
(** {!Store.verify_spanners}, with failures prefixed by [what ^ ":"]. *)

val gate_byte_identical : what:string -> string -> string -> unit
(** [gate_byte_identical ~what dir_a dir_b] recovers a copy of each
    store directory ([dir_a ^ "-cmp-a"], [dir_b ^ "-cmp-b"]) and
    raises [Failure] unless both land on the same sequence number with
    byte-identical snapshot encodings. *)

(** {1 Scenario tables} *)

type failure = { scenario : string; reason : string }

type 'o scenario =
  string
  * (rand:Rand.t -> specs:Repair.spec list -> n:int -> batches:int -> dir:string -> 'o)
(** A named scenario returning its outcome ['o]; it signals a failed
    gate by raising. *)

val run_scenarios :
  harness:string ->
  ?only:string ->
  seed:int ->
  specs:Repair.spec list ->
  n:int ->
  batches:int ->
  dir:string ->
  'o scenario list ->
  init:'acc ->
  fold:('acc -> 'o -> 'acc) ->
  int * 'acc * failure list
(** Run the table's scenarios in order (only the one named [?only],
    if given) under [dir], all drawing from one [Rand] stream seeded
    with [seed]. Returns how many ran, the outcomes folded into
    [init], and one failure per scenario that raised — [Failure]
    carries its message, any other exception its printed form. Raises
    [Invalid_argument] (naming [harness]) when [batches < 4] or
    [?only] is not in the table. *)
