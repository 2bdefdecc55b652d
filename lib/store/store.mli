(** Durable spanner state: a directory of checksummed snapshots plus a
    delta write-ahead log, and the crash-safe recovery that stitches
    them back into live {!Rs_dynamic.Repair} state.

    A store directory holds [snap-*.rsnap] files ({!Snapshot}) and
    [wal-*.seg] segments ({!Wal}). The invariant tying them together:
    a snapshot at sequence number [s] is the exact state after deltas
    [1..s], and WAL record [i] is the [i]-th delta — so {e any} valid
    snapshot plus the contiguous WAL records above its sequence number
    reproduces the live state. Recovery exploits the redundancy in
    both directions: a damaged newest snapshot falls back to an older
    one (replaying a longer WAL suffix), and a damaged WAL tail is
    truncated to its last valid record (recovering a verified prefix
    of history). The one thing recovery never does is hand back
    unverified bytes as a graph.

    Writes are ordered for crash safety: a delta is appended (and,
    policy permitting, fsynced) to the WAL {e before} it is applied to
    the in-memory repair states, and snapshots are published by
    temp-file-plus-rename, so every crash point leaves the directory
    parseable as some prefix of history. *)

open Rs_dynamic

type t

val create :
  ?policy:Wal.policy ->
  ?segment_bytes:int ->
  dir:string ->
  specs:Repair.spec list ->
  Rs_graph.Graph.t ->
  t
(** Initialize a store: create [dir] (and parents) if needed, build
    one {!Repair} state per spec from the graph, write the sequence-0
    snapshot and open the WAL at sequence 1. Raises [Failure] if [dir]
    already holds store files — recover those, don't overwrite them.
    [?policy] defaults to [Always]; [?segment_bytes] to 1 MiB. *)

val graph : t -> Rs_graph.Graph.t
(** Current topology (after every appended delta). *)

val seq : t -> int
(** Sequence number of the last appended delta; 0 when fresh. *)

val dir : t -> string

val states : t -> (Repair.spec * Repair.t) list
(** Raises [Invalid_argument] while the states are stale (see
    {!append}'s [~repair:false] and {!rebuild}). *)

val states_stale : t -> bool
(** True between an [append ~repair:false] and the {!rebuild} that
    re-derives the spanner states from the advanced graph. *)

val append : ?repair:bool -> t -> Delta.t -> Repair.outcome list
(** Log-then-apply: resolve the delta against the current graph once
    ({!Delta.net}, which validates it), append it to the WAL, then heal
    every maintained spanner through {!Repair.apply_net} — the store
    and all spanners share the one patched graph. A delta with empty net effect is skipped entirely
    (nothing logged, nothing returned) — quiescence stays free and the
    log stays dense. Raises [Invalid_argument] on an invalid delta,
    {e before} anything is written.

    [~repair:false] is the circuit-breaker path of the resident
    service: the delta is logged and the graph advances, but the
    maintained spanners are {e not} repaired — they are marked stale
    and every stale-sensitive operation ({!states}, {!snapshot_value},
    {!write_snapshot}, {!compact}, and [append ~repair:true] itself)
    raises until {!rebuild} folds the backlog in. Durability is
    unaffected: the WAL already holds every delta, so a crash in the
    stale window recovers normally. *)

val rebuild : t -> unit
(** Replace every maintained spanner with a from-scratch
    {!Repair.init} on the current graph and clear the stale flag — the
    batched alternative to per-delta incremental repair. Records a
    [store/rebuild] span. *)

val sync_to : t -> Rs_graph.Graph.t -> Repair.outcome list
(** [append] the {!Delta.diff} from the current graph to the given
    one — the hook shape used by [rspan churn --wal], where the
    caller has topologies, not deltas. *)

val snapshot_value : t -> Snapshot.t
(** The current state as a snapshot value (no I/O) — exposed for the
    crash harness's byte-identity round-trip gate. *)

val write_snapshot : t -> string
(** Publish a snapshot of the current state; returns its path. Older
    snapshots and the WAL are left in place (fallback depth). *)

val compact : t -> string
(** Fold the WAL into a fresh snapshot: {!write_snapshot}, then drop
    every WAL segment and every older snapshot — all their information
    is now in the published file — and restart the WAL at the next
    sequence number. Returns the snapshot's path. *)

val close : t -> unit
(** Seal the WAL (final fsync unless the policy is [Never]). The store
    refuses further appends. *)

val verify_spanners :
  what:string -> Rs_graph.Graph.t -> (Repair.spec * Rs_graph.Edge_set.t) list -> unit
(** The oracle gate: every spanner must equal a from-scratch
    {!Repair.build} on [g] and pass {!Rs_core.Verify.is_remote_spanner}
    at its spec's {!Repair.alpha_beta} when the paper states one.
    Raises [Failure] whose message starts with [what] otherwise. *)

(** {1 Recovery} *)

type recovery = {
  snapshot_seq : int;
  snapshot_file : string;  (** the snapshot actually used *)
  last_seq : int;  (** sequence number of the recovered state *)
  replayed : int;  (** WAL records replayed on top of the snapshot *)
  truncated : Wal.truncation option;
      (** damage found in the WAL; already made physical *)
  snapshots_skipped : (string * string) list;
      (** (path, reason) for snapshots rejected as corrupt, newest first *)
}

val pp_recovery : Format.formatter -> recovery -> unit

val recover :
  ?policy:Wal.policy ->
  ?segment_bytes:int ->
  ?verify:bool ->
  dir:string ->
  unit ->
  t * recovery
(** Reopen a store directory after a crash (or a clean close):

    + sweep abandoned [.tmp] files (interrupted snapshot publications);
    + load the newest snapshot that decodes, checksums and restores
      cleanly — including the stored-union cross-check against the
      refcounts {!Repair.restore} rederives — falling back to older
      snapshots on damage;
    + replay the WAL suffix above the snapshot's sequence number
      through {!Repair.apply}, stopping at the first torn or corrupt
      record and physically truncating the log there;
    + with [~verify:true] (default false; the CLI defaults it on),
      gate the result through {!verify_spanners} — raising [Failure]
      rather than returning a state that fails its own invariants;
    + reopen the WAL for appending at [last_seq + 1].

    Raises [Failure] when no usable snapshot exists. Records
    [store/recoveries], [store/replayed_records], [store/truncations]
    and [store/snapshots_skipped] under a [store/recover] span (with
    [load_snapshot] / [replay] / [verify] child spans). *)
