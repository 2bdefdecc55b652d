(** Filesystem helpers shared by the store, the replication layer and
    the fault harnesses. Store directories are flat (snapshots and WAL
    segments, no subdirectories), which {!copy_dir} relies on. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; no-op if it exists. *)

val rm_rf : string -> unit
(** Remove a file or a directory tree; no-op if the path is absent.
    Symbolic links are removed, never followed. *)

val copy_dir : string -> string -> unit
(** [copy_dir src dst] replaces [dst] with a copy of the flat
    directory [src], file by file. *)

val read_file : string -> string
(** Whole file, binary mode. *)

val write_file : string -> string -> unit
(** [write_file path s] creates or truncates [path] and writes [s]
    (binary mode, no fsync). *)
