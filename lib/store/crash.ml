open Rs_graph
open Rs_dynamic

type failure = { case : string; reason : string }

type report = {
  cases : int;
  exact : int;
  prefix : int;
  round_trip_ok : bool;
  failures : failure list;
}

let ok r = r.round_trip_ok && r.failures = []

let pp_report fmt r =
  Format.fprintf fmt "@[<v>crash sites: %d (%d exact recoveries, %d verified prefixes)" r.cases
    r.exact r.prefix;
  Format.fprintf fmt "@,round trip: %s" (if r.round_trip_ok then "byte-identical" else "FAILED");
  List.iter (fun f -> Format.fprintf fmt "@,FAIL %s: %s" f.case f.reason) r.failures;
  Format.fprintf fmt "@]"

(* {1 Damage} *)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xA5));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write";
  Unix.close fd

(* {1 The plan} *)

type expect = Seq of int  (** best recoverable sequence number *)

let run ?(specs = [ Repair.Gdy_k { k = 1 }; Repair.Mis { r = 2 } ]) ?(sites = 4) ~seed ~n
    ~batches ~dir () =
  if batches < 2 then invalid_arg "Crash.run: need at least 2 batches";
  let rand = Rand.create seed in
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "base" in
  Fsutil.mkdir_p dir;
  Fsutil.rm_rf base;
  (* tiny segments force multi-segment histories, so cross-segment
     anomalies (gaps after a truncated tail) are actually exercised *)
  let store = Store.create ~policy:Wal.Always ~segment_bytes:256 ~dir:base ~specs g0 in
  let mid = batches / 2 in
  let expected = Array.make (batches + 1) g0 in
  for s = 1 to batches do
    let delta = Harness.random_delta rand (Store.graph store) in
    ignore (Store.append store delta);
    if Store.seq store <> s then
      failwith (Printf.sprintf "Crash.run: append %d landed at seq %d" s (Store.seq store));
    expected.(s) <- Store.graph store;
    if s = mid then ignore (Store.write_snapshot store)
  done;
  let live_bytes = Snapshot.to_string (Store.snapshot_value store) in
  Store.close store;

  (* record map of the pristine log, for choosing crash sites and for
     computing what the best recoverable prefix is *)
  let scan = Wal.scan_dir ~dir:base ~after_seq:0 in
  (match scan.Wal.truncation with
  | Some tr -> failwith (Format.asprintf "Crash.run: pristine WAL unreadable: %a" Wal.pp_truncation tr)
  | None -> ());
  let records = Array.of_list scan.Wal.records in
  if Array.length records <> batches then
    failwith
      (Printf.sprintf "Crash.run: pristine WAL holds %d records, appended %d"
         (Array.length records) batches);
  let record_len r =
    let s = Fsutil.read_file r.Wal.file in
    16 + (Int32.to_int (String.get_int32_le s r.Wal.offset) land 0xFFFFFFFF)
  in
  let last_record = records.(batches - 1) in
  let last_seg = last_record.Wal.file in
  let file_size f = (Unix.stat f).Unix.st_size in
  let newest_snap =
    match List.rev (Snapshot.list_dir ~dir:base) with
    | (sseq, path) :: _ -> (sseq, path)
    | [] -> failwith "Crash.run: base store has no snapshot"
  in
  if fst newest_snap <> mid then
    failwith (Printf.sprintf "Crash.run: newest snapshot at seq %d, expected %d" (fst newest_snap) mid);

  (* best recoverable seq when the log becomes unusable from record
     [s] on: everything below [s], topped up by the mid snapshot *)
  let best_without s = max mid (s - 1) in

  let cases = ref [] in
  let add name mutate expect = cases := (name, mutate, expect) :: !cases in

  (* torn WAL tail: cut the last segment at sampled offsets inside the
     final record — header bytes, payload bytes — and exactly at its
     start (the post-write-pre-fsync boundary crash) *)
  let lr_len = record_len last_record in
  add "torn-tail-boundary"
    (fun d -> Unix.truncate (Filename.concat d (Filename.basename last_seg)) last_record.Wal.offset)
    (Seq (best_without last_record.Wal.seq));
  for i = 1 to sites do
    let cut = last_record.Wal.offset + 1 + Rand.int rand (lr_len - 1) in
    add
      (Printf.sprintf "torn-tail-mid-%d" i)
      (fun d -> Unix.truncate (Filename.concat d (Filename.basename last_seg)) cut)
      (Seq (best_without last_record.Wal.seq))
  done;
  (* several records lost at once: cut at an earlier record boundary in
     the last segment (a longer unsynced tail) *)
  let in_last_seg = Array.to_list records |> List.filter (fun r -> r.Wal.file = last_seg) in
  (match in_last_seg with
  | first_in_last :: _ when List.length in_last_seg >= 2 ->
      add "lost-unsynced-tail"
        (fun d ->
          Unix.truncate (Filename.concat d (Filename.basename last_seg)) first_in_last.Wal.offset)
        (Seq (best_without first_in_last.Wal.seq))
  | _ -> ());
  (* torn segment header on the last segment *)
  add "torn-segment-header"
    (fun d -> Unix.truncate (Filename.concat d (Filename.basename last_seg)) 8)
    (Seq
       (best_without
          (match in_last_seg with r :: _ -> r.Wal.seq | [] -> last_record.Wal.seq)));
  (* checksum-corrupting flips: one in a mid-history record (dropping
     every later segment across the gap), one in the final record *)
  let mid_record = records.(batches / 2) in
  add "corrupt-mid-crc"
    (fun d ->
      flip_byte
        (Filename.concat d (Filename.basename mid_record.Wal.file))
        (mid_record.Wal.offset + 16 + Rand.int rand (record_len mid_record - 16)))
    (Seq (best_without mid_record.Wal.seq));
  add "corrupt-seq-field"
    (fun d ->
      flip_byte (Filename.concat d (Filename.basename last_seg)) (last_record.Wal.offset + 8))
    (Seq (best_without last_record.Wal.seq));
  (* snapshot damage: recovery must fall back to the seq-0 snapshot and
     replay the whole log — the full pre-crash state *)
  let snap_base = Filename.basename (snd newest_snap) in
  let snap_size = file_size (snd newest_snap) in
  for i = 1 to sites do
    let cut = 1 + Rand.int rand (snap_size - 1) in
    add
      (Printf.sprintf "snapshot-truncated-%d" i)
      (fun d -> Unix.truncate (Filename.concat d snap_base) cut)
      (Seq batches)
  done;
  add "snapshot-bitflip"
    (fun d -> flip_byte (Filename.concat d snap_base) (Rand.int rand snap_size))
    (Seq batches);
  add "interrupted-rename"
    (fun d ->
      let p = Filename.concat d snap_base in
      Sys.rename p (p ^ ".tmp"))
    (Seq batches);

  let failures = ref [] in
  let exact = ref 0 and prefix = ref 0 in
  let fail case reason = failures := { case; reason } :: !failures in
  let case_list = List.rev !cases in
  List.iter
    (fun (name, mutate, Seq want) ->
      let d = Filename.concat dir ("case-" ^ name) in
      Fsutil.copy_dir base d;
      mutate d;
      match Store.recover ~verify:true ~dir:d () with
      | exception Failure reason -> fail name ("recovery failed: " ^ reason)
      | exception Binio.Corrupt reason -> fail name ("recovery raised Corrupt: " ^ reason)
      | t, rcv ->
          let seq = rcv.Store.last_seq in
          Store.close t;
          if seq <> want then
            fail name (Printf.sprintf "recovered seq %d, best recoverable prefix is %d" seq want)
          else if not (Graph.equal (Store.graph t) expected.(seq)) then
            fail name (Printf.sprintf "recovered graph at seq %d differs from live history" seq)
          else begin
            if seq = batches then incr exact else incr prefix;
            Fsutil.rm_rf d
          end)
    case_list;

  (* unmutated round trip: recovered state must re-encode to the exact
     bytes of the live state at close *)
  let round_trip_ok =
    let d = Filename.concat dir "case-round-trip" in
    Fsutil.copy_dir base d;
    match Store.recover ~verify:true ~dir:d () with
    | exception Failure reason ->
        fail "round-trip" ("recovery failed: " ^ reason);
        false
    | t, rcv ->
        let got = Snapshot.to_string (Store.snapshot_value t) in
        Store.close t;
        if rcv.Store.last_seq <> batches then begin
          fail "round-trip" (Printf.sprintf "recovered seq %d of %d" rcv.Store.last_seq batches);
          false
        end
        else if got <> live_bytes then begin
          fail "round-trip" "recovered snapshot bytes differ from live state";
          false
        end
        else begin
          Fsutil.rm_rf d;
          true
        end
  in
  { cases = List.length case_list; exact = !exact; prefix = !prefix; round_trip_ok;
    failures = List.rev !failures }
