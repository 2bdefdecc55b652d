open Rs_obs

let magic = "RSWAL001"
let header_len = 16
let record_header_len = 16

let c_appends = Obs.counter "store/wal_appends"
let c_bytes = Obs.counter "store/wal_bytes"
let c_fsyncs = Obs.counter "store/wal_fsyncs"
let c_segments = Obs.counter "store/wal_segments"
let h_fsync = Obs.histogram "wal/fsync_latency"

type policy = Always | Every of int | Never

let policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "every" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n >= 1 -> Ok (Every n)
          | _ -> Error (Printf.sprintf "invalid fsync policy %S: every:N needs N >= 1" s))
      | _ -> Error (Printf.sprintf "invalid fsync policy %S (always, never, every:N)" s))

let policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Every n -> Printf.sprintf "every:%d" n

let segment_name seq = Printf.sprintf "wal-%020d.seg" seq

(* [Some first_seq] when the basename is a well-formed segment name *)
let segment_seq name =
  if String.length name = 28 && String.sub name 0 4 = "wal-" && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 20)
  else None

let segment_files ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match segment_seq name with
         | Some seq -> Some (seq, Filename.concat dir name)
         | None -> None)
  |> List.sort compare

(* {1 Writer} *)

type writer = {
  dir : string;
  policy : policy;
  segment_bytes : int;
  mutable oc : out_channel;
  mutable cur_bytes : int;
  mutable next : int;
  mutable unsynced : int;
}

let open_segment dir seq =
  let oc = open_out_bin (Filename.concat dir (segment_name seq)) in
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  Binio.w_u64 buf seq;
  Buffer.output_buffer oc buf;
  Obs.incr c_segments;
  oc

let create_writer ?(policy = Always) ?(segment_bytes = 1 lsl 20) ~dir ~next_seq () =
  if next_seq < 1 then invalid_arg "Wal.create_writer: next_seq must be >= 1";
  { dir; policy; segment_bytes; oc = open_segment dir next_seq; cur_bytes = header_len;
    next = next_seq; unsynced = 0 }

let do_sync w =
  flush w.oc;
  let t0 = Obs.now () in
  Unix.fsync (Unix.descr_of_out_channel w.oc);
  Obs.observe h_fsync ((Obs.now () -. t0) *. 1000.);
  Obs.incr c_fsyncs;
  w.unsynced <- 0

let sync w = do_sync w

let rotate w =
  flush w.oc;
  if w.policy <> Never then do_sync w;
  close_out w.oc;
  w.oc <- open_segment w.dir w.next;
  w.cur_bytes <- header_len

(* checksum covers seq + payload, so a record can neither be replayed
   under the wrong sequence number nor with damaged content *)
let encode_record ~seq delta =
  let body = Buffer.create 64 in
  Binio.w_u64 body seq;
  Buffer.add_string body (Rs_dynamic.Delta.to_string delta);
  let body = Buffer.contents body in
  let rec_buf = Buffer.create (8 + String.length body) in
  Binio.w_u32 rec_buf (String.length body - 8);
  Binio.w_u32 rec_buf (Rs_graph.Crc32.of_string body);
  Buffer.add_string rec_buf body;
  Buffer.contents rec_buf

let decode_record s ~pos =
  let len = String.length s in
  if len - pos < record_header_len then `Need_more
  else begin
    let plen = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF in
    let crc = Int32.to_int (String.get_int32_le s (pos + 4)) land 0xFFFFFFFF in
    let seq = Int64.to_int (String.get_int64_le s (pos + 8)) in
    if plen > len - pos - record_header_len then `Need_more
    else if Rs_graph.Crc32.of_substring s ~pos:(pos + 8) ~len:(8 + plen) <> crc then
      `Bad "record checksum mismatch"
    else
      match Rs_dynamic.Delta.parse (String.sub s (pos + record_header_len) plen) with
      | delta -> `Record (seq, delta, pos + record_header_len + plen)
      | exception Failure msg -> `Bad ("unparsable record payload: " ^ msg)
  end

let append w delta =
  let seq = w.next in
  let rec_s = encode_record ~seq delta in
  output_string w.oc rec_s;
  (* flush (not fsync) unconditionally: a record is visible to
     same-host tailers — the replication feed — the moment append
     returns, whatever the durability policy says about fsync *)
  flush w.oc;
  w.cur_bytes <- w.cur_bytes + String.length rec_s;
  w.next <- seq + 1;
  w.unsynced <- w.unsynced + 1;
  Obs.incr c_appends;
  Obs.add c_bytes (String.length rec_s);
  (match w.policy with
  | Always -> do_sync w
  | Every n -> if w.unsynced >= n then do_sync w
  | Never -> ());
  if w.cur_bytes >= w.segment_bytes then rotate w;
  seq

let next_seq w = w.next

let close_writer w =
  flush w.oc;
  if w.policy <> Never then do_sync w;
  close_out w.oc

(* {1 Scanning} *)

type record = { seq : int; delta : Rs_dynamic.Delta.t; file : string; offset : int }
type truncation = { t_file : string; t_offset : int; t_reason : string }

let pp_truncation fmt t =
  Format.fprintf fmt "%s at byte %d of %s" t.t_reason t.t_offset (Filename.basename t.t_file)

type scan = { records : record list; truncation : truncation option }

(* One segment: the valid record prefix plus where/why it ends early.
   Never raises — every malformation becomes a truncation point. *)
let scan_file ~name_seq file =
  let s = Fsutil.read_file file in
  let len = String.length s in
  let bad offset reason = ([], Some { t_file = file; t_offset = offset; t_reason = reason }) in
  if len < header_len then bad 0 "torn segment header"
  else if String.sub s 0 8 <> magic then bad 0 "bad segment magic"
  else begin
    let first_seq =
      Int64.to_int (String.get_int64_le s 8)
    in
    if first_seq <> name_seq then
      bad 0
        (Printf.sprintf "segment header sequence %d does not match filename sequence %d"
           first_seq name_seq)
    else begin
      let records = ref [] in
      let count = ref 0 in
      let pos = ref header_len in
      let stop = ref None in
      while !stop = None && !pos < len do
        let start = !pos in
        if len - start < record_header_len then
          stop := Some (start, "torn record header")
        else begin
          let plen = Int32.to_int (String.get_int32_le s start) land 0xFFFFFFFF in
          let crc = Int32.to_int (String.get_int32_le s (start + 4)) land 0xFFFFFFFF in
          let seq = Int64.to_int (String.get_int64_le s (start + 8)) in
          if plen > len - start - record_header_len then
            stop := Some (start, "torn record payload")
          else if Rs_graph.Crc32.of_substring s ~pos:(start + 8) ~len:(8 + plen) <> crc then
            stop := Some (start, "record checksum mismatch")
          else begin
            let expected = first_seq + !count in
            if seq <> expected then
              stop :=
                Some
                  (start, Printf.sprintf "record sequence %d, expected %d" seq expected)
            else
              match Rs_dynamic.Delta.parse (String.sub s (start + record_header_len) plen) with
              | delta ->
                  records := { seq; delta; file; offset = start } :: !records;
                  incr count;
                  pos := start + record_header_len + plen
              | exception Failure msg ->
                  stop := Some (start, "unparsable record payload: " ^ msg)
          end
        end
      done;
      ( List.rev !records,
        Option.map
          (fun (offset, reason) -> { t_file = file; t_offset = offset; t_reason = reason })
          !stop )
    end
  end

let scan_dir ~dir ~after_seq =
  let segments = segment_files ~dir in
  let records = ref [] in
  let truncation = ref None in
  let expected = ref None in
  List.iter
    (fun (name_seq, file) ->
      if !truncation = None then begin
        let gap =
          match !expected with
          | Some e when name_seq > e ->
              Some (Printf.sprintf "sequence gap: segment starts at %d, expected %d" name_seq e)
          | Some e when name_seq < e ->
              Some (Printf.sprintf "overlapping segment: starts at %d, expected %d" name_seq e)
          | None when name_seq > after_seq + 1 ->
              Some
                (Printf.sprintf "sequence gap after snapshot: segment starts at %d, expected %d"
                   name_seq (after_seq + 1))
          | _ -> None
        in
        match gap with
        | Some reason -> truncation := Some { t_file = file; t_offset = 0; t_reason = reason }
        | None ->
            let recs, stop = scan_file ~name_seq file in
            List.iter (fun r -> if r.seq > after_seq then records := r :: !records) recs;
            expected := Some (name_seq + List.length recs);
            truncation := stop
      end)
    segments;
  { records = List.rev !records; truncation = !truncation }

let truncate ~dir tr =
  let base = Filename.basename tr.t_file in
  List.iter
    (fun (_, file) -> if Filename.basename file > base then Sys.remove file)
    (segment_files ~dir);
  if Sys.file_exists tr.t_file then
    if tr.t_offset <= header_len then Sys.remove tr.t_file
    else Unix.truncate tr.t_file tr.t_offset
