open Rs_dynamic
open Rs_obs

let magic = "RSNAP001"
let version = 1
let k_meta = 1
let k_graph = 2
let k_spanner = 3

let c_written = Obs.counter "store/snapshots_written"
let c_bytes = Obs.counter "store/snapshot_bytes"

type spanner = {
  spec : Repair.spec;
  trees : (int * int) list array;
  union : (int * int) list;
}

type t = { seq : int; graph : Rs_graph.Graph.t; spanners : spanner list }

let spec_code = function
  | Repair.Gdy { r; beta } -> (1, r, beta)
  | Repair.Mis { r } -> (2, r, 0)
  | Repair.Gdy_k { k } -> (3, k, 0)
  | Repair.Mis_k { k } -> (4, k, 0)

let spec_of_code tag p1 p2 =
  match tag with
  | 1 -> Repair.Gdy { r = p1; beta = p2 }
  | 2 -> Repair.Mis { r = p1 }
  | 3 -> Repair.Gdy_k { k = p1 }
  | 4 -> Repair.Mis_k { k = p1 }
  | t -> Binio.corrupt "spanner section: unknown spec tag %d" t

(* {1 Encoding} *)

let add_section buf ~kind payload =
  Binio.w_u32 buf kind;
  Binio.w_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Binio.w_u32 buf (Rs_graph.Crc32.of_string payload)

let encode_spanner sp =
  let buf = Buffer.create 1024 in
  let tag, p1, p2 = spec_code sp.spec in
  Binio.w_u8 buf tag;
  Binio.w_i32 buf p1;
  Binio.w_i32 buf p2;
  Binio.w_u32 buf (Array.length sp.trees);
  Array.iter
    (fun edges ->
      Binio.w_u32 buf (List.length edges);
      List.iter
        (fun (p, c) ->
          Binio.w_u32 buf p;
          Binio.w_u32 buf c)
        edges)
    sp.trees;
  Binio.w_u32 buf (List.length sp.union);
  List.iter
    (fun (u, v) ->
      Binio.w_u32 buf u;
      Binio.w_u32 buf v)
    sp.union;
  Buffer.contents buf

let to_string t =
  let open Rs_graph in
  let n = Graph.n t.graph and m = Graph.m t.graph in
  let meta = Buffer.create 24 in
  Binio.w_u64 meta t.seq;
  Binio.w_u32 meta n;
  Binio.w_u32 meta m;
  Binio.w_u32 meta (List.length t.spanners);
  let gr = Buffer.create (8 + (8 * m)) in
  Binio.w_u32 gr n;
  Binio.w_u32 gr m;
  Graph.iter_edges
    (fun u v ->
      Binio.w_u32 gr u;
      Binio.w_u32 gr v)
    t.graph;
  let buf = Buffer.create (64 + (8 * m)) in
  Buffer.add_string buf magic;
  Binio.w_u32 buf version;
  Binio.w_u32 buf (2 + List.length t.spanners);
  add_section buf ~kind:k_meta (Buffer.contents meta);
  add_section buf ~kind:k_graph (Buffer.contents gr);
  List.iter (fun sp -> add_section buf ~kind:k_spanner (encode_spanner sp)) t.spanners;
  Buffer.contents buf

(* {1 Decoding} *)

let decode_spanner payload =
  let r = Binio.reader payload in
  let tag = Binio.r_u8 r in
  let p1 = Binio.r_i32 r in
  let p2 = Binio.r_i32 r in
  let spec = spec_of_code tag p1 p2 in
  let n_roots = Binio.r_u32 r in
  let trees =
    Array.init n_roots (fun _ ->
        let count = Binio.r_u32 r in
        List.init count (fun _ ->
            let p = Binio.r_u32 r in
            let c = Binio.r_u32 r in
            (p, c)))
  in
  let union_count = Binio.r_u32 r in
  let union =
    List.init union_count (fun _ ->
        let u = Binio.r_u32 r in
        let v = Binio.r_u32 r in
        (u, v))
  in
  Binio.expect_end r ~what:"spanner section";
  let rec check_sorted prev = function
    | [] -> ()
    | (u, v) :: rest ->
        if u >= v then Binio.corrupt "spanner section: union edge (%d,%d) not canonical" u v;
        (match prev with
        | Some (pu, pv) when compare (pu, pv) (u, v) >= 0 ->
            Binio.corrupt "spanner section: union not strictly sorted at (%d,%d)" u v
        | _ -> ());
        check_sorted (Some (u, v)) rest
  in
  check_sorted None union;
  { spec; trees; union }

let of_string s =
  let r = Binio.reader s in
  if Binio.r_string r ~len:8 <> magic then Binio.corrupt "bad snapshot magic";
  let v = Binio.r_u32 r in
  if v <> version then Binio.corrupt "unsupported snapshot version %d" v;
  let count = Binio.r_u32 r in
  let sections = ref [] in
  for i = 1 to count do
    let kind = Binio.r_u32 r in
    let len = Binio.r_u32 r in
    let payload = Binio.r_string r ~len in
    let crc = Binio.r_u32 r in
    if Rs_graph.Crc32.of_string payload <> crc then
      Binio.corrupt "section %d (kind %d): checksum mismatch" i kind;
    sections := (kind, payload) :: !sections
  done;
  Binio.expect_end r ~what:"snapshot";
  let sections = List.rev !sections in
  let meta =
    match List.filter (fun (k, _) -> k = k_meta) sections with
    | [ (_, p) ] -> p
    | l -> Binio.corrupt "expected exactly one META section, found %d" (List.length l)
  in
  let mr = Binio.reader meta in
  let seq = Binio.r_u64 mr in
  let n = Binio.r_u32 mr in
  let m = Binio.r_u32 mr in
  let spanner_count = Binio.r_u32 mr in
  Binio.expect_end mr ~what:"META section";
  let graph_payload =
    match List.filter (fun (k, _) -> k = k_graph) sections with
    | [ (_, p) ] -> p
    | l -> Binio.corrupt "expected exactly one GRAPH section, found %d" (List.length l)
  in
  let gr = Binio.reader graph_payload in
  let gn = Binio.r_u32 gr in
  let gm = Binio.r_u32 gr in
  if gn <> n || gm <> m then
    Binio.corrupt "GRAPH section (n=%d, m=%d) disagrees with META (n=%d, m=%d)" gn gm n m;
  let edges = Binio.r_u32_pairs gr ~count:gm ~what:"GRAPH edges" in
  Binio.expect_end gr ~what:"GRAPH section";
  let graph =
    try Rs_graph.Graph.of_canonical ~n edges
    with Invalid_argument msg -> Binio.corrupt "GRAPH section: %s" msg
  in
  let spanner_payloads = List.filter_map (fun (k, p) -> if k = k_spanner then Some p else None) sections in
  if List.length spanner_payloads <> spanner_count then
    Binio.corrupt "META declares %d spanner sections, found %d" spanner_count
      (List.length spanner_payloads);
  let spanners = List.map decode_spanner spanner_payloads in
  List.iter
    (fun sp ->
      if Array.length sp.trees <> n then
        Binio.corrupt "spanner section stores %d trees for a %d-vertex graph"
          (Array.length sp.trees) n)
    spanners;
  { seq; graph; spanners }

(* {1 Files} *)

let filename ~seq = Printf.sprintf "snap-%020d.rsnap" seq

(* [Some seq] when the basename is a well-formed snapshot name *)
let snapshot_seq name =
  if
    String.length name = 31
    && String.sub name 0 5 = "snap-"
    && Filename.check_suffix name ".rsnap"
  then int_of_string_opt (String.sub name 5 20)
  else None

let list_dir ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match snapshot_seq name with
         | Some seq -> Some (seq, Filename.concat dir name)
         | None -> None)
  |> List.sort compare

let fsync_dir dir =
  (* Linux lets a directory fd be fsynced, persisting the rename; on
     platforms that refuse, atomicity of the rename itself still holds *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write ~dir t =
  Obs.with_span "store/snapshot_write" @@ fun () ->
  let data = to_string t in
  let path = Filename.concat dir (filename ~seq:t.seq) in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp path;
  fsync_dir dir;
  Obs.incr c_written;
  Obs.add c_bytes (String.length data);
  path

let read path = of_string (Fsutil.read_file path)

let remove_temp ~dir =
  Sys.readdir dir |> Array.iter (fun name ->
      if Filename.check_suffix name ".tmp" && snapshot_seq (Filename.chop_suffix name ".tmp") <> None
      then Sys.remove (Filename.concat dir name))
