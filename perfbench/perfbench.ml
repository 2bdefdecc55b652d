(* The repository benchmark: the resident spanner service, its store and
   its replication driven from outside, through their public functions.

     perfbench.exe --workload query|mixed --seed N --seconds S
                   --trace 0|1 [--dir DIR]

   run.py builds this executable and calls it; README.md next to this
   file explains the workloads, the metrics and the layer each metric
   belongs to. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   A measured run is three processes in turn (see run_parts), each with
   a third of the run's operations; the traced run is one process with
   all of them. Each process sets up a deployment once; then the phases
   run one after the other, never overlapping:
   - write: closed-loop single-edge deltas against a durable leader
     with one warm replica. Halfway, the warm replica is stopped and a
     cold replica joins in an empty directory and replays the backlog
     while the leader is quiescent (catch-up); then the warm replica
     rejoins for the second half;
   - read: closed-loop route/paths/advert requests over one TCP query
     connection. In [mixed], deltas arrive open-loop from the same
     thread while the reads run.
   The workloads differ in how much of each phase they run. *)

open Rs_graph
module Service = Rs_serve.Service
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair
module Store = Rs_store.Store
module Wal = Rs_store.Wal
module Repl = Rs_net.Repl
module Proto = Rs_net.Proto
module Link_state = Rs_routing.Link_state
module Verify = Rs_core.Verify
module Obs = Rs_obs.Obs
module Json = Rs_obs.Json

let now = Unix.gettimeofday
let ms_of_s x = x *. 1000.
let host = "127.0.0.1"

(* {1 Fixed inputs} *)

let n_nodes = 2000
let density = 4.0

(* The topology is fixed, so that the seed varies only the operations
   and the spread between seeds measures the system, not the graph. *)
let graph_seed = 4242
let spec = Repair.Gdy_k { k = 1 }
let policy = Wal.Always
let service_config = { Service.default_config with readers = 1 }

let replica_config () =
  { (Repl.default_replica_config ()) with fsync = policy }

(* {1 Samples} *)

type samples = float list ref

let sample () : samples = ref []
let push (s : samples) x = s := x :: !s

(* Nearest rank: the p90 of 100 samples leaves 10 samples beyond it. *)
let quantile (s : samples) p =
  match !s with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let len = Array.length a in
      let i = int_of_float (Float.ceil (p *. float_of_int len)) - 1 in
      a.(max 0 (min (len - 1) i))

let p50 s = quantile s 0.5
let p90 s = quantile s 0.9

(* {1 Outcome accounting} *)

let attempted = ref 0
let failed = ref 0
let wrong = ref 0
let gate_failures = ref []

let fail_op ~wrong_answer what =
  incr failed;
  if wrong_answer then incr wrong;
  if !failed <= 10 then prerr_endline ("perfbench: failed operation: " ^ what)

let gate name ok =
  if not ok then begin
    gate_failures := name :: !gate_failures;
    prerr_endline ("perfbench: correctness gate failed: " ^ name)
  end

(* {1 Files} *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Sys.readdir path |> Array.iter (fun f -> rm_rf (Filename.concat path f));
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Poll [pred] every 0.2 ms; the instant it first holds. A sleep, not a
   spin, so the poller never takes a core from the service. *)
let wait_until ?(timeout_s = 60.) what pred =
  let deadline = now () +. timeout_s in
  let rec go () =
    if pred () then now ()
    else if now () > deadline then failwith ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.0002;
      go ()
    end
  in
  go ()

(* {1 Environment} *)

(* Ticks the hypervisor took from this VM's CPUs (the "steal" column of
   /proc/stat), converted to seconds; a slow run with high steal was a
   busy host, not a slow program. *)
let cpu_steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.
      | _ -> nan)
  | None | (exception Sys_error _) -> nan

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* The filesystem type of the mount holding [dir]: the longest mount
   point that prefixes its absolute path. *)
let filesystem dir =
  let abs = Unix.realpath dir in
  let under mp =
    mp = "/" || abs = mp || String.starts_with ~prefix:(mp ^ "/") abs
  in
  match In_channel.with_open_text "/proc/self/mounts" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.fold_left
           (fun (best, fs) l ->
             match String.split_on_char ' ' l with
             | _ :: mp :: ty :: _ when under mp && String.length mp > String.length best
               ->
                 (mp, ty)
             | _ -> (best, fs))
           ("", "unknown")
      |> snd

(* {1 Input generation} *)

(* Unit disk graph: n uniform points in a square of side sqrt(n/density),
   an edge between points at distance at most 1 (the model of
   bench/service.ml, generated here so the input does not depend on the
   program's own sampler). *)
let udg () =
  let st = Random.State.make [| graph_seed |] in
  let side = sqrt (float_of_int n_nodes /. density) in
  let xs = Array.init n_nodes (fun _ -> Random.State.float st side) in
  let ys = Array.init n_nodes (fun _ -> Random.State.float st side) in
  let cells = int_of_float (Float.ceil side) in
  let cell = Array.make (cells * cells) [] in
  let cx i = min (cells - 1) (int_of_float xs.(i)) in
  let cy i = min (cells - 1) (int_of_float ys.(i)) in
  for i = n_nodes - 1 downto 0 do
    let c = (cy i * cells) + cx i in
    cell.(c) <- i :: cell.(c)
  done;
  let edges = ref [] in
  for i = 0 to n_nodes - 1 do
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let x = cx i + dx and y = cy i + dy in
        if x >= 0 && x < cells && y >= 0 && y < cells then
          List.iter
            (fun j ->
              if j > i then begin
                let ex = xs.(i) -. xs.(j) and ey = ys.(i) -. ys.(j) in
                if (ex *. ex) +. (ey *. ey) <= 1.0 then edges := (i, j) :: !edges
              end)
            cell.((y * cells) + x)
      done
    done
  done;
  Graph.make ~n:n_nodes !edges

(* Vertices of the largest connected component, so route and paths
   requests ask for something non-trivial. *)
let giant_component g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let best = ref [||] in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let members = ref [ s ] and queue = Queue.create () in
      comp.(s) <- s;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Graph.iter_neighbors g u (fun v ->
            if comp.(v) < 0 then begin
              comp.(v) <- s;
              members := v :: !members;
              Queue.add v queue
            end)
      done;
      if List.length !members > Array.length !best then
        best := Array.of_list (List.sort compare !members)
    end
  done;
  !best

type kind = Route | Paths | Advert

type read = { kind : kind; a : int; b : int }

let read_line r =
  match r.kind with
  | Route -> Printf.sprintf "route %d %d" r.a r.b
  | Paths -> Printf.sprintf "paths %d %d 2" r.a r.b
  | Advert -> Printf.sprintf "advert %d" r.a

(* Populations of operations are drawn from the fixed topology seed and
   are the same in every run; [--seed] only orders them. Runs with
   different seeds thus replay the same work in a different order, and
   their spread measures the system rather than the luck of the draw. *)

(* Every [parts]-th element, from index [part]. *)
let slice ~part ~parts a =
  Array.of_list (List.filteri (fun i _ -> i mod parts = part) (Array.to_list a))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [size] reads, 50% route, 25% paths (k = 2), 25% advert, endpoints in
   the giant component, put in seeded order. Part [part] of [parts] gets
   every [parts]-th read of that order, cycling if a phase asks for
   more. *)
let read_order ~seed ~size ~part ~parts giant =
  let st = Random.State.make [| graph_seed; 1 |] in
  let pick () = giant.(Random.State.int st (Array.length giant)) in
  let rec pair () =
    let a = pick () and b = pick () in
    if a = b then pair () else (a, b)
  in
  let pool =
    Array.init size (fun i ->
        match i mod 4 with
        | 0 | 1 ->
            let a, b = pair () in
            { kind = Route; a; b }
        | 2 ->
            let a, b = pair () in
            { kind = Paths; a; b }
        | _ -> { kind = Advert; a = pick (); b = -1 })
  in
  shuffle (Random.State.make [| seed; 1 |]) pool;
  let pool = slice ~part ~parts pool in
  let i = ref 0 in
  ( Array.length pool,
    fun () ->
      let r = pool.(!i mod Array.length pool) in
      incr i;
      r )

(* Disjoint pools of original edges, one per delta segment. *)
let edge_pools g sizes =
  let edges = Array.copy (Graph.edges g) in
  shuffle (Random.State.make [| graph_seed; 2 |]) edges;
  let _, pools =
    List.fold_left (fun (at, acc) k -> (at + k, Array.sub edges at k :: acc)) (0, []) sizes
  in
  List.rev pools

(* Every edge of the pool is removed once and restored once, in an order
   drawn from [st], with at most 8 edges missing at a time: 2|pool|
   single-edge deltas, none of them quiescent, that end on the topology
   they started from. *)
let delta_plan st pool =
  let todo = Array.copy pool in
  shuffle st todo;
  let todo = ref (Array.to_list todo) and missing = ref [] and out = ref [] in
  while !todo <> [] || !missing <> [] do
    let remove =
      match !todo with
      | [] -> false
      | _ -> !missing = [] || (List.length !missing < 8 && Random.State.bool st)
    in
    if remove then begin
      let e = List.hd !todo in
      todo := List.tl !todo;
      missing := e :: !missing;
      out := [ Delta.Remove_edge (fst e, snd e) ] :: !out
    end
    else begin
      let e = List.nth !missing (Random.State.int st (List.length !missing)) in
      missing := List.filter (fun x -> x <> e) !missing;
      out := [ Delta.Add_edge (fst e, snd e) ] :: !out
    end
  done;
  List.rev !out

(* {1 Tracing}

   Spans live in memory and are written out when the run ends. Each
   records a name, start, end, the request it belongs to and the span
   that caused it. A layer's self time is its span minus the span of
   the layer below, computed where the spans are taken. *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

let spans = ref []
let span_ids = ref 0

let record ~req ~parent name t0 t1 =
  incr span_ids;
  spans := { id = !span_ids; parent; req; name; t0; t1 } :: !spans;
  !span_ids

(* Run [f] as a span; its result, span id and duration in seconds. *)
let span ~req ~parent name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, record ~req ~parent name t0 t1, t1 -. t0)

let span_json s =
  Json.Obj
    [ ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("req", Json.Int s.req);
      ("name", Json.String s.name); ("start", Json.Float s.t0); ("end", Json.Float s.t1) ]

(* Registry deltas around each phase, written next to the spans. *)
let obs_marks = ref []

let obs_phase name f =
  let before = Obs.snapshot () in
  let r = f () in
  obs_marks := (name, Obs.delta_json ~prev:before (Obs.snapshot ())) :: !obs_marks;
  r

let counter name = Obs.counter_value (Obs.counter name)
let hist_sum name = Obs.histogram_sum (Obs.histogram name)
let hist_count name = Obs.histogram_count (Obs.histogram name)

(* {1 Results} *)

type results = {
  setup : samples;
  load : samples;
  init : samples;
  create : samples;
  lat : (kind * samples) list;  (* end to end, per read kind *)
  mutable reads : int;
  mutable read_s : float;
  mutable stale : int;
  visible : samples;  (* write phase, closed loop *)
  open_visible : samples;  (* mixed reads, timed from when due *)
  rvisible : samples;
  late : samples;
  catchup : samples;
  rss : samples;  (* peak RSS of each part's process *)
  (* traced run only *)
  req_self : samples;
  proto_self : samples;
  query_self : samples;
  traced_req : (kind * samples) list;
  untraced_req : (kind * samples) list;
  kind_self : (kind * samples array) list;  (* request, proto, query, compute *)
  route_ms : samples;
  dist_pair_ms : samples;
  paths_ms : samples;
  mutable bfs_visited : float;
  mutable bfs_queries : int;
  mutable hops : int;
  mutable routes : int;
  view_build : samples;
  writer_self : samples;
  stream_self : samples;
  repair : samples;
  wal_append : samples;
  append_self : samples;
  store_append : samples;
  mutable dirty : int;
  mutable rebuilt : int;
  mutable escalations : int;
  mutable edges_changed : int;
  mutable fsyncs : int;
  mutable wal_bytes : int;
  mutable shadow_deltas : int;
  mutable ship_ms : float;
  mutable recover_ms : float;
  mutable records_streamed : int;
  mutable frames : int;
  mutable bytes : int;
  mutable batches : int;
  mutable batched : float;
  mutable minor_gcs : float;
  mutable major_gcs : float;
  mutable ops : int;
}

let per_kind f = [ (Route, f ()); (Paths, f ()); (Advert, f ()) ]

let results () =
  { setup = sample (); load = sample (); init = sample (); create = sample ();
    lat = per_kind sample; reads = 0; read_s = 0.; stale = 0; visible = sample ();
    open_visible = sample (); rvisible = sample (); late = sample ();
    catchup = sample (); rss = sample (); req_self = sample (); proto_self = sample ();
    query_self = sample (); traced_req = per_kind sample; untraced_req = per_kind sample;
    kind_self = per_kind (fun () -> Array.init 4 (fun _ -> sample ()));
    route_ms = sample (); dist_pair_ms = sample (); paths_ms = sample ();
    bfs_visited = 0.; bfs_queries = 0; hops = 0; routes = 0; view_build = sample ();
    writer_self = sample (); stream_self = sample (); repair = sample ();
    wal_append = sample (); append_self = sample (); store_append = sample ();
    dirty = 0; rebuilt = 0; escalations = 0; edges_changed = 0; fsyncs = 0;
    wal_bytes = 0; shadow_deltas = 0; ship_ms = nan; recover_ms = nan;
    records_streamed = 0; frames = 0; bytes = 0; batches = 0; batched = 0.;
    minor_gcs = 0.; major_gcs = 0.; ops = 0 }

(* {1 Deployment} *)

type leader = { svc : Service.t; ld : Repl.leader }

(* Set-up as a user pays it: from reading the .rsg file until the leader
   serves its first view and its TCP listener is bound. *)
let setup ~trace res ~rsg ~dir =
  let t0 = now () in
  let g, _, dl = span ~req:0 ~parent:0 "graph/load" (fun () -> Graph_io.load rsg) in
  let store, _, dc =
    span ~req:0 ~parent:0 "store/create" (fun () ->
        Store.create ~policy ~dir ~specs:[ spec ] g)
  in
  let svc = Service.start service_config (Service.Durable store) in
  let ld =
    match Repl.lead ~service:svc ~store_dir:(Some dir) ~host ~port:0 () with
    | Ok ld -> ld
    | Error e -> failwith ("lead: " ^ e)
  in
  push res.setup (now () -. t0);
  push res.load (ms_of_s dl);
  push res.create (ms_of_s dc);
  if trace then begin
    let _, _, di = span ~req:0 ~parent:0 "dynamic/init" (fun () -> Repair.init spec g) in
    push res.init (ms_of_s di)
  end;
  { svc; ld }

let stop_leader l =
  Repl.stop_leader l.ld;
  ignore (Service.stop l.svc)

let follow ~dir l =
  match
    Repl.follow ~config:(replica_config ()) ~service_config ~dir ~host
      ~port:(Repl.leader_port l.ld) ()
  with
  | Ok r -> r
  | Error e -> failwith ("follow: " ^ e)

let caught_up l r () =
  let rs = Repl.replica_service r in
  Service.view_seq rs >= Service.view_seq l.svc && Service.idle rs

(* {1 Checks} *)

let sorted_pairs es = List.sort compare (Edge_set.to_list es)

(* Independent of the program's BFS: plain queue over the CSR. *)
let bfs_dist g a b =
  let dist = Array.make (Graph.n g) (-1) in
  let q = Queue.create () in
  dist.(a) <- 0;
  Queue.add a q;
  while dist.(b) < 0 && not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
  done;
  dist.(b)

(* What a reply may be checked against. [Static] when no delta can land
   while the reads run: the exact graph and spanner that answered.
   [Moving]: only the original topology, which every view's graph is a
   subgraph of (deltas only remove and restore original edges). *)
type view_ref =
  | Static of { g : Graph.t; h : Graph.t; h_adj : int array array }
  | Moving of Graph.t

let ints s =
  String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.map int_of_string

(* [Ok (stale, hops)] for a correct answer, [hops] being a route's hop
   count (0 for other reads); [Error (wrong_answer, why)] otherwise. *)
let check_reply view r reply =
  let prefix = read_line r ^ ": " in
  if not (String.starts_with ~prefix reply) then Error (false, reply)
  else begin
    let plen = String.length prefix in
    let body = String.sub reply plen (String.length reply - plen) in
    let stale = String.ends_with ~suffix:" [stale]" body in
    let body = if stale then String.sub body 0 (String.length body - 8) else body in
    let in_graph, in_h =
      match view with
      | Static { g; h; _ } -> (Graph.mem_edge g, Graph.mem_edge h)
      | Moving g -> (Graph.mem_edge g, Graph.mem_edge g)
    in
    let rec walk mem = function
      | x :: (y :: _ as rest) -> mem x y && walk mem rest
      | _ -> true
    in
    let ends p = p <> [] && List.hd p = r.a && List.nth p (List.length p - 1) = r.b in
    let verdict ?(hops = 0) ok = if ok then Ok (stale, hops) else Error (true, reply) in
    if body = "timeout" || String.starts_with ~prefix:"overloaded" body
       || String.starts_with ~prefix:"bad request" body
    then Error (false, reply)
    else
      match r.kind with
      | Route -> (
          match Scanf.sscanf body "unreachable (shortest %d)%!" Fun.id with
          | s ->
              verdict
                (s < 0
                && match view with
                   | Static { g; _ } -> bfs_dist g r.a r.b < 0
                   | Moving _ -> true)
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> (
              match String.index_opt body '(' with
              | None -> Error (true, reply)
              | Some i ->
                  let path = ints (String.sub body 0 i) in
                  let tail = String.sub body i (String.length body - i) in
                  let hops, shortest =
                    Scanf.sscanf tail "(%d hops, shortest %d)%!" (fun h s -> (h, s))
                  in
                  let exact =
                    match view with
                    | Static { g; _ } -> bfs_dist g r.a r.b = shortest
                    | Moving _ -> true
                  in
                  verdict ~hops
                    (ends path && walk in_graph path
                    && hops = List.length path - 1
                    && hops = shortest && exact)))
      | Paths ->
          if body = "none" then
            verdict
              (match view with
              | Static { h; _ } -> Disjoint_paths.max_disjoint h r.a r.b < 2
              | Moving _ -> true)
          else begin
            let ps = List.map ints (String.split_on_char '|' body) in
            let inner =
              List.concat_map (List.filter (fun v -> v <> r.a && v <> r.b)) ps
            in
            let distinct = List.length (List.sort_uniq compare inner) = List.length inner in
            verdict
              (List.length ps = 2 && distinct
              && List.for_all (fun p -> ends p && walk in_h p) ps)
          end
      | Advert -> (
          let got = List.sort compare (ints body) in
          match view with
          | Static { h_adj; _ } ->
              verdict (got = List.sort compare (Array.to_list h_adj.(r.a)))
          | Moving g -> verdict (List.for_all (fun v -> Graph.mem_edge g r.a v) got))
  end

let check_reply view r reply =
  match check_reply view r reply with
  | v -> v
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _ | Invalid_argument _) ->
      Error (true, reply)

(* {1 Phases} *)

(* Closed loop: offer one delta, wait until the leader's view covers it
   ([Service.idle]), then until the warm replica's view_seq reaches the
   leader's. In the traced run, once both are quiet, the same delta is
   replayed through state the benchmark owns — a Repair.t, a Store and
   a WAL writer with the leader's policy — to split the leader's time
   by layer. *)
let write_phase res l warm shadow ~req0 deltas =
  List.iteri (fun i d ->
    let i = req0 + i in
    incr attempted;
    let t0 = now () in
    match Service.offer l.svc d with
    | Error e -> fail_op ~wrong_answer:false ("offer: " ^ e)
    | Ok () ->
        let t1 = wait_until "leader view" (fun () -> Service.idle l.svc) in
        let t2 = wait_until "replica view" (caught_up l warm) in
        let visible = t1 -. t0 and rvisible = t2 -. t0 in
        push res.visible (ms_of_s visible);
        push res.rvisible (ms_of_s rvisible);
        match shadow with
        | None -> ()
        | Some (rep, store, wal) ->
            let req = 1_000_000 + i in
            ignore (record ~req ~parent:0 "net/replica_visible" t0 t2);
            let vid = record ~req ~parent:0 "serve/visible" t0 t1 in
            let sp name f = span ~req ~parent:vid name f in
            let o, _, d_rep = sp "dynamic/repair" (fun () -> Repair.apply rep d) in
            let _, _, d_app = sp "store/append" (fun () -> Store.append store d) in
            let f0 = counter "store/wal_fsyncs" and b0 = counter "store/wal_bytes" in
            let _, _, d_wal = sp "store/wal_append" (fun () -> Wal.append wal d) in
            res.fsyncs <- res.fsyncs + counter "store/wal_fsyncs" - f0;
            res.wal_bytes <- res.wal_bytes + counter "store/wal_bytes" - b0;
            let _, _, d_view =
              sp "routing/view_build" (fun () ->
                  let g, sp = Repair.publish rep in
                  ignore (Link_state.make g sp);
                  ignore (Edge_set.to_graph sp))
            in
            let ms = ms_of_s in
            push res.repair (ms d_rep);
            push res.store_append (ms d_app);
            push res.append_self (ms (d_app -. d_rep));
            push res.wal_append (ms d_wal);
            push res.view_build (ms d_view);
            push res.writer_self (ms (visible -. d_app -. d_view));
            (* the replica starts once the record is logged, while the
               leader is still repairing: its path is the leader's WAL
               append, the stream, and its own append and view build *)
            push res.stream_self (ms (rvisible -. d_wal -. d_app -. d_view));
            res.dirty <- res.dirty + o.Repair.dirty;
            res.rebuilt <- res.rebuilt + o.Repair.rebuilt;
            res.escalations <- res.escalations + o.Repair.escalations;
            res.edges_changed <- res.edges_changed + o.Repair.edges_changed;
            res.shadow_deltas <- res.shadow_deltas + 1)
    deltas

(* A cold replica joins in an empty directory and replays the backlog
   while the leader is quiescent. *)
let catchup_phase res l ~dir =
  incr attempted;
  let t0 = now () in
  let r = follow ~dir l in
  let t1 = wait_until ~timeout_s:100. "cold replica catch-up" (caught_up l r) in
  push res.catchup (t1 -. t0);
  r

(* The direct computation a reader performs for one request, on a view
   the benchmark holds: the innermost layers of the traced chain. *)
type direct = { d_g : Graph.t; d_ls : Link_state.t; d_h : Graph.t; d_adj : int array array }

let direct_of svc =
  let g, strategies = Service.peek svc in
  let sp = List.assoc spec strategies in
  { d_g = g; d_ls = Link_state.make g sp; d_h = Edge_set.to_graph sp;
    d_adj = Edge_set.to_adjacency sp }

(* The same request once more through each layer below [Repl.request]
   ([rid], [d_req]): [Proto.exec] of the line, [Service.query], and the
   direct compute on the published view. Each layer's self time is its
   span minus the span below it. *)
let trace_chain res l env direct r line ~req ~rid ~d_req =
  let _, eid, d_exec =
    span ~req ~parent:rid "net/proto_exec" (fun () -> Proto.exec env line)
  in
  let q =
    match r.kind with
    | Route -> Service.Route { src = r.a; dst = r.b }
    | Paths -> Service.Paths { src = r.a; dst = r.b; k = 2 }
    | Advert -> Service.Advert r.a
  in
  let _, qid, d_q = span ~req ~parent:eid "serve/query" (fun () -> Service.query l.svc q) in
  let dv = direct () in
  let sp name f =
    let _, _, d = span ~req ~parent:qid name f in
    d
  in
  let visited = Obs.histogram "bfs/visited" in
  let v0 = Obs.histogram_sum visited in
  let compute =
    match r.kind with
    | Route ->
        let d_route =
          sp "routing/route" (fun () -> Link_state.route dv.d_ls ~src:r.a ~dst:r.b)
        in
        let d_dp = sp "graph/dist_pair" (fun () -> Bfs.dist_pair dv.d_g r.a r.b) in
        push res.route_ms (ms_of_s d_route);
        push res.dist_pair_ms (ms_of_s d_dp);
        d_route +. d_dp
    | Paths ->
        let d =
          sp "graph/paths" (fun () -> Disjoint_paths.min_sum_paths dv.d_h ~k:2 r.a r.b)
        in
        push res.paths_ms (ms_of_s d);
        d
    | Advert -> sp "serve/advert_lookup" (fun () -> Array.to_list dv.d_adj.(r.a))
  in
  if r.kind <> Advert then begin
    res.bfs_visited <- res.bfs_visited +. (Obs.histogram_sum visited -. v0);
    res.bfs_queries <- res.bfs_queries + 1
  end;
  let ks = List.assoc r.kind res.kind_self in
  let layers = [| res.req_self; res.proto_self; res.query_self |] in
  List.iteri
    (fun i x ->
      push ks.(i) (ms_of_s x);
      if i < Array.length layers then push layers.(i) (ms_of_s x))
    [ d_req -. d_exec; d_exec -. d_q; d_q -. compute; compute ]

(* Closed-loop reads over one TCP connection. With [mixed = Some
   (rate, deltas)], deltas are due every 1/rate seconds and
   are offered from this same thread between reads; each is timed from
   when it was due until [Service.idle] is first seen, and the reads go
   on until every delta is visible. Otherwise exactly [reads] requests
   run. In the traced run every second request is followed by the same
   request through each layer below it. *)
let read_phase ~trace res l view ~reads ~mixed next_read =
  let fd =
    match Repl.connect_query ~host ~port:(Repl.leader_port l.ld) ~timeout_s:10. with
    | Ok fd -> fd
    | Error e -> failwith ("connect: " ^ e)
  in
  let env = Proto.leader_env l.svc in
  (* the direct-compute view, rebuilt when the published view moves *)
  let cached = ref (Service.view_seq l.svc, direct_of l.svc) in
  let direct () =
    let seq = Service.view_seq l.svc in
    if fst !cached <> seq then cached := (seq, direct_of l.svc);
    snd !cached
  in
  let offered = ref 0 and pending = ref [] in
  let t_start = now () in
  let more () =
    match mixed with
    | None -> res.reads < reads
    | Some (_, deltas) -> !offered < Array.length deltas || !pending <> []
  in
  let pump () =
    match mixed with
    | None -> ()
    | Some (rate, deltas) ->
        let count = Array.length deltas in
        if !pending <> [] && Service.idle l.svc then begin
          let t = now () in
          List.iter (fun due -> push res.open_visible (ms_of_s (t -. due))) !pending;
          pending := []
        end;
        let due = t_start +. (float_of_int !offered /. rate) in
        if !offered < count && now () >= due then begin
          incr offered;
          incr attempted;
          let t = now () in
          push res.late (ms_of_s (t -. due));
          match Service.offer l.svc deltas.(!offered - 1) with
          | Ok () -> pending := due :: !pending
          | Error e -> fail_op ~wrong_answer:false ("offer: " ^ e)
        end
  in
  while more () do
    pump ();
    let r = next_read () in
    let line = read_line r in
    incr attempted;
    res.reads <- res.reads + 1;
    let traced = trace && res.reads mod 2 = 0 in
    let req = res.reads in
    let request () = Repl.request fd ~timeout_s:10. line in
    let reply, rid, d_req =
      if traced then span ~req ~parent:0 "net/request" request
      else
        let t0 = now () in
        let reply = request () in
        (reply, 0, now () -. t0)
    in
    (match reply with
    | Error e -> fail_op ~wrong_answer:false (line ^ ": " ^ e)
    | Ok reply -> (
        push (List.assoc r.kind res.lat) (ms_of_s d_req);
        match check_reply view r reply with
        | Ok (stale, hops) ->
            if stale then res.stale <- res.stale + 1;
            if r.kind = Route then begin
              res.routes <- res.routes + 1;
              res.hops <- res.hops + hops
            end
        | Error (wrong_answer, why) -> fail_op ~wrong_answer (line ^ " -> " ^ why)));
    if trace then
      push (List.assoc r.kind (if traced then res.traced_req else res.untraced_req))
        (ms_of_s d_req);
    if traced then trace_chain res l env direct r line ~req ~rid ~d_req
  done;
  res.read_s <- now () -. t_start;
  Unix.close fd

(* {1 Metrics} *)

type plan = {
  write_deltas : int;
  reads : int;  (* closed-loop reads when no open-loop deltas run *)
  mixed : (float * int) option;  (* open-loop delta rate and count *)
}

(* [--seconds] sets a fixed operation budget, not a duration: every run
   of a workload replays the same number of seeded operations, sized so
   that the phase it is about takes roughly that long. *)
(* A measured run is [parts] processes (see run_parts). *)
let parts = 3

let plan_of workload seconds =
  match workload with
  | "query" -> Some { write_deltas = 100; reads = 60 * seconds; mixed = None }
  | "mixed" -> Some { write_deltas = 100; reads = 0; mixed = Some (5.0, 5 * seconds) }
  | _ -> None

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let or_zero x = if Float.is_nan x then 0. else x

let end_to_end res ~open_visible =
  let lat k = List.assoc k res.lat in
  let visible = if open_visible then res.open_visible else res.visible in
  [ ("setup_s", p50 res.setup, "s");
    ("route_p50_ms", p50 (lat Route), "ms");
    ("route_p90_ms", p90 (lat Route), "ms");
    ("paths_p50_ms", p50 (lat Paths), "ms");
    ("paths_p90_ms", p90 (lat Paths), "ms");
    ("advert_p50_ms", p50 (lat Advert), "ms");
    ("advert_p90_ms", p90 (lat Advert), "ms");
    ("read_qps", float_of_int res.reads /. res.read_s, "1/s");
    ("visible_p50_ms", p50 visible, "ms");
    ("visible_p90_ms", p90 visible, "ms");
    ("replica_visible_p50_ms", p50 res.rvisible, "ms");
    ("replica_visible_p90_ms", p90 res.rvisible, "ms");
    ("catchup_s", p50 res.catchup, "s");
    ("peak_rss_mb", p50 res.rss, "MB") ]

(* Share of an end-to-end median the per-layer medians leave unexplained. *)
let unattributed total parts =
  let t = p50 total in
  100. *. (t -. List.fold_left (fun acc s -> acc +. p50 s) 0. parts) /. t

let per_layer res =
  let deltas = res.shadow_deltas in
  let ks k = List.assoc k res.kind_self in
  let sum_p50 l = List.fold_left (fun acc (_, s) -> acc +. or_zero (p50 s)) 0. l in
  let untraced = sum_p50 res.untraced_req and traced = sum_p50 res.traced_req in
  [ ("graph.load_ms", p50 res.load, "ms");
    ("graph.dist_pair_ms", p50 res.dist_pair_ms, "ms");
    ("graph.paths_ms", p50 res.paths_ms, "ms");
    ("graph.bfs_visited_per_query",
      res.bfs_visited /. float_of_int (max 1 res.bfs_queries), "count");
    ("routing.route_ms", p50 res.route_ms, "ms");
    ("routing.route_hops", ratio res.hops res.routes, "count");
    ("routing.view_build_ms", p50 res.view_build, "ms");
    ("serve.query_self_ms", p50 res.query_self, "ms");
    ("serve.writer_self_ms", p50 res.writer_self, "ms");
    ("serve.stale_read_ratio", ratio res.stale res.reads, "ratio");
    ("serve.batch_size", res.batched /. float_of_int (max 1 res.batches), "count");
    ("net.request_self_ms", p50 res.req_self, "ms");
    ("net.proto_self_ms", p50 res.proto_self, "ms");
    ("net.bytes_per_request", ratio res.bytes res.reads, "bytes");
    ("net.frames_per_request", ratio res.frames res.reads, "count");
    ("net.stream_self_ms", p50 res.stream_self, "ms");
    ("net.ship_ms", res.ship_ms, "ms");
    ("net.records_streamed", float_of_int res.records_streamed, "count");
    ("dynamic.repair_p50_ms", p50 res.repair, "ms");
    ("dynamic.repair_p90_ms", p90 res.repair, "ms");
    ("dynamic.dirty_nodes_per_delta", ratio res.dirty deltas, "count");
    ("dynamic.trees_rebuilt_per_delta", ratio res.rebuilt deltas, "count");
    ("dynamic.escalations", float_of_int res.escalations, "count");
    ("dynamic.edges_changed_per_tree", ratio res.edges_changed res.rebuilt, "ratio");
    ("dynamic.init_ms", p50 res.init, "ms");
    ("store.wal_append_ms", p50 res.wal_append, "ms");
    ("store.append_self_ms", p50 res.append_self, "ms");
    ("store.fsyncs_per_delta", ratio res.fsyncs deltas, "count");
    ("store.wal_bytes_per_delta", ratio res.wal_bytes deltas, "bytes");
    ("store.create_ms", p50 res.create, "ms");
    ("store.recover_ms", res.recover_ms, "ms");
    ("runtime.minor_gcs_per_op", res.minor_gcs /. float_of_int (max 1 res.ops), "count");
    ("runtime.major_gcs_per_op", res.major_gcs /. float_of_int (max 1 res.ops), "count");
    ("runtime.peak_rss_mb", p50 res.rss, "MB");
    ("load.generator_late_p50_ms", or_zero (p50 res.late), "ms");
    ("load.generator_late_p90_ms", or_zero (p90 res.late), "ms");
    ("obs.trace_overhead_pct", 100. *. (traced -. untraced) /. untraced, "%");
    ("obs.unattributed_route_pct",
      unattributed (List.assoc Route res.traced_req) (Array.to_list (ks Route)), "%");
    ("obs.unattributed_paths_pct",
      unattributed (List.assoc Paths res.traced_req) (Array.to_list (ks Paths)), "%");
    ("obs.unattributed_advert_pct",
      unattributed (List.assoc Advert res.traced_req) (Array.to_list (ks Advert)), "%");
    ("obs.unattributed_visible_pct",
      unattributed res.visible [ res.writer_self; res.store_append; res.view_build ], "%");
    ("obs.unattributed_replica_visible_pct",
      unattributed res.rvisible
        [ res.stream_self; res.wal_append; res.store_append; res.view_build ],
      "%") ]

(* {1 Driver} *)

let run ~plan ~seed ~trace ~work ~part ~parts =
  Obs.set_enabled trace;
  let res = results () in
  rm_rf work;
  mkdir_p work;
  let path name = Filename.concat work name in
  let g0 = udg () in
  let rsg = path "graph.rsg" in
  Graph_io.write_binary rsg g0;
  let read_pool = match plan.mixed with Some _ -> 3200 | None -> plan.reads in
  let reads, next_read = read_order ~seed ~size:read_pool ~part ~parts (giant_component g0) in
  let open_loop = match plan.mixed with Some (_, count) -> count | None -> 0 in
  let st = Random.State.make [| seed; 2; part |] in
  let writes, opened =
    match edge_pools g0 [ plan.write_deltas / 2; open_loop / 2 ] with
    | [ w; o ] ->
        let writes = delta_plan st (slice ~part ~parts w) in
        (writes, Array.of_list (delta_plan st (slice ~part ~parts o)))
    | _ -> assert false
  in
  let l = setup ~trace res ~rsg ~dir:(path "leader") in
  let warm = follow ~dir:(path "warm") l in
  ignore (wait_until "warm replica" (caught_up l warm));
  let shadow =
    if trace then
      Some
        ( Repair.init spec g0,
          Store.create ~policy ~dir:(path "shadow-store") ~specs:[ spec ] g0,
          (mkdir_p (path "shadow-wal");
           Wal.create_writer ~policy ~dir:(path "shadow-wal") ~next_seq:1 ()) )
    else None
  in
  let gc0 = Gc.quick_stat () and attempted0 = !attempted in
  let seq0 = Service.view_seq l.svc and accepted0 = (Service.status l.svc).s_accepted in
  let streamed0 = counter "net/records_streamed" in
  let b0 = (hist_count "service/batch_size", hist_sum "service/batch_size") in
  (* the from-scratch spanner of a graph, built once per topology *)
  let built = ref [] in
  let reference g =
    match List.find_opt (fun (g', _) -> Graph.equal g g') !built with
    | Some (_, pairs) -> pairs
    | None ->
        let pairs = sorted_pairs (Repair.build spec g) in
        built := (g, pairs) :: !built;
        pairs
  in
  (* a replica must hold the leader's graph and a from-scratch spanner of it *)
  let check_replica name r =
    let lg, _ = Service.peek l.svc in
    let expected = reference lg in
    let g, sps = Service.peek (Repl.replica_service r) in
    gate (name ^ " replica graph equals the leader's") (Graph.equal g lg);
    gate (name ^ " replica spanner equals Repair.build")
      (sorted_pairs (List.assoc spec sps) = expected);
    ignore (Repl.stop_replica r)
  in
  (* Half the deltas. Then the warm replica is stopped, a cold replica
     catches up on that backlog while the leader is quiescent, and the
     warm replica rejoins from its own directory for the rest. *)
  let half = List.length writes / 2 in
  let w1 = List.filteri (fun i _ -> i < half) writes in
  let w2 = List.filteri (fun i _ -> i >= half) writes in
  obs_phase "write" (fun () -> write_phase res l warm shadow ~req0:0 w1);
  check_replica "warm" warm;
  let cold = obs_phase "catchup" (fun () -> catchup_phase res l ~dir:(path "cold")) in
  check_replica "cold" cold;
  let warm = follow ~dir:(path "warm") l in
  ignore (wait_until "warm replica" (caught_up l warm));
  obs_phase "write" (fun () -> write_phase res l warm shadow ~req0:half w2);
  let n_writes = List.length writes in
  gate "one writer batch per offered delta"
    (Service.view_seq l.svc = seq0 + n_writes
    && (Service.status l.svc).s_accepted = accepted0 + n_writes);
  let lg, lsp = Service.peek l.svc in
  let lsp = List.assoc spec lsp in
  gate "leader spanner equals Repair.build after the write phase"
    (sorted_pairs lsp = reference lg);
  check_replica "warm" warm;
  res.records_streamed <- counter "net/records_streamed" - streamed0;
  (match shadow with
  | Some (_, store, wal) ->
      Store.close store;
      Wal.close_writer wal;
      let ship = path "ship" in
      let _, _, d_ship =
        span ~req:0 ~parent:0 "net/ship" (fun () ->
            match Repl.ship ~host ~port:(Repl.leader_port l.ld) ~dir:ship () with
            | Ok _ -> ()
            | Error e -> failwith ("ship: " ^ e))
      in
      let (store, _), _, d_rec =
        span ~req:0 ~parent:0 "store/recover" (fun () ->
            Store.recover ~policy ~verify:false ~dir:ship ())
      in
      Store.close store;
      res.ship_ms <- ms_of_s d_ship;
      res.recover_ms <- ms_of_s d_rec
  | None -> ());
  (* read phase *)
  let view =
    match plan.mixed with
    | Some _ -> Moving g0
    | None ->
        Static { g = lg; h = Edge_set.to_graph lsp; h_adj = Edge_set.to_adjacency lsp }
  in
  let mixed = Option.map (fun (rate, _) -> (rate, opened)) plan.mixed in
  let frames0 = counter "net/frames_in" + counter "net/frames_out" in
  let bytes0 = counter "net/bytes_in" + counter "net/bytes_out" in
  let b1 = (hist_count "service/batch_size", hist_sum "service/batch_size") in
  obs_phase "read" (fun () -> read_phase ~trace res l view ~reads ~mixed next_read);
  res.frames <- counter "net/frames_in" + counter "net/frames_out" - frames0;
  res.bytes <- counter "net/bytes_in" + counter "net/bytes_out" - bytes0;
  let b2 = (hist_count "service/batch_size", hist_sum "service/batch_size") in
  (* batches of the phase that offered deltas to the leader last *)
  let bc, bs =
    if plan.mixed <> None then (fst b2 - fst b1, snd b2 -. snd b1)
    else (fst b1 - fst b0, snd b1 -. snd b0)
  in
  res.batches <- bc;
  res.batched <- bs;
  let gc1 = Gc.quick_stat () in
  res.minor_gcs <- float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  res.major_gcs <- float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections);
  res.ops <- !attempted - attempted0;
  (* final gates: every delta was undone, so the leader holds the
     generated topology; its spanner is a from-scratch build of it, and
     a remote-spanner *)
  ignore (wait_until "leader idle" (fun () -> Service.idle l.svc));
  let g, sps = Service.peek l.svc in
  let sp = List.assoc spec sps in
  gate "leader graph equals the generated topology" (Graph.equal g g0);
  gate "final leader spanner equals Repair.build"
    (sorted_pairs sp = reference g);
  (match Repair.alpha_beta spec with
  | Some (alpha, beta) ->
      gate "Verify.is_remote_spanner" (Verify.is_remote_spanner g sp ~alpha ~beta)
  | None -> ());
  stop_leader l;
  rm_rf work;
  push res.rss (peak_rss_mb ());
  res

(* {1 Parts}

   A measured run is three processes, one after another, each replaying
   every third operation of the run's populations with its own
   deployment. Pooling their samples averages what a single process does
   to a run (memory layout, where the domains land), and a part that met
   a busy host can be rerun alone (see max_steal) instead of the whole
   run. A part hands its raw samples to the parent as JSON. *)

let raw_samples res =
  [ ("setup", res.setup); ("route", List.assoc Route res.lat);
    ("paths", List.assoc Paths res.lat); ("advert", List.assoc Advert res.lat);
    ("visible", res.visible); ("open_visible", res.open_visible);
    ("rvisible", res.rvisible); ("catchup", res.catchup); ("rss", res.rss) ]

let raw_json res =
  Json.Obj
    (List.map (fun (k, s) -> (k, Json.List (List.map (fun x -> Json.Float x) !s)))
       (raw_samples res)
    @ [ ("reads", Json.Int res.reads); ("read_s", Json.Float res.read_s);
        ("attempted", Json.Int !attempted); ("failed", Json.Int !failed);
        ("wrong", Json.Int !wrong);
        ("gates", Json.List (List.map (fun g -> Json.String g) !gate_failures)) ])

let absorb res json =
  let num = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan in
  let field k =
    match Json.member k json with Some v -> v | None -> failwith ("part result lacks " ^ k)
  in
  let int k = int_of_float (num (field k)) in
  List.iter
    (fun (k, s) ->
      match field k with
      | Json.List l -> s := List.rev_append (List.map num l) !s
      | _ -> failwith ("part result: bad " ^ k))
    (raw_samples res);
  res.reads <- res.reads + int "reads";
  res.read_s <- res.read_s +. num (field "read_s");
  attempted := !attempted + int "attempted";
  failed := !failed + int "failed";
  wrong := !wrong + int "wrong";
  match field "gates" with
  | Json.List l ->
      List.iter (function Json.String g -> gate_failures := g :: !gate_failures | _ -> ()) l
  | _ -> ()

(* A part that lost more than [max_steal] of the machine's CPU time to
   the hypervisor (see cpu_steal_s) timed the host, not the program: it
   is discarded and run again, at most [retries] times in a run, which
   bounds what a run can cost. *)
let max_steal = 0.05
let retries = 2

(* Run the parts as child processes of this executable, one at a time;
   the pooled results and the number of parts discarded. *)
let run_parts ~args ~work =
  rm_rf work;
  mkdir_p work;
  let res = results () and discarded = ref 0 in
  let cpus = float_of_int (Domain.recommended_domain_count ()) in
  for part = 0 to parts - 1 do
    let raw = Filename.concat work (Printf.sprintf "part-%d.json" part) in
    let argv =
      Array.of_list
        ((Sys.executable_name :: args) @ [ "--part"; string_of_int part; "--raw"; raw ])
    in
    let rec attempt () =
      let t0 = now () and steal0 = cpu_steal_s () in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr
      in
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith (Printf.sprintf "part %d failed" part));
      let stolen = cpu_steal_s () -. steal0 in
      if !discarded < retries && stolen > max_steal *. cpus *. (now () -. t0) then begin
        incr discarded;
        prerr_endline
          (Printf.sprintf "perfbench: part %d lost %.1f s of CPU to steal; running it again"
             part stolen);
        attempt ()
      end
    in
    attempt ();
    match Json.parse (In_channel.with_open_bin raw In_channel.input_all) with
    | Ok json -> absorb res json
    | Error e -> failwith (Printf.sprintf "part %d: %s" part e)
  done;
  rm_rf work;
  (res, !discarded)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let dir = ref ".perfbench" and part = ref 0 and raw = ref None in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "query|mixed");
      ("--seed", Arg.Set_int seed, "N  seed of the operation order");
      ("--seconds", Arg.Set_int seconds, "S  operation budget, in seconds of work");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run");
      ("--dir", Arg.Set_string dir, "DIR  working and results directory");
      ("--part", Arg.Set_int part, "K  (internal) run part K of a measured run");
      ("--raw", Arg.String (fun f -> raw := Some f), "FILE  (internal) part's raw samples") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let plan =
    match plan_of !workload !seconds with
    | Some p
      when !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1) && !part >= 0
           && !part < parts ->
        p
    | _ ->
        prerr_endline
          "perfbench: need --workload query|mixed --seed N>=0 --seconds S>=1 \
           --trace 0|1";
        exit 2
  in
  let trace = !trace = 1 in
  mkdir_p !dir;
  let work = Filename.concat !dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  let guarded f =
    try f ()
    with e ->
      prerr_endline ("perfbench: run aborted: " ^ Printexc.to_string e);
      (try rm_rf work with Unix.Unix_error _ | Sys_error _ -> ());
      exit 1
  in
  match !raw with
  | Some file ->
      let res =
        guarded (fun () -> run ~plan ~seed:!seed ~trace:false ~work ~part:!part ~parts)
      in
      write_file file (Json.to_string (raw_json res))
  | None ->
      let results_dir = Filename.concat !dir "results" in
      mkdir_p results_dir;
      let env =
        [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
          ("ocaml", Json.String Sys.ocaml_version);
          ("wal_policy", Json.String (Wal.policy_to_string policy));
          ("store_fs", Json.String (filesystem !dir));
          ("workload", Json.String !workload); ("seed", Json.Int !seed);
          ("seconds", Json.Int !seconds); ("trace", Json.Bool trace) ]
      in
      print_endline ("perfbench env: " ^ Json.to_string (Json.Obj env));
      let steal0 = cpu_steal_s () in
      let res, discarded =
        guarded (fun () ->
            if trace then (run ~plan ~seed:!seed ~trace ~work ~part:0 ~parts:1, 0)
            else
              run_parts ~work
                ~args:
                  [ "--workload"; !workload; "--seed"; string_of_int !seed; "--seconds";
                    string_of_int !seconds; "--trace"; "0"; "--dir"; !dir ])
      in
      let metrics =
        if trace then per_layer res else end_to_end res ~open_visible:(plan.mixed <> None)
      in
      let env =
        env
        @ [ ("cpu_steal_s", Json.Float (cpu_steal_s () -. steal0));
            ("parts_discarded", Json.Int discarded) ]
      in
      let correct = !wrong = 0 && !gate_failures = [] in
      let result =
        Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics)) ]
      in
      let base =
        Filename.concat results_dir
          (Printf.sprintf "%s-seed%d-trace%d" !workload !seed (Bool.to_int trace))
      in
      let line j = Json.to_string j ^ "\n" in
      write_file (base ^ ".json")
        (Json.to_string ~pretty:true (Json.Obj [ ("env", Json.Obj env); ("result", result) ]));
      if trace then
        write_file (base ^ ".trace.jsonl")
          (String.concat ""
             (List.rev_map (fun s -> line (span_json s)) !spans
             @ List.rev_map
                 (fun (phase, d) -> line (Json.Obj [ ("phase", Json.String phase); ("obs", d) ]))
                 !obs_marks));
      print_endline (Json.to_string result);
      if not correct then exit 1
