open Rs_graph
open Rs_dynamic

(* {1 Random churn} *)

let random_op rand g =
  let n = Graph.n g in
  let m = Graph.m g in
  let pick () = Rand.int rand n in
  match Rand.int rand 100 with
  | r when r < 45 || m = 0 ->
      (* an absent pair is overwhelmingly likely in sparse graphs; a
         few tries suffice, and a present pair is still a valid op *)
      let rec go tries =
        let u = pick () and v = pick () in
        if u = v then go tries
        else if Graph.mem_edge g u v && tries > 0 then go (tries - 1)
        else Delta.Add_edge (u, v)
      in
      go 8
  | r when r < 80 ->
      let u, v = Graph.edge g (Rand.int rand m) in
      Delta.Remove_edge (u, v)
  | r when r < 90 -> Delta.Node_down (pick ())
  | _ ->
      let u = pick () in
      let links =
        List.init
          (1 + Rand.int rand 3)
          (fun _ ->
            let rec go () =
              let v = pick () in
              if v = u then go () else v
            in
            go ())
        |> List.sort_uniq compare
      in
      Delta.Node_up (u, links)

let random_delta rand g =
  let rec go tries =
    let ops = List.init (1 + Rand.int rand 3) (fun _ -> random_op rand g) in
    match Delta.effect g ops with
    | [], [] when tries > 0 -> go (tries - 1)
    | _ -> ops
  in
  go 16

(* {1 Gates} *)

let wait_until ?(timeout = 20.0) ~what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      failwith ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let verify_state ~what = Store.verify_spanners ~what:(what ^ ":")

(* the snapshot encoding is deterministic, so equal states have equal
   bytes *)
let gate_byte_identical ~what dir_a dir_b =
  let recover_value suffix src =
    let copy = src ^ suffix in
    Fsutil.copy_dir src copy;
    let st, info = Store.recover ~policy:Wal.Always ~verify:false ~dir:copy () in
    let v = Snapshot.to_string (Store.snapshot_value st) in
    Store.close st;
    (info.Store.last_seq, v)
  in
  let sa, va = recover_value "-cmp-a" dir_a in
  let sb, vb = recover_value "-cmp-b" dir_b in
  if sa <> sb then
    failwith
      (Printf.sprintf "%s: stores recover to different seqs (%d vs %d)" what sa sb);
  if not (String.equal va vb) then
    failwith (Printf.sprintf "%s: stores at seq %d are not byte-identical" what sa)

(* {1 Scenario tables} *)

type failure = { scenario : string; reason : string }

type 'o scenario =
  string
  * (rand:Rand.t -> specs:Repair.spec list -> n:int -> batches:int -> dir:string -> 'o)

let run_scenarios ~harness ?only ~seed ~specs ~n ~batches ~dir table ~init ~fold =
  if batches < 4 then invalid_arg (harness ^ ".run: need at least 4 batches");
  let names = List.map fst table in
  (match only with
  | Some s when not (List.mem s names) ->
      invalid_arg
        (Printf.sprintf "%s.run: unknown scenario %s (known: %s)" harness s
           (String.concat ", " names))
  | _ -> ());
  Fsutil.mkdir_p dir;
  let rand = Rand.create seed in
  let ran, acc, failures =
    List.fold_left
      (fun ((ran, acc, failures) as st) (name, f) ->
        if only <> None && only <> Some name then st
        else
          match f ~rand ~specs ~n ~batches ~dir with
          | o -> (ran + 1, fold acc o, failures)
          | exception Failure reason -> (ran + 1, acc, { scenario = name; reason } :: failures)
          | exception e ->
              (ran + 1, acc, { scenario = name; reason = Printexc.to_string e } :: failures))
      (0, init, []) table
  in
  (ran, acc, List.rev failures)
