(* Tests for the dynamic-repair subsystem: Delta semantics, dirty-set
   repair equivalence against from-scratch builds, the escalation
   ladder, and the quiescent fast path. *)
open Rs_graph
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg ~seed ~n ~density =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. density) in
  Rs_geometry.Unit_ball.udg (Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side)

let pairs_of_set h = Edge_set.to_list h

(* ---------------------------------------------------------------- *)
(* Delta *)

let test_delta_effect_and_apply () =
  let g = Gen.path_graph 5 in
  (* net effect: redundant ops vanish, sequential ops compose *)
  let added, removed = Delta.effect g [ Delta.Add_edge (0, 2); Delta.Add_edge (0, 1) ] in
  check "existing edge add is redundant" true (added = [ (0, 2) ] && removed = []);
  let added, removed =
    Delta.effect g [ Delta.Remove_edge (1, 2); Delta.Add_edge (1, 2) ]
  in
  check "remove then add cancels" true (added = [] && removed = []);
  let g' = Delta.apply g [ Delta.Remove_edge (1, 2); Delta.Add_edge (1, 2) ] in
  check "quiescent apply returns the graph itself" true (g == g');
  let g' = Delta.apply g [ Delta.Node_down 2 ] in
  check_int "node down drops incident edges" (Graph.m g - 2) (Graph.m g');
  let g'' = Delta.apply g' [ Delta.Node_up (2, [ 1; 3 ]) ] in
  check "down then up restores" true (Graph.equal g g'')

let test_delta_diff_roundtrip () =
  let g = udg ~seed:11 ~n:40 ~density:4.0 in
  let g' = Delta.apply g [ Delta.Node_down 3; Delta.Add_edge (0, 39) ] in
  check "diff reproduces the target" true (Graph.equal g' (Delta.apply g (Delta.diff g g')));
  check "diff of equal graphs is empty" true (Delta.diff g g = [])

let test_delta_touched () =
  let t = Delta.touched ~added:[ (3, 1) ] ~removed:[ (1, 2); (5, 4) ] in
  check "touched = sorted distinct endpoints" true (t = [ 1; 2; 3; 4; 5 ])

let test_delta_parse () =
  let ops = Delta.parse "# comment\nadd 0 1\n\nremove 2 3\ndown 4\nup 4 0 2\n" in
  check "parse shapes" true
    (ops
    = [ Delta.Add_edge (0, 1); Delta.Remove_edge (2, 3); Delta.Node_down 4;
        Delta.Node_up (4, [ 0; 2 ]) ]);
  Alcotest.check_raises "unknown directive"
    (Failure "Delta.parse: line 2: unknown directive: frob") (fun () ->
      ignore (Delta.parse "add 0 1\nfrob 2"));
  Alcotest.check_raises "arity"
    (Failure "Delta.parse: line 1: expected: down U") (fun () ->
      ignore (Delta.parse "down 1 2"));
  Alcotest.check_raises "non-integer"
    (Failure "Delta.parse: line 1: not an integer: x") (fun () ->
      ignore (Delta.parse "add x 1"))

let test_delta_validation () =
  let g = Gen.path_graph 4 in
  check "out of range rejected" true
    (match Delta.effect g [ Delta.Add_edge (0, 9) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "self-loop rejected" true
    (match Delta.effect g [ Delta.Add_edge (2, 2) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------------------------------------------------------- *)
(* Repair: equivalence with from-scratch builds *)

let equivalent st =
  Repair.pairs st = pairs_of_set (Repair.build (Repair.Gdy_k { k = 1 }) (Repair.graph st))

let test_repair_quiescent () =
  let g = udg ~seed:21 ~n:60 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let h_before = Repair.spanner st in
  let u, v = (Graph.edges g).(0) in
  let o = Repair.apply st [ Delta.Remove_edge (u, v); Delta.Add_edge (u, v) ] in
  check_int "no dirty nodes" 0 o.Repair.dirty;
  check_int "no trees rebuilt" 0 o.Repair.rebuilt;
  check "graph untouched" true (Repair.graph st == g);
  check "spanner physically untouched" true (Repair.spanner st == h_before)

let test_repair_single_edge () =
  let g = udg ~seed:23 ~n:120 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let u, v = (Graph.edges g).(Graph.m g / 2) in
  let o = Repair.apply st [ Delta.Remove_edge (u, v) ] in
  check "local repair" true (o.Repair.level = Repair.Local);
  check_int "no escalations" 0 o.Repair.escalations;
  check "only a fraction of trees rebuilt" true (o.Repair.rebuilt < Graph.n g / 2);
  check "equivalent to from-scratch" true (equivalent st);
  (* and the restored edge heals back to the original spanner *)
  let o = Repair.apply st [ Delta.Add_edge (u, v) ] in
  check "restore is local too" true (o.Repair.level = Repair.Local);
  check "equivalent after restore" true (equivalent st);
  check "restored spanner = original build" true
    (Repair.pairs st = pairs_of_set (Repair.build (Repair.Gdy_k { k = 1 }) g))

let test_repair_crash_recover_batch () =
  let g = udg ~seed:29 ~n:80 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let links = Array.to_list (Graph.neighbors g 7) in
  let o = Repair.apply st [ Delta.Node_down 7; Delta.Node_up (7, links) ] in
  check_int "crash/recover in one batch is quiescent" 0 o.Repair.dirty;
  let o = Repair.apply st [ Delta.Node_down 7 ] in
  check "crash repaired locally" true (o.Repair.level = Repair.Local);
  check "equivalent after crash" true (equivalent st);
  let o = Repair.apply st [ Delta.Node_up (7, links) ] in
  check "recovery repaired locally" true (o.Repair.level = Repair.Local);
  check "equivalent after recovery" true (equivalent st)

(* Back-to-back deltas where the second strikes inside the first's
   dirty ball before any quiescent period: dirty-set tracking must not
   assume the neighborhood it is repairing was clean when the delta
   arrived. Regression shape for the serve writer, which feeds deltas
   to one long-lived state with no gate between batches. *)
let test_repair_overlapping_dirty_balls () =
  let g = udg ~seed:37 ~n:120 ~density:4.0 in
  let spec = Repair.Gdy_k { k = 1 } in
  let st = Repair.init spec g in
  (* first delta: drop an edge at a well-connected node *)
  let u =
    let best = ref 0 in
    for v = 1 to Graph.n g - 1 do
      if Graph.degree g v > Graph.degree g !best then best := v
    done;
    !best
  in
  let nbrs = Graph.neighbors g u in
  let v = nbrs.(0) in
  let o1 = Repair.apply st [ Delta.Remove_edge (u, v) ] in
  check "first repair lands" true (o1.Repair.dirty > 0);
  (* second delta: same node u and one of its still-present neighbors —
     dead center of the ball the first repair just rebuilt *)
  let w = nbrs.(1) in
  let o2 = Repair.apply st [ Delta.Remove_edge (u, w) ] in
  check "second repair overlaps the first ball" true (o2.Repair.dirty > 0);
  check "equivalent after overlapping repairs" true (equivalent st);
  (* third wave: the neighbor w goes down entirely, then everything is
     restored in reverse order — each step against a still-warm ball *)
  let w_links = Array.to_list (Graph.neighbors (Repair.graph st) w) in
  ignore (Repair.apply st [ Delta.Node_down w ]);
  check "equivalent after node-down in the same ball" true (equivalent st);
  ignore (Repair.apply st [ Delta.Node_up (w, w_links) ]);
  ignore (Repair.apply st [ Delta.Add_edge (u, w) ]);
  ignore (Repair.apply st [ Delta.Add_edge (u, v) ]);
  check "equivalent after full restore" true (equivalent st);
  check "restore lands on the original build" true
    (Repair.pairs st = pairs_of_set (Repair.build spec g));
  (* the same collision as one batch must agree with the two-step path *)
  let st2 = Repair.init spec g in
  ignore (Repair.apply st2 [ Delta.Remove_edge (u, v); Delta.Remove_edge (u, w) ]);
  let st3 = Repair.init spec g in
  ignore (Repair.apply st3 [ Delta.Remove_edge (u, v) ]);
  ignore (Repair.apply st3 [ Delta.Remove_edge (u, w) ]);
  check "batched = sequential on overlapping deltas" true
    (Repair.pairs st2 = Repair.pairs st3)

(* [restore] round-trips exported trees and rejects lists that do not
   replay into a rooted tree, naming the tree and the rule broken. *)
let test_restore_validation () =
  let g = Gen.path_graph 5 in
  let spec = Repair.Gdy_k { k = 1 } in
  let st = Repair.init spec g in
  let back = Repair.restore spec g ~trees:(Repair.export_trees st) in
  check "round trip" true (Repair.pairs back = Repair.pairs st);
  let with_tree u edges =
    let trees = Repair.export_trees st in
    trees.(u) <- edges;
    trees
  in
  let rejects name trees msg =
    Alcotest.check_raises name (Failure msg) (fun () ->
        ignore (Repair.restore spec g ~trees))
  in
  rejects "orphan child" (with_tree 0 [ (1, 2) ])
    "Repair.restore: tree 0 malformed: Tree.add_edge: parent not in tree";
  rejects "root re-parented" (with_tree 2 [ (2, 1); (1, 2) ])
    "Repair.restore: tree 2 malformed: Tree.add_edge: cannot re-parent the root";
  rejects "conflicting parents"
    (with_tree 2 [ (2, 1); (2, 3); (1, 0); (3, 4); (4, 3) ])
    "Repair.restore: tree 2 malformed: Tree.add_edge: child already has a different parent";
  rejects "absent edge" (with_tree 0 [ (0, 2) ])
    "Repair.restore: tree 0 edge (0,2) absent from the graph"

let all_specs =
  [ Repair.Gdy_k { k = 1 }; Repair.Mis_k { k = 2 }; Repair.Mis { r = 3 };
    Repair.Gdy { r = 3; beta = 1 } ]

let test_repair_all_specs () =
  let g = udg ~seed:31 ~n:50 ~density:4.0 in
  List.iter
    (fun spec ->
      let name = Format.asprintf "%a" Repair.pp_spec spec in
      let st = Repair.init spec g in
      check (name ^ " init = build") true
        (Repair.pairs st = pairs_of_set (Repair.build spec g));
      let u, v = (Graph.edges g).(0) in
      ignore (Repair.apply st [ Delta.Remove_edge (u, v) ]);
      ignore (Repair.apply st [ Delta.Node_down (Graph.n g - 1) ]);
      let reference = Repair.build spec (Repair.graph st) in
      check (name ^ " equivalent after deltas") true
        (Repair.pairs st = pairs_of_set reference);
      match Repair.alpha_beta spec with
      | Some (alpha, beta) ->
          check (name ^ " verifies") true
            (Rs_core.Verify.is_remote_spanner (Repair.graph st) (Repair.spanner st)
               ~alpha ~beta)
      | None -> ())
    all_specs

(* The ladder: an under-estimated dirty radius misses roots whose
   trees hold the removed edge; the gates catch it and the repair
   widens (and, with a radius far too small for the spec, goes all the
   way to a full rebuild) — ending equivalent regardless. *)
let test_escalation_ladder () =
  let g = Gen.path_graph 21 in
  let spec = Repair.Gdy { r = 5; beta = 1 } in
  let st = Repair.init spec g in
  let o = Repair.apply ~dirty_radius:0 st [ Delta.Remove_edge (10, 11) ] in
  check "escalated" true (o.Repair.escalations >= 1);
  check "not local" true (o.Repair.level <> Repair.Local);
  check "still equivalent" true
    (Repair.pairs st = pairs_of_set (Repair.build spec (Repair.graph st)));
  (* a mild under-estimate is healed by the 2-hop widening alone *)
  let g = Gen.path_graph 21 in
  let spec = Repair.Gdy { r = 3; beta = 1 } in
  let st = Repair.init spec g in
  let o = Repair.apply ~dirty_radius:1 st [ Delta.Remove_edge (10, 11) ] in
  check "widened suffices" true (o.Repair.level = Repair.Widened);
  check "widened equivalent" true
    (Repair.pairs st = pairs_of_set (Repair.build spec (Repair.graph st)))

let test_incremental_target () =
  let g = udg ~seed:37 ~n:40 ~density:4.0 in
  let spec = Repair.Gdy_k { k = 1 } in
  let maintain = Repair.incremental_target spec in
  let u, v = (Graph.edges g).(0) in
  let g' = Delta.apply g [ Delta.Remove_edge (u, v) ] in
  List.iter
    (fun graph ->
      check "maintained = from-scratch" true
        (maintain graph = pairs_of_set (Repair.build spec graph)))
    [ g; g; g'; g' ]

(* ---------------------------------------------------------------- *)
(* Property: random UDGs x random delta sequences (the ISSUE's
   equivalence gate, >= 50 random sequences in CI) *)

let random_delta rand g =
  let n = Graph.n g in
  let m = Graph.m g in
  let rand_op () =
    match Rand.int rand 4 with
    | 0 ->
        let u = Rand.int rand n and v = Rand.int rand n in
        if u = v then Delta.Node_down u else Delta.Add_edge (u, v)
    | 1 when m > 0 ->
        let u, v = (Graph.edges g).(Rand.int rand m) in
        Delta.Remove_edge (u, v)
    | 2 -> Delta.Node_down (Rand.int rand n)
    | _ ->
        let u = Rand.int rand n in
        let links =
          List.init (1 + Rand.int rand 3) (fun _ -> Rand.int rand n)
          |> List.filter (( <> ) u)
        in
        if links = [] then Delta.Node_down u else Delta.Node_up (u, links)
  in
  List.init (1 + Rand.int rand 3) (fun _ -> rand_op ())

let prop_incremental_equivalence seed =
  let rand = Rand.create seed in
  let n = 12 + Rand.int rand 25 in
  let g = udg ~seed:(seed + 1) ~n ~density:3.5 in
  let spec = List.nth all_specs (Rand.int rand (List.length all_specs)) in
  let st = Repair.init spec g in
  let ok = ref true in
  for _ = 1 to 3 do
    ignore (Repair.apply st (random_delta rand (Repair.graph st)));
    let g' = Repair.graph st in
    if Repair.pairs st <> pairs_of_set (Repair.build spec g') then ok := false;
    (match Repair.alpha_beta spec with
    | Some (alpha, beta) ->
        if not (Rs_core.Verify.is_remote_spanner g' (Repair.spanner st) ~alpha ~beta)
        then ok := false
    | None -> ());
    (* quiescent repair leaves the spanner physically untouched *)
    let h = Repair.spanner st in
    ignore (Repair.apply st []);
    if Repair.spanner st != h then ok := false
  done;
  !ok

(* Every spec, one random UDG and delta sequence per seed: after each
   apply the maintained spanner equals a from-scratch build of the new
   graph (pairs and the published edge set), passes the global
   (alpha, beta) check, and the last diff reconstructs it from the
   previous spanner. *)
let prop_all_specs_equivalence seed =
  let rand = Rand.create seed in
  let n = 15 + Rand.int rand 30 in
  let g = udg ~seed:(seed + 7) ~n ~density:3.5 in
  List.for_all
    (fun spec ->
      let st = Repair.init spec g in
      let ok = ref true in
      for _ = 1 to 4 do
        let sp0 = Repair.spanner st in
        let before = Edge_set.to_list sp0 in
        ignore (Repair.apply st (random_delta rand (Repair.graph st)));
        let g' = Repair.graph st in
        let built = pairs_of_set (Repair.build spec g') in
        let sp = Repair.spanner st in
        if Repair.pairs st <> built || Edge_set.to_list sp <> built then ok := false;
        if not (Edge_set.host sp == g' && Edge_set.cardinal sp = List.length built) then
          ok := false;
        (match Repair.last_diff st with
        | Some d when sp != sp0 ->
            if d.Repair.before != sp0 then ok := false;
            let kept = List.filter (fun p -> not (List.mem p d.Repair.lost)) before in
            if List.sort compare (kept @ d.Repair.gained) <> built then ok := false
        | _ -> ());
        match Repair.alpha_beta spec with
        | Some (alpha, beta) ->
            if not (Rs_core.Verify.is_remote_spanner g' sp ~alpha ~beta) then ok := false
        | None -> ()
      done;
      !ok)
    all_specs

(* An under-estimated radius leaves trees holding the changed edges
   un-recomputed: the local gate must notice and climb the ladder, and
   whatever rung it stops at must pass the global check. *)
let prop_underestimated_radius_escalates seed =
  let rand = Rand.create seed in
  let g = udg ~seed:(seed + 11) ~n:(30 + Rand.int rand 30) ~density:4.0 in
  let spec = Repair.Gdy { r = 3; beta = 1 } in
  let alpha, beta = Option.get (Repair.alpha_beta spec) in
  let st = Repair.init spec g in
  let sp = Repair.spanner st in
  (* a spanner edge some tree other than its endpoints' relies on (so
     radius 0 leaves that tree holding a removed edge) *)
  let owned_elsewhere (u, v) =
    List.exists
      (fun r -> r <> u && r <> v && List.exists (fun (p, c) -> (min p c, max p c) = (u, v))
                                      (Repair.tree_edges st r))
      (List.init (Graph.n g) Fun.id)
  in
  match List.filter owned_elsewhere (Edge_set.to_list sp) with
  | [] -> QCheck2.assume_fail ()
  | (u, v) :: _ ->
      let o = Repair.apply ~dirty_radius:0 st [ Delta.Remove_edge (u, v) ] in
      o.Repair.escalations >= 1
      && o.Repair.level <> Repair.Local
      && Rs_core.Verify.is_remote_spanner (Repair.graph st) (Repair.spanner st) ~alpha ~beta

(* Under an under-estimated radius the repaired state must still equal
   a from-scratch build, not merely verify: a fringe tree that stays
   dominating but is no longer the tree [build] would pick has to be
   caught by the gate and recomputed. *)
let prop_underestimated_radius_equals_build seed =
  let rand = Rand.create seed in
  let n = 30 in
  let g = Gen.random_connected rand n (4.0 /. float_of_int n) in
  List.for_all
    (fun spec ->
      let st = Repair.init spec g in
      List.for_all
        (fun _ ->
          ignore (Repair.apply ~dirty_radius:0 st (random_delta rand (Repair.graph st)));
          Repair.pairs st = pairs_of_set (Repair.build spec (Repair.graph st)))
        (List.init 6 Fun.id))
    all_specs

(* The pre-overlay [Delta.effect]: both edge sets as full hash tables.
   Kept as the reference the O(|delta|) overlay must reproduce. *)
let ref_effect g ops =
  let n = Graph.n g in
  let encode u v = if u <= v then (u * n) + v else (v * n) + u in
  let decode e = (e / n, e mod n) in
  let edge_tbl () =
    let t = Hashtbl.create 64 in
    Graph.iter_edges (fun u v -> Hashtbl.replace t (encode u v) ()) g;
    t
  in
  let check_vertex v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Delta: vertex %d out of range [0..%d)" v n)
  in
  let check_edge u v =
    check_vertex u;
    check_vertex v;
    if u = v then invalid_arg (Printf.sprintf "Delta: self-loop at vertex %d" u)
  in
  let after = edge_tbl () in
  List.iter
    (function
      | Delta.Add_edge (u, v) ->
          check_edge u v;
          Hashtbl.replace after (encode u v) ()
      | Delta.Remove_edge (u, v) ->
          check_edge u v;
          Hashtbl.remove after (encode u v)
      | Delta.Node_down u ->
          check_vertex u;
          Hashtbl.fold
            (fun e () acc ->
              let a, b = decode e in
              if a = u || b = u then e :: acc else acc)
            after []
          |> List.iter (Hashtbl.remove after)
      | Delta.Node_up (u, links) ->
          List.iter
            (fun v ->
              check_edge u v;
              Hashtbl.replace after (encode u v) ())
            links)
    ops;
  let before = edge_tbl () in
  let only t t' =
    Hashtbl.fold (fun e () acc -> if Hashtbl.mem t' e then acc else e :: acc) t []
    |> List.sort Int.compare |> List.map decode
  in
  (only after before, only before after)

let ref_apply g added removed =
  Graph.make ~n:(Graph.n g)
    (added @ List.filter (fun p -> not (List.mem p removed)) (Array.to_list (Graph.edges g)))

let prop_effect_matches_reference seed =
  let rand = Rand.create seed in
  let n = 8 + Rand.int rand 30 in
  let g = udg ~seed:(seed + 3) ~n ~density:3.0 in
  let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  List.for_all
    (fun _ ->
      (* mostly valid ops, sometimes an out-of-range vertex or a loop *)
      let d = random_delta rand g in
      let d =
        match Rand.int rand 6 with
        | 0 -> d @ [ Delta.Add_edge (Rand.int rand n, n + Rand.int rand 3) ]
        | 1 -> Delta.Remove_edge (1, 1) :: d
        | _ -> d
      in
      let got = outcome (fun () -> Delta.effect g d) in
      got = outcome (fun () -> ref_effect g d)
      && outcome (fun () -> Delta.validate ~n d)
         = Result.map (fun _ -> ()) got
      &&
      match got with
      | Ok (added, removed) ->
          let net = Delta.net g d in
          net.Delta.added = added && net.Delta.removed = removed
          && Graph.equal net.Delta.result (ref_apply g added removed)
      | Error _ -> true)
    (List.init 8 Fun.id)

let make_prop ?(count = 60) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count QCheck2.Gen.(int_range 0 1_000_000) prop)

(* parse/print round trip: any delta [to_string] can emit (Node_up
   links non-empty — the only shape [parse] produces) survives the
   text format, which is also the WAL record payload format *)
let delta_gen =
  let open QCheck2.Gen in
  let vertex = int_range 0 500 in
  let op =
    oneof
      [
        map2 (fun u v -> Delta.Add_edge (u, v)) vertex vertex;
        map2 (fun u v -> Delta.Remove_edge (u, v)) vertex vertex;
        map (fun u -> Delta.Node_down u) vertex;
        map2
          (fun u links -> Delta.Node_up (u, links))
          vertex
          (list_size (int_range 1 5) vertex);
      ]
  in
  list_size (int_range 0 8) op

let prop_parse_print_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse (to_string d) = d" ~count:300 delta_gen (fun d ->
         Delta.parse (Delta.to_string d) = d))

(* ---------------------------------------------------------------- *)
(* Acceptance: 2000-node UDG, single-edge delta -> < 5% of trees
   recomputed, repaired spanner passes Verify with the construction's
   (alpha, beta), equivalent to a from-scratch rebuild. *)

let test_acceptance_2000 () =
  let g = udg ~seed:41 ~n:2000 ~density:4.0 in
  let spec = Repair.Gdy_k { k = 1 } in
  let st = Repair.init spec g in
  let u, v = (Graph.edges g).(Graph.m g / 3) in
  let o = Repair.apply st [ Delta.Remove_edge (u, v) ] in
  check "local" true (o.Repair.level = Repair.Local);
  check "< 5% of trees recomputed" true
    (float_of_int o.Repair.rebuilt < 0.05 *. float_of_int (Graph.n g));
  let g' = Repair.graph st in
  check "equivalent to from-scratch" true
    (Repair.pairs st = pairs_of_set (Repair.build spec g'));
  check "passes Verify at (1, 0)" true
    (Rs_core.Verify.is_remote_spanner g' (Repair.spanner st) ~alpha:1.0 ~beta:0.0)

let () =
  Alcotest.run "dynamic"
    [
      ( "delta",
        [
          Alcotest.test_case "effect and apply" `Quick test_delta_effect_and_apply;
          Alcotest.test_case "diff roundtrip" `Quick test_delta_diff_roundtrip;
          Alcotest.test_case "touched" `Quick test_delta_touched;
          Alcotest.test_case "parse" `Quick test_delta_parse;
          Alcotest.test_case "validation" `Quick test_delta_validation;
        ] );
      ( "repair",
        [
          Alcotest.test_case "quiescent" `Quick test_repair_quiescent;
          Alcotest.test_case "single edge" `Quick test_repair_single_edge;
          Alcotest.test_case "crash/recover" `Quick test_repair_crash_recover_batch;
          Alcotest.test_case "overlapping dirty balls" `Quick test_repair_overlapping_dirty_balls;
          Alcotest.test_case "all specs" `Quick test_repair_all_specs;
          Alcotest.test_case "escalation ladder" `Quick test_escalation_ladder;
          Alcotest.test_case "restore validation" `Quick test_restore_validation;
          Alcotest.test_case "incremental target" `Quick test_incremental_target;
        ] );
      ( "properties",
        [
          make_prop "incremental repair = from-scratch" prop_incremental_equivalence;
          make_prop ~count:25 "every spec = from-scratch, verified" prop_all_specs_equivalence;
          make_prop ~count:25 "under-estimated radius escalates"
            prop_underestimated_radius_escalates;
          make_prop ~count:40 "under-estimated radius = from-scratch"
            prop_underestimated_radius_equals_build;
          make_prop ~count:100 "effect = hash-table reference" prop_effect_matches_reference;
          prop_parse_print_roundtrip;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "2000-node single-edge" `Slow test_acceptance_2000 ] );
    ]
