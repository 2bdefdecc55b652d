(* Metamorphic and structural invariants: locality of the
   constructions, monotonicity of the remote-spanner property, the
   asymmetry of d_{H_u} vs d_{H_v}, and adversarial edge cases. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- *)
(* Locality: the constructions decide each tree from a bounded-radius
   view, so on a disjoint union they behave component-wise. *)

let disjoint_union g1 g2 =
  let off = Graph.n g1 in
  let es =
    Graph.fold_edges (fun acc a b -> (a, b) :: acc) [] g1
    @ Graph.fold_edges (fun acc a b -> (a + off, b + off) :: acc) [] g2
  in
  Graph.make ~n:(Graph.n g1 + Graph.n g2) es

let edge_list h = List.sort compare (Edge_set.to_list h)

let test_union_locality () =
  let g1 = Gen.petersen () and g2 = Gen.grid 3 4 in
  let g = disjoint_union g1 g2 in
  let off = Graph.n g1 in
  List.iter
    (fun (name, build) ->
      let combined = edge_list (build g) in
      let part1 = edge_list (build g1) in
      let part2 =
        List.map (fun (a, b) -> (a + off, b + off)) (edge_list (build g2))
      in
      Alcotest.(check (list (pair int int)))
        (name ^ " component-wise")
        (List.sort compare (part1 @ part2))
        combined)
    [
      ("exact", fun g -> Remote_spanner.exact_distance g);
      ("low-stretch", fun g -> Remote_spanner.low_stretch g ~eps:0.5);
      ("k-conn", fun g -> Remote_spanner.k_connecting g ~k:2);
      ("2-conn", fun g -> Remote_spanner.two_connecting g);
    ]

(* ---------------------------------------------------------------- *)
(* Monotonicity: adding edges to a remote-spanner keeps it one. *)

let test_superset_still_spanner () =
  let rand = Rand.create 51 in
  let g = Gen.erdos_renyi (Rand.create 53) 25 0.2 in
  let h = Remote_spanner.low_stretch g ~eps:0.5 in
  for _ = 1 to 5 do
    let h' = Edge_set.copy h in
    Graph.iter_edges (fun u v -> if Rand.int rand 3 = 0 then Edge_set.add h' u v) g;
    check "superset is (1.5,0)-RS" true (Verify.is_remote_spanner g h' ~alpha:1.5 ~beta:0.0)
  done

let test_relaxed_guarantee_still_holds () =
  (* (1,0)-RS is also (alpha,beta)-RS for any weaker pair *)
  let g = Gen.grid 4 4 in
  let h = Remote_spanner.exact_distance g in
  List.iter
    (fun (a, b) -> check "weaker guarantee" true (Verify.is_remote_spanner g h ~alpha:a ~beta:b))
    [ (1.0, 0.0); (1.0, 1.0); (1.5, 0.0); (2.0, -1.0); (3.0, 2.0) ]

(* ---------------------------------------------------------------- *)
(* Asymmetry: d_{H_u}(u,v) and d_{H_v}(v,u) genuinely differ — the
   paper stresses the definition is asymmetric "as is the knowledge of
   u and v in a link state routing protocol". *)

let test_direction_asymmetry_exists () =
  (* P4: 0-1-2-3 with H = {1-2} only.
     From 0: H_0 = {0-1, 1-2}: d_{H_0}(0,2) = 2 but 3 unreachable.
     From 2: H_2 = {1-2, 2-3}: d_{H_2}(2,0) = 2. So (0,2): 2 = 2 both
     ways... use the pair (0,3): unreachable from 0, while from 3:
     H_3 = {2-3, 1-2}: 3-2-1-0? 1-0 not in H_3: unreachable too.
     Use H = {2-3}: from 1: H_1 = {0-1,1-2,2-3}: d(1,3) = 2.
     From 3: H_3 = {2-3}: d(3,1) = unreachable. *)
  let g = Gen.path_graph 4 in
  let h = Edge_set.create g in
  Edge_set.add h 2 3;
  let adj = Edge_set.to_adjacency h in
  let from1 = Bfs.augmented_dist g adj 1 in
  let from3 = Bfs.augmented_dist g adj 3 in
  check_int "1 reaches 3" 2 from1.(3);
  check_int "3 cannot reach 1" (-1) from3.(1)

let test_asymmetric_slack_on_random () =
  (* exhibit a pair with different slacks in the two directions *)
  let g = Gen.erdos_renyi (Rand.create 57) 20 0.15 in
  let h = Edge_set.create g in
  (* keep one third of the edges *)
  let rand = Rand.create 59 in
  Graph.iter_edges (fun u v -> if Rand.int rand 3 = 0 then Edge_set.add h u v) g;
  let adj = Edge_set.to_adjacency h in
  let asym = ref false in
  Graph.iter_vertices
    (fun u ->
      let du = Bfs.augmented_dist g adj u in
      Graph.iter_vertices
        (fun v ->
          if u < v then begin
            let dv = Bfs.augmented_dist g adj v in
            if du.(v) <> dv.(u) then asym := true
          end)
        g)
    g;
  check "asymmetry observed" true !asym

(* ---------------------------------------------------------------- *)
(* Edge cases for every construction *)

let constructions =
  [
    ("exact", fun g -> Remote_spanner.exact_distance g);
    ("low-stretch", fun g -> Remote_spanner.low_stretch g ~eps:0.5);
    ("gdy r3b1", fun g -> Remote_spanner.rem_span g ~r:3 ~beta:1);
    ("k-conn", fun g -> Remote_spanner.k_connecting g ~k:2);
    ("2-conn", fun g -> Remote_spanner.two_connecting g);
    ("mis k3", fun g -> Remote_spanner.k_connecting_mis g ~k:3);
  ]

let test_empty_graph () =
  let g = Gen.empty 0 in
  List.iter
    (fun (name, build) -> check_int (name ^ " empty") 0 (Edge_set.cardinal (build g)))
    constructions

let test_isolated_vertices () =
  let g = Gen.empty 7 in
  List.iter
    (fun (name, build) -> check_int (name ^ " isolated") 0 (Edge_set.cardinal (build g)))
    constructions

let test_single_edge () =
  let g = Graph.make ~n:2 [ (0, 1) ] in
  List.iter
    (fun (name, build) ->
      (* no distance-2 pairs: every tree is trivial *)
      check_int (name ^ " single edge") 0 (Edge_set.cardinal (build g)))
    constructions

let test_complete_graph_trivial () =
  let g = Gen.complete 6 in
  List.iter
    (fun (name, build) ->
      check_int (name ^ " complete") 0 (Edge_set.cardinal (build g));
      check (name ^ " still (1,0)-RS") true
        (Verify.is_remote_spanner g (build g) ~alpha:1.0 ~beta:0.0))
    constructions

let test_star_needs_nothing_but_center_edges () =
  (* from each leaf, the single center dominates everything *)
  let g = Gen.star 10 in
  let h = Remote_spanner.exact_distance g in
  check_int "star spanner = star" 9 (Edge_set.cardinal h);
  check "(1,0)" true (Verify.is_remote_spanner g h ~alpha:1.0 ~beta:0.0)

let test_very_long_path () =
  let g = Gen.path_graph 60 in
  let h = Remote_spanner.low_stretch g ~eps:0.25 in
  (* on a path every edge is needed by some tree *)
  check_int "all edges" (Graph.m g) (Edge_set.cardinal h);
  check "verified" true (Verify.is_remote_spanner g h ~alpha:1.25 ~beta:0.5)

let test_all_constructions_deterministic () =
  (* repeated runs must agree edge-for-edge: the distributed execution
     and the parallel path both depend on it *)
  let rand = Rand.create 63 in
  let pts = Rs_geometry.Sampler.uniform rand ~n:80 ~dim:2 ~side:4.2 in
  let g = Rs_geometry.Unit_ball.udg pts in
  List.iter
    (fun (name, build) ->
      check (name ^ " deterministic") true (Edge_set.equal (build g) (build g)))
    constructions

let test_dense_random_regular () =
  let g = Gen.random_regular (Rand.create 61) 24 6 in
  List.iter
    (fun (name, build) ->
      let h = build g in
      check (name ^ " nonempty") true (Edge_set.cardinal h > 0))
    constructions;
  check "(1,0) verified" true
    (Verify.is_remote_spanner g (Remote_spanner.exact_distance g) ~alpha:1.0 ~beta:0.0)

let () =
  Alcotest.run "invariants"
    [
      ( "metamorphic",
        [
          Alcotest.test_case "locality on disjoint unions" `Quick test_union_locality;
          Alcotest.test_case "superset monotone" `Quick test_superset_still_spanner;
          Alcotest.test_case "weaker guarantees" `Quick test_relaxed_guarantee_still_holds;
        ] );
      ( "asymmetry",
        [
          Alcotest.test_case "directional reachability" `Quick test_direction_asymmetry_exists;
          Alcotest.test_case "asymmetric slack" `Quick test_asymmetric_slack_on_random;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "isolated vertices" `Quick test_isolated_vertices;
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "complete graph" `Quick test_complete_graph_trivial;
          Alcotest.test_case "star" `Quick test_star_needs_nothing_but_center_edges;
          Alcotest.test_case "long path" `Quick test_very_long_path;
          Alcotest.test_case "random regular" `Quick test_dense_random_regular;
          Alcotest.test_case "all constructions deterministic" `Quick test_all_constructions_deterministic;
        ] );
    ]
