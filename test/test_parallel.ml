(* Tests for the multicore construction path and the stretch
   histogram. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let big = udg 131 400
let small = Gen.petersen ()

let test_parallel_equals_sequential () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun g ->
          check (name ^ " identical") true (Edge_set.equal (build ~domains:4 g) (build ~domains:1 g)))
        [ big; small ])
    [
      ("exact", fun ~domains g -> Remote_spanner.exact_distance ~domains g);
      ("low-stretch", fun ~domains g -> Remote_spanner.low_stretch ~domains g ~eps:0.5);
      ("k-conn", fun ~domains g -> Remote_spanner.k_connecting ~domains g ~k:2);
      ("2-conn", fun ~domains g -> Remote_spanner.two_connecting ~domains g);
    ]

let test_parallel_domain_counts () =
  (* result independent of the domain count *)
  let reference = Remote_spanner.exact_distance big in
  List.iter
    (fun d ->
      check
        (Printf.sprintf "domains=%d" d)
        true
        (Edge_set.equal reference (Remote_spanner.exact_distance ~domains:d big)))
    [ 2; 3; 5; 7; 16 ]

let test_parallel_empty_and_tiny () =
  let g0 = Gen.empty 0 in
  check_int "empty" 0 (Edge_set.cardinal (Remote_spanner.exact_distance ~domains:4 g0));
  let g1 = Gen.path_graph 3 in
  check "tiny equals seq" true
    (Edge_set.equal
       (Remote_spanner.exact_distance ~domains:4 g1)
       (Remote_spanner.exact_distance g1))

let test_default_domains_positive () =
  check "positive" true (Sharded.default_domains () >= 1)

let test_parallel_verify_agrees () =
  (* the scratch-based early-abort check against the reference oracle,
     positive and negative cases, across domain counts *)
  let g = big in
  let good = Remote_spanner.low_stretch g ~eps:0.5 in
  let bad = Edge_set.copy good in
  (* break it: drop a third of its edges *)
  let rand = Rand.create 7 in
  Edge_set.iter (fun u v -> if Rand.int rand 3 = 0 then Edge_set.remove bad u v) good;
  let reference h =
    Verify.remote_spanner_violations ~max_violations:1 g h ~alpha:1.5 ~beta:0.0 = []
  in
  check "good is good" true (reference good);
  check "bad is bad" false (reference bad);
  List.iter
    (fun d ->
      check "good agrees" true
        (Verify.is_remote_spanner ~domains:d g good ~alpha:1.5 ~beta:0.0 = reference good);
      check "bad agrees" true
        (Verify.is_remote_spanner ~domains:d g bad ~alpha:1.5 ~beta:0.0 = reference bad))
    [ 1; 3; 6 ]

(* ---------------------------------------------------------------- *)
(* stretch histogram *)

let test_histogram_exact_spanner () =
  let g = udg 133 60 in
  let h = Remote_spanner.exact_distance g in
  let hist = Verify.stretch_histogram g h in
  check_int "all exact" hist.Verify.pairs (hist.Verify.exact + hist.Verify.unreachable);
  check_int "no unreachable among connected" 0 hist.Verify.unreachable;
  Alcotest.(check (float 1e-9)) "ratio 1" 1.0 hist.Verify.mean_ratio;
  Alcotest.(check (list (pair int int))) "single bucket"
    [ (0, hist.Verify.pairs) ] hist.Verify.slack_counts

let test_histogram_detours_counted () =
  let g = Gen.cycle 10 in
  let h = Remote_spanner.low_stretch g ~eps:1.0 in
  let hist = Verify.stretch_histogram g h in
  check "pairs counted" true (hist.Verify.pairs > 0);
  let total = List.fold_left (fun a (_, c) -> a + c) 0 hist.Verify.slack_counts in
  check_int "buckets sum to reachable" (hist.Verify.pairs - hist.Verify.unreachable) total;
  check "mean ratio within guarantee" true (hist.Verify.mean_ratio <= 2.0)

let test_histogram_empty_h () =
  let g = Gen.path_graph 6 in
  let h = Edge_set.create g in
  let hist = Verify.stretch_histogram g h in
  (* only distance-1 neighbors are reachable via the free hop, and they
     are not counted (pairs are non-adjacent); everything else lost *)
  check_int "all unreachable" hist.Verify.pairs hist.Verify.unreachable

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "par = seq" `Quick test_parallel_equals_sequential;
          Alcotest.test_case "any domain count" `Quick test_parallel_domain_counts;
          Alcotest.test_case "empty and tiny" `Quick test_parallel_empty_and_tiny;
          Alcotest.test_case "default domains" `Quick test_default_domains_positive;
          Alcotest.test_case "parallel verify agrees" `Quick test_parallel_verify_agrees;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact spanner" `Quick test_histogram_exact_spanner;
          Alcotest.test_case "detours counted" `Quick test_histogram_detours_counted;
          Alcotest.test_case "empty H" `Quick test_histogram_empty_h;
        ] );
    ]
