open Rs_graph

type violation = { src : int; dst : int; d_g : int; d_h : int }

let pp_violation fmt v =
  Format.fprintf fmt "(%d -> %d: d_G=%d, d_Hu=%s)" v.src v.dst v.d_g
    (if v.d_h = max_int then "inf" else string_of_int v.d_h)

let remote_spanner_violations ?(max_violations = 10) g h ~alpha ~beta =
  let h_adj = Edge_set.to_adjacency h in
  let acc = ref [] and count = ref 0 in
  let n = Graph.n g in
  let u = ref 0 in
  while !u < n && !count < max_violations do
    let du_g = Bfs.dist g !u in
    let du_h = Bfs.augmented_dist g h_adj !u in
    for v = 0 to n - 1 do
      if v <> !u && du_g.(v) > 1 && !count < max_violations then begin
        let dh = if du_h.(v) < 0 then max_int else du_h.(v) in
        let bound = (alpha *. float_of_int du_g.(v)) +. beta in
        if dh = max_int || float_of_int dh > bound +. 1e-9 then begin
          acc := { src = !u; dst = v; d_g = du_g.(v); d_h = dh } :: !acc;
          incr count
        end
      end
    done;
    incr u
  done;
  List.rev !acc

(* Same predicate as [remote_spanner_violations ~max_violations:1 = []]
   (the reference tests compare against), on two reusable traversal
   scratches per domain and without materializing violations. The
   per-source checks are independent, so sources fan out over domains;
   the first violation anywhere stops every domain at its next source. *)
let is_remote_spanner ?(domains = 1) g h ~alpha ~beta =
  Rs_obs.Obs.with_span "parallel/is_remote_spanner" @@ fun () ->
  let n = Graph.n g in
  let h_adj = Edge_set.to_adjacency h in
  let ok = Atomic.make true in
  let check_source sg sh u =
    Bfs.Scratch.run sg g u;
    Bfs.Scratch.run_augmented sh g h_adj u;
    let violated = ref false in
    let count = Bfs.Scratch.visited_count sg in
    let i = ref 0 in
    while (not !violated) && !i < count do
      let v = Bfs.Scratch.visited sg !i in
      let d_g = Bfs.Scratch.dist sg v in
      if d_g > 1 then begin
        let d_h = Bfs.Scratch.dist sh v in
        let bound = (alpha *. float_of_int d_g) +. beta in
        if d_h < 0 || float_of_int d_h > bound +. 1e-9 then violated := true
      end;
      incr i
    done;
    if !violated then Atomic.set ok false
  in
  let domains = if n < 64 then 1 else max 1 domains in
  Sharded.drive ~n ~domains
    ~stop:(fun () -> not (Atomic.get ok))
    (fun claim ->
      (* one pair of scratches per domain, reused across its chunks *)
      let sg = Bfs.Scratch.create () and sh = Bfs.Scratch.create () in
      let rec loop items =
        match claim () with
        | None -> items
        | Some (lo, hi) ->
            let u = ref lo in
            while Atomic.get ok && !u <= hi do
              check_source sg sh !u;
              incr u
            done;
            loop (items + (!u - lo))
      in
      loop 0);
  Atomic.get ok

type histogram = {
  pairs : int;
  unreachable : int;
  exact : int;
  slack_counts : (int * int) list;
  mean_ratio : float;
}

let stretch_histogram g h =
  let h_adj = Edge_set.to_adjacency h in
  let pairs = ref 0 and unreachable = ref 0 and exact = ref 0 in
  let ratio_sum = ref 0.0 and reachable = ref 0 in
  let slack_tbl = Hashtbl.create 16 in
  Graph.iter_vertices
    (fun u ->
      let du_g = Bfs.dist g u in
      let du_h = Bfs.augmented_dist g h_adj u in
      for v = 0 to Graph.n g - 1 do
        if v <> u && du_g.(v) > 1 then begin
          incr pairs;
          if du_h.(v) < 0 then incr unreachable
          else begin
            incr reachable;
            let slack = du_h.(v) - du_g.(v) in
            if slack = 0 then incr exact;
            Hashtbl.replace slack_tbl slack
              (1 + Option.value ~default:0 (Hashtbl.find_opt slack_tbl slack));
            ratio_sum := !ratio_sum +. (float_of_int du_h.(v) /. float_of_int du_g.(v))
          end
        end
      done)
    g;
  {
    pairs = !pairs;
    unreachable = !unreachable;
    exact = !exact;
    slack_counts =
      List.sort compare (Hashtbl.fold (fun s c acc -> (s, c) :: acc) slack_tbl []);
    mean_ratio = (if !reachable = 0 then 1.0 else !ratio_sum /. float_of_int !reachable);
  }

let worst_additive_slack g h ~alpha =
  let h_adj = Edge_set.to_adjacency h in
  let worst = ref neg_infinity in
  Graph.iter_vertices
    (fun u ->
      let du_g = Bfs.dist g u in
      let du_h = Bfs.augmented_dist g h_adj u in
      for v = 0 to Graph.n g - 1 do
        if v <> u && du_g.(v) > 1 then
          if du_h.(v) < 0 then worst := infinity
          else
            worst :=
              Float.max !worst
                (float_of_int du_h.(v) -. (alpha *. float_of_int du_g.(v)))
      done)
    g;
  !worst

let augmented g h u =
  let extra = Array.to_list (Graph.neighbors g u) |> List.map (fun v -> (u, v)) in
  Graph.make ~n:(Graph.n g) (List.rev_append extra (Edge_set.to_list h))

let all_nonadjacent_pairs g =
  let acc = ref [] in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && not (Graph.mem_edge g s t) then acc := (s, t) :: !acc
    done
  done;
  List.rev !acc

let generic_k_violations ~profile ~max_violations ~pairs g h ~alpha ~beta ~k =
  let pairs = match pairs with Some p -> p | None -> all_nonadjacent_pairs g in
  let acc = ref [] and count = ref 0 in
  List.iter
    (fun (s, t) ->
      if !count < max_violations && s <> t && not (Graph.mem_edge g s t) then begin
        let profile_g = profile g ~kmax:k s t in
        if Array.length profile_g > 0 then begin
          let hs = augmented g h s in
          let profile_h = profile hs ~kmax:k s t in
          let k's = Array.length profile_g in
          let rec check k' =
            if k' <= k's && !count < max_violations then begin
              let dg = profile_g.(k' - 1) in
              let dh =
                if Array.length profile_h >= k' then profile_h.(k' - 1) else max_int
              in
              let bound = (alpha *. float_of_int dg) +. (float_of_int k' *. beta) in
              if dh = max_int || float_of_int dh > bound +. 1e-9 then begin
                acc := { src = s; dst = t; d_g = dg; d_h = dh } :: !acc;
                incr count
              end
              else check (k' + 1)
            end
          in
          check 1
        end
      end)
    pairs;
  List.rev !acc

let k_connecting_violations ?(max_violations = 10) ?pairs g h ~alpha ~beta ~k =
  generic_k_violations
    ~profile:(fun g ~kmax s t -> Disjoint_paths.dk_profile g ~kmax s t)
    ~max_violations ~pairs g h ~alpha ~beta ~k

let is_k_connecting ?pairs g h ~alpha ~beta ~k =
  k_connecting_violations ~max_violations:1 ?pairs g h ~alpha ~beta ~k = []

let edge_k_connecting_violations ?(max_violations = 10) ?pairs g h ~alpha ~beta ~k =
  generic_k_violations
    ~profile:(fun g ~kmax s t -> Edge_disjoint.dk_profile g ~kmax s t)
    ~max_violations ~pairs g h ~alpha ~beta ~k

let is_edge_k_connecting ?pairs g h ~alpha ~beta ~k =
  edge_k_connecting_violations ~max_violations:1 ?pairs g h ~alpha ~beta ~k = []

let induces_dominating_trees g h ~r ~beta =
  let h_adj = Edge_set.to_adjacency h in
  let ok = ref true in
  Graph.iter_vertices
    (fun u ->
      if !ok then begin
        let du_g = Bfs.dist ~radius:r g u in
        let du_h = Bfs.dist_adj h_adj u in
        Graph.iter_vertices
          (fun v ->
            let r' = du_g.(v) in
            if !ok && r' >= 2 && r' <= r then begin
              let dominated =
                Array.exists
                  (fun x -> du_h.(x) >= 0 && du_h.(x) <= r' - 1 + beta)
                  (Graph.neighbors g v)
              in
              if not dominated then ok := false
            end)
          g
      end)
    g;
  !ok

let induces_k20_trees g h ~k =
  let ok = ref true in
  Graph.iter_vertices
    (fun u ->
      if !ok then begin
        let du_g = Bfs.dist ~radius:2 g u in
        Graph.iter_vertices
          (fun v ->
            if !ok && du_g.(v) = 2 then begin
              let common =
                Array.to_list (Graph.neighbors g v)
                |> List.filter (fun w -> Graph.mem_edge g u w)
              in
              let in_h = List.filter (fun w -> Edge_set.mem h u w) common in
              let covered =
                List.length in_h >= k || List.length in_h = List.length common
              in
              if not covered then ok := false
            end)
          g
      end)
    g;
  !ok
