open Rs_graph
module Setcover = Rs_setcover.Setcover
module Obs = Rs_obs.Obs

let c_trees = Obs.counter "domtree/trees_built"
let c_relays = Obs.counter "domtree_k/relays"
let h_sphere = Obs.histogram "domtree_k/sphere_size"

(* Over the CSR (never the per-vertex [Graph.neighbors] arrays, whose
   first use on a freshly patched graph costs O(n + m)). [member x] is
   [Some (depth, first hop)] for tree members. *)
let branch_count g ~member ~beta u v =
  let hops = Hashtbl.create 8 in
  Graph.iter_neighbors g v (fun x ->
      if x <> u then
        match member x with
        | Some (d, hop) when d <= 1 + beta -> Hashtbl.replace hops hop ()
        | _ -> ());
  Hashtbl.length hops

let disjoint_branch_count g t ~beta v =
  let u = Tree.root t in
  let member x = if x <> u && Tree.mem t x then Some (Tree.depth t x, Tree.first_hop t x) else None in
  branch_count g ~member ~beta u v

let common_neighbors g u v =
  List.rev (Graph.fold_neighbors g v (fun acc w -> if Graph.mem_edge g u w then w :: acc else acc) [])

(* The definition checked over B(u, 2) only: the 2-sphere comes off one
   bounded traversal, and a sphere node's common neighbors with [u] are
   exactly its neighbors at distance 1 (the star condition: each of them
   hangs off the root, i.e. has depth 1). *)
let k_dominates ~scratch g ~k ~beta u ~member =
  Bfs.Scratch.run ~radius:2 scratch g u;
  let ok = ref true and i = ref 0 in
  let count = Bfs.Scratch.visited_count scratch in
  while !ok && !i < count do
    let v = Bfs.Scratch.visited scratch !i in
    if Bfs.Scratch.dist scratch v = 2 then begin
      let stars = ref true in
      Graph.iter_neighbors g v (fun x ->
          if Bfs.Scratch.dist scratch x = 1 then
            match member x with Some (1, _) -> () | _ -> stars := false);
      if (not !stars) && branch_count g ~member ~beta u v < k then ok := false
    end;
    incr i
  done;
  !ok

let check_scratch = Domain.DLS.new_key Bfs.Scratch.create

let is_k_dominating g ~k ~beta t =
  let u = Tree.root t in
  let member x =
    if x = u then Some (0, -1)
    else if Tree.mem t x then Some (Tree.depth t x, Tree.first_hop t x)
    else None
  in
  Tree.edges_in g t && k_dominates ~scratch:(Domain.DLS.get check_scratch) g ~k ~beta u ~member

(* Removal rule shared by both algorithms, instantiated with the
   "already fully used" predicate and the disjointness requirement. *)

let scratch_or = function Some s -> s | None -> Bfs.Scratch.create ()

(* The 2-sphere of the last scratch run, ascending id (the order the
   historical iter_vertices scan produced). *)
let sphere2_of s =
  let acc = ref [] in
  for i = Bfs.Scratch.visited_count s - 1 downto 0 do
    let v = Bfs.Scratch.visited s i in
    if Bfs.Scratch.dist s v = 2 then acc := v :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort Int.compare a;
  a

(* Edge-emitting core: everything after the radius-2 traversal,
   abstracted over edge storage ([add u relay] — every emitted edge is
   a star edge at the root). The Tree.t wrapper instantiates it with a
   real [Tree.t]; the batched builder ([Sharded]) feeds int edge
   accumulators. [sphere] is the 2-sphere of [u], ascending id. *)
let gdy_k_emit g ~k ~sphere u ~add =
  Obs.incr c_trees;
  if Obs.enabled () then Obs.observe h_sphere (float_of_int (Array.length sphere));
  (* "Cover every sphere node v by min(k, |N(u) ∩ N(v)|) relays,
     repeatedly picking the relay covering most unsatisfied nodes
     (smallest id on ties)" is exactly greedy k-multicover with the
     relays N(u) as sets — N(u) is id-sorted, so smallest set index =
     smallest relay id and the lazy greedy reproduces the historical
     pick sequence. *)
  let elt_of = Hashtbl.create (Array.length sphere) in
  Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
  (* u's sorted neighbor list, materialized over the CSR: the batched
     path must not force the graph's lazy per-vertex adjacency *)
  let relays = Array.make (Graph.degree g u) 0 in
  let i = ref 0 in
  Graph.iter_neighbors g u (fun w ->
      relays.(!i) <- w;
      incr i);
  let ball_of x =
    let acc = ref [] in
    Graph.iter_neighbors g x (fun w ->
        match Hashtbl.find_opt elt_of w with Some i -> acc := i :: !acc | None -> ());
    Array.of_list !acc
  in
  let inst = { Setcover.universe = Array.length sphere; sets = Array.map ball_of relays } in
  let picks = Setcover.greedy_multicover inst ~k in
  List.iter
    (fun sid ->
      Obs.incr c_relays;
      add u relays.(sid))
    picks;
  (* every 2-sphere node has a common neighbor with u, so the greedy
     multicover always saturates the (capped) demands *)
  assert (Setcover.is_cover inst ~k picks)

let gdy_k ?scratch g ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.gdy_k: k < 1";
  let s = scratch_or scratch in
  Bfs.Scratch.run ~radius:2 s g u;
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let sphere = sphere2_of s in
  gdy_k_emit g ~k ~sphere u ~add:(fun p c -> Tree.add_edge t ~parent:p ~child:c);
  t

let gdy_k_edges ~scratch g ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.gdy_k: k < 1";
  Bfs.Scratch.run ~radius:2 scratch g u;
  let sphere = sphere2_of scratch in
  let acc = ref [] in
  gdy_k_emit g ~k ~sphere u ~add:(fun p c -> acc := (p, c) :: !acc);
  List.rev !acc

(* Algorithm 5 emitting [(parent, child)] edges against a per-tree
   table (member -> depth, first hop), so its cost is that of the
   2-ball; [mis_k] replays the edges into a [Tree.t]. *)
let mis_k_edges ~scratch g ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.mis_k: k < 1";
  Obs.incr c_trees;
  Bfs.Scratch.run ~radius:2 scratch g u;
  let sphere = sphere2_of scratch in
  if Obs.enabled () then Obs.observe h_sphere (float_of_int (Array.length sphere));
  let info = Hashtbl.create 16 and acc = ref [] in
  Hashtbl.replace info u (0, -1);
  let mem v = Hashtbl.mem info v in
  let add p c =
    let d, hop = Hashtbl.find info p in
    Hashtbl.replace info c (d + 1, if p = u then c else hop);
    acc := (p, c) :: !acc
  in
  let s = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace s v ()) sphere;
  let dominated v =
    common_neighbors g u v |> List.for_all mem
    || branch_count g ~member:(Hashtbl.find_opt info) ~beta:1 u v >= k
  in
  let prune () =
    Hashtbl.iter (fun v () -> if dominated v then Hashtbl.remove s v) (Hashtbl.copy s)
  in
  for _round = 1 to k do
    let x_set = Hashtbl.copy s in
    let continue = ref true in
    while !continue && Hashtbl.length x_set > 0 && Hashtbl.length s > 0 do
      (* pick the smallest-id x in S ∩ X *)
      let x =
        Hashtbl.fold
          (fun v () acc -> if Hashtbl.mem s v && (acc < 0 || v < acc) then v else acc)
          x_set (-1)
      in
      if x < 0 then continue := false
      else begin
        let fresh = common_neighbors g u x |> List.filter (fun y -> not (mem y)) in
        (* The paper's invariant: a picked x always has a fresh common
           neighbor, else the first removal rule would have pruned it. *)
        assert (fresh <> []);
        let chosen = List.filteri (fun i _ -> i < k) fresh in
        (match chosen with
        | y1 :: rest ->
            add u y1;
            if not (mem x) then add y1 x;
            List.iter (add u) rest
        | [] -> assert false);
        prune ();
        (* X := X \ B_G(x, 1) *)
        Hashtbl.remove x_set x;
        Graph.iter_neighbors g x (Hashtbl.remove x_set)
      end
    done
  done;
  (* By Proposition 7 the loop empties S; keep a defensive check so a
     violated invariant fails loudly in tests rather than silently. *)
  assert (Hashtbl.length s = 0);
  List.rev !acc

let mis_k ?scratch g ~k u =
  let edges = mis_k_edges ~scratch:(scratch_or scratch) g ~k u in
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  List.iter (fun (p, c) -> Tree.add_edge t ~parent:p ~child:c) edges;
  t

let extract_k21 g h ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.extract_k21: k < 1";
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let dist = Bfs.dist ~radius:2 g u in
  let s = Hashtbl.create 64 in
  Graph.iter_vertices (fun v -> if dist.(v) = 2 then Hashtbl.replace s v ()) g;
  let h_relays_of x =
    (* common neighbors of u and x reachable as H-relays: u-y in H *)
    common_neighbors g u x |> List.filter (fun y -> Edge_set.mem h u y)
  in
  let dominated v =
    common_neighbors g u v
    |> List.for_all (fun w -> Tree.mem t w && Tree.parent t w = u)
    || disjoint_branch_count g t ~beta:1 v >= k
  in
  let prune () =
    Hashtbl.iter (fun v () -> if dominated v then Hashtbl.remove s v) (Hashtbl.copy s)
  in
  prune ();
  for _round = 1 to k do
    let x_set = Hashtbl.copy s in
    let continue = ref true in
    while !continue && Hashtbl.length x_set > 0 && Hashtbl.length s > 0 do
      let x =
        Hashtbl.fold
          (fun v () acc -> if Hashtbl.mem s v && (acc < 0 || v < acc) then v else acc)
          x_set (-1)
      in
      if x < 0 then continue := false
      else begin
        let fresh = h_relays_of x |> List.filter (fun y -> not (Tree.mem t y)) in
        let connectors = List.filter (fun y -> Edge_set.mem h x y) fresh in
        (match connectors with
        | y1 :: _ when not (Tree.mem t x) ->
            Tree.add_edge t ~parent:u ~child:y1;
            Tree.add_edge t ~parent:y1 ~child:x;
            List.filteri (fun i _ -> i < k - 1) (List.filter (( <> ) y1) fresh)
            |> List.iter (fun y -> Tree.add_edge t ~parent:u ~child:y)
        | _ ->
            List.filteri (fun i _ -> i < k) fresh
            |> List.iter (fun y -> Tree.add_edge t ~parent:u ~child:y));
        prune ();
        Hashtbl.remove x_set x;
        Graph.iter_neighbors g x (Hashtbl.remove x_set)
      end
    done
  done;
  if Hashtbl.length s = 0 && is_k_dominating g ~k ~beta:1 t then Some t else None
