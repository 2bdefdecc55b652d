open Rs_graph
module Dom_tree = Rs_core.Dom_tree
module Dom_tree_k = Rs_core.Dom_tree_k
module Obs = Rs_obs.Obs

type spec =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

let pp_spec fmt = function
  | Gdy { r; beta } -> Format.fprintf fmt "gdy(r=%d,beta=%d)" r beta
  | Mis { r } -> Format.fprintf fmt "mis(r=%d)" r
  | Gdy_k { k } -> Format.fprintf fmt "gdy_k(k=%d)" k
  | Mis_k { k } -> Format.fprintf fmt "mis_k(k=%d)" k

(* Locality radii, by inspection of the constructions:
   - [Dom_tree.gdy g ~r ~beta u] explores B(u, r + beta) but only ever
     {e reads adjacency} of vertices it may pick or cover — spheres up
     to r and annuli up to r - 1 + beta — so the tree is a function of
     the edges with an endpoint within max r (r - 1 + beta) of u.
   - [Dom_tree.mis] selects inside B(u, r) and grafts BFS paths there.
   - [gdy_k]/[mis_k] read the 2-ball only (stars over direct relays). *)
let radius = function
  | Gdy { r; beta } -> max r (r - 1 + beta)
  | Mis { r } -> r
  | Gdy_k _ | Mis_k _ -> 2

(* (alpha, beta) guarantees of the union (paper, Prop. 1 / 5 / 4):
   (r, 1)-dominating trees with r = ceil(1/eps)+1 give a
   (1+eps, 1-2eps)-RS, i.e. eps = 1/(r-1) for the r at hand;
   (2, 0)-trees give (1, 0); (2, 1)-trees are the r = 2, eps = 1 case,
   i.e. (2, -1). *)
let alpha_beta = function
  | Gdy { r = 2; beta = 0 } -> Some (1.0, 0.0)
  | Gdy { r; beta = 1 } when r >= 2 ->
      let eps = 1.0 /. float_of_int (r - 1) in
      Some (1.0 +. eps, 1.0 -. (2.0 *. eps))
  | Mis { r } when r >= 2 ->
      let eps = 1.0 /. float_of_int (r - 1) in
      Some (1.0 +. eps, 1.0 -. (2.0 *. eps))
  | Gdy_k _ -> Some (1.0, 0.0)
  | Mis_k _ -> Some (2.0, -1.0)
  | Gdy _ | Mis _ -> None

(* Member -> (depth, first hop) of a tree given as [(parent, child)]
   edges listed parents-first (emission or shallow-first order): the
   per-tree O(|T|) index the repair uses in place of an n-sized
   [Tree.t]. The root maps to (0, -1). *)
let index u edges =
  let idx = Hashtbl.create 16 in
  Hashtbl.replace idx u (0, -1);
  List.iter
    (fun (p, c) ->
      let d, hop = Hashtbl.find idx p in
      Hashtbl.replace idx c (d + 1, if p = u then c else hop))
    edges;
  idx

(* Deterministic shallow-first order — by (depth, child) — so a stored
   list replays into a [Tree.t] and exports byte-stably. *)
let shallow_first u edges =
  let idx = index u edges in
  List.map (fun (p, c) -> (fst (Hashtbl.find idx c), c, p)) edges
  |> List.sort compare
  |> List.map (fun (_, c, p) -> (p, c))

(* The spec's tree for [u], shallow-first, emitted against a per-tree
   table: the cost of the ball, never an n-sized [Tree.t]. *)
let tree_of spec ~scratch g u =
  match spec with
  | Gdy { r; beta } -> shallow_first u (Dom_tree.gdy_edges ~scratch g ~r ~beta u)
  | Mis { r } -> shallow_first u (Dom_tree.mis_edges ~scratch g ~r u)
  | Gdy_k { k } -> shallow_first u (Dom_tree_k.gdy_k_edges ~scratch g ~k u)
  | Mis_k { k } -> shallow_first u (Dom_tree_k.mis_k_edges ~scratch g ~k u)

(* Is the stored tree of [u] a dominating tree of the spec's family in
   [g]? Checked over [u]'s ball only (radius r, or 2 for the star
   families); edge existence is gate (a')'s job. *)
let tree_ok spec ~scratch g u edges =
  let idx = index u edges in
  let member = Hashtbl.find_opt idx in
  let depth x = match member x with Some (d, _) -> d | None -> -1 in
  match spec with
  | Gdy { r; beta } -> Dom_tree.dominates ~scratch g ~r ~beta u ~depth
  | Mis { r } -> Dom_tree.dominates ~scratch g ~r ~beta:1 u ~depth
  | Gdy_k { k } -> Dom_tree_k.k_dominates ~scratch g ~k ~beta:0 u ~member
  | Mis_k { k } -> Dom_tree_k.k_dominates ~scratch g ~k ~beta:1 u ~member

(* ------------------------------------------------------------------ *)
(* metrics *)

let c_applies = Obs.counter "repair/applies"
let c_dirty = Obs.counter "repair/dirty_nodes"
let c_rebuilt = Obs.counter "repair/trees_rebuilt"
let c_escalations = Obs.counter "repair/escalations"
let c_saved = Obs.counter "repair/saved_bfs"
let c_gate_failures = Obs.counter "repair/gate_failures"
let h_latency = Obs.histogram "repair/latency"

(* ------------------------------------------------------------------ *)
(* maintained state *)

type diff = {
  before : Edge_set.t;
  gained : (int * int) list;
  lost : (int * int) list;
}

type t = {
  spec : spec;
  mutable g : Graph.t;
  mutable tree_edges : (int * int) list array;
      (* per root: (parent, child), shallow-first, so trees rebuild by
         replaying [Tree.add_edge] in order *)
  counts : (int * int, int) Hashtbl.t;  (* canonical pair -> #owning trees *)
  scratch : Bfs.Scratch.t;  (* constructions + dirty-set traversal *)
  verify_scratch : Bfs.Scratch.t;  (* second lane for the domination gates *)
  mutable spanner : Edge_set.t;
  mutable last : diff option;
}

let graph st = st.g
let spanner st = st.spanner
let publish st = (st.g, st.spanner)
let last_diff st = st.last

let pairs st =
  List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) st.counts [])

let tree_edges st u = st.tree_edges.(u)

let canonical u v = if u <= v then (u, v) else (v, u)

(* Per-apply log of pairs whose membership may have flipped: pair ->
   was it in the spanner before this apply. Lets [edges_changed] count
   the symmetric difference in O(touched pairs), not O(m). *)
let note changed counts p =
  if not (Hashtbl.mem changed p) then Hashtbl.add changed p (Hashtbl.mem counts p)

let incr_pair st changed (p, c) =
  let key = canonical p c in
  note changed st.counts key;
  Hashtbl.replace st.counts key
    (1 + Option.value ~default:0 (Hashtbl.find_opt st.counts key))

let decr_pair st changed (p, c) =
  let key = canonical p c in
  note changed st.counts key;
  match Hashtbl.find_opt st.counts key with
  | Some 1 -> Hashtbl.remove st.counts key
  | Some n -> Hashtbl.replace st.counts key (n - 1)
  | None -> assert false

(* Replays a stored list under [Tree.add_edge]'s rules (parent already
   a member, root never re-parented, one parent per child) against a
   per-tree table, so validating n trees costs their size, not n^2. *)
let check_replay u edges =
  let parent = Hashtbl.create 16 in
  Hashtbl.replace parent u u;
  List.iter
    (fun (p, c) ->
      if not (Hashtbl.mem parent p) then invalid_arg "Tree.add_edge: parent not in tree";
      if c = u then invalid_arg "Tree.add_edge: cannot re-parent the root";
      match Hashtbl.find_opt parent c with
      | Some p' when p' <> p ->
          invalid_arg "Tree.add_edge: child already has a different parent"
      | _ -> Hashtbl.replace parent c p)
    edges

let recompute st changed g u =
  List.iter (decr_pair st changed) st.tree_edges.(u);
  let edges = tree_of st.spec ~scratch:st.scratch g u in
  st.tree_edges.(u) <- edges;
  List.iter (incr_pair st changed) edges

let materialize st g =
  let es = Edge_set.create g in
  Hashtbl.iter (fun (u, v) _ -> Edge_set.add es u v) st.counts;
  es

let init spec g =
  Obs.with_span "repair/init" (fun () ->
      let n = Graph.n g in
      let st =
        {
          spec;
          g;
          tree_edges = Array.make n [];
          counts = Hashtbl.create (4 * n);
          scratch = Bfs.Scratch.create ();
          verify_scratch = Bfs.Scratch.create ();
          spanner = Edge_set.create g;
          last = None;
        }
      in
      let changed = Hashtbl.create 16 in
      for u = 0 to n - 1 do
        recompute st changed g u
      done;
      st.spanner <- materialize st g;
      st)

let build spec g = spanner (init spec g)

let export_trees st = Array.copy st.tree_edges

let restore spec g ~trees =
  let n = Graph.n g in
  if Array.length trees <> n then
    failwith
      (Printf.sprintf "Repair.restore: %d stored trees for a %d-vertex graph"
         (Array.length trees) n);
  let st =
    {
      spec;
      g;
      tree_edges = Array.make n [];
      counts = Hashtbl.create (4 * n);
      scratch = Bfs.Scratch.create ();
      verify_scratch = Bfs.Scratch.create ();
      spanner = Edge_set.create g;
      last = None;
    }
  in
  let changed = Hashtbl.create 16 in
  Array.iteri
    (fun u edges ->
      List.iter
        (fun (p, c) ->
          if not (Graph.mem_edge g p c) then
            failwith
              (Printf.sprintf
                 "Repair.restore: tree %d edge (%d,%d) absent from the graph" u p c))
        edges;
      (* replay under [Tree.add_edge]'s rules so a structurally bogus
         list (orphan child, conflicting parents) is rejected here, not
         discovered as a corrupt spanner later *)
      (try check_replay u edges
       with Invalid_argument msg ->
         failwith (Printf.sprintf "Repair.restore: tree %d malformed: %s" u msg));
      st.tree_edges.(u) <- edges;
      List.iter (incr_pair st changed) edges)
    trees;
  st.spanner <- materialize st g;
  st

(* ------------------------------------------------------------------ *)
(* apply *)

type level = Local | Widened | Full

type outcome = {
  dirty : int;
  rebuilt : int;
  escalations : int;
  level : level;
  edges_changed : int;
}

let pp_level fmt = function
  | Local -> Format.pp_print_string fmt "local"
  | Widened -> Format.pp_print_string fmt "widened"
  | Full -> Format.pp_print_string fmt "full"

let pp_outcome fmt o =
  Format.fprintf fmt "dirty=%d rebuilt=%d escalations=%d level=%a edges_changed=%d"
    o.dirty o.rebuilt o.escalations pp_level o.level o.edges_changed

(* Min distance from any seed, bounded by [radius], measured in BOTH
   graphs: a removed edge is only traversable in the old graph, an
   added one only in the new, and a root is affected if the change
   sits inside its relevant neighborhood in either. Returns the reached
   vertices in ascending id with their depth — the size of the balls,
   never of n. *)
let seed_depths st ~old_g ~new_g ~seeds ~radius =
  let depth = Hashtbl.create 64 in
  let scan g =
    List.iter
      (fun w ->
        Bfs.Scratch.run ~radius st.scratch g w;
        Bfs.Scratch.iter_visited st.scratch (fun v ->
            let d = Bfs.Scratch.dist st.scratch v in
            match Hashtbl.find_opt depth v with
            | Some d0 when d0 <= d -> ()
            | _ -> Hashtbl.replace depth v d))
      seeds
  in
  scan old_g;
  scan new_g;
  List.sort compare (Hashtbl.fold (fun v d acc -> (v, d) :: acc) depth [])

(* The local gate. By Propositions 1 and 5 the union is an (alpha,
   beta)-remote-spanner as soon as every root's tree is a dominating
   tree of the spec's family in the new graph, so certifying the delta
   only takes the trees it can have touched:
   (a') no tree still uses a removed edge (the only edges that vanish);
   (b)  the clean trees on the fringe of the dirty region — computed at
        the spec's {e true} locality radius, so empty by default and
        exactly the at-risk annulus under an under-estimated
        [?dirty_radius] — are still the tree a fresh build picks (a
        fresh tree is dominating by construction, so this is stronger
        than domination and keeps the state equal to [build]);
   (c)  every recomputed tree is dominating.
   Roots beyond the fringe see an unchanged ball and keep a tree whose
   edges all survive, so they need no check. Each test runs over one
   root's ball through [verify_scratch]. *)
let gates_pass st g' ~removed ~fringe ~recomputed =
  Obs.with_span "gates" @@ fun () ->
  let ok u = tree_ok st.spec ~scratch:st.verify_scratch g' u st.tree_edges.(u) in
  let fresh u = tree_of st.spec ~scratch:st.verify_scratch g' u = st.tree_edges.(u) in
  List.for_all (fun p -> not (Hashtbl.mem st.counts p)) removed
  && List.for_all (fun u -> Hashtbl.mem recomputed u || fresh u) fringe
  && Hashtbl.fold (fun u () acc -> acc && ok u) recomputed true

let apply_net ?dirty_radius st (net : Delta.net) =
  if net.Delta.base != st.g then
    invalid_arg "Repair.apply_net: delta resolved against a different graph";
  Obs.with_span "repair/apply" (fun () ->
      let t0 = Obs.now () in
      Obs.incr c_applies;
      let n = Graph.n st.g in
      let { Delta.added; removed; result = g'; _ } = net in
      if Delta.is_quiescent net then begin
        (* Quiescent: nothing moved, nothing recomputed, state
           physically untouched. *)
        Obs.add c_saved n;
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        { dirty = 0; rebuilt = 0; escalations = 0; level = Local; edges_changed = 0 }
      end
      else begin
        let seeds = Delta.touched ~added ~removed in
        let r_spec = radius st.spec in
        let r_used = Option.value dirty_radius ~default:r_spec in
        let r_check = max r_used r_spec in
        let region =
          Obs.with_span "dirty_set" (fun () ->
              seed_depths st ~old_g:st.g ~new_g:g' ~seeds ~radius:r_check)
        in
        let dirty = List.filter_map (fun (v, d) -> if d <= r_used then Some v else None) region in
        let fringe = List.filter_map (fun (v, d) -> if d > r_used then Some v else None) region in
        Obs.add c_dirty (List.length dirty);
        let changed = Hashtbl.create 64 in
        let recomputed = Hashtbl.create 64 in
        let rebuild us =
          Obs.with_span "rebuild" @@ fun () ->
          List.iter
            (fun u ->
              if not (Hashtbl.mem recomputed u) then begin
                Hashtbl.replace recomputed u ();
                recompute st changed g' u
              end)
            us
        in
        rebuild dirty;
        let escalations = ref 0 in
        let gates_pass () = gates_pass st g' ~removed ~fringe ~recomputed in
        let level =
          if gates_pass () then Local
          else begin
            Obs.incr c_gate_failures;
            Obs.incr c_escalations;
            incr escalations;
            (* Widened rung: 2-hop closure of the dirty region, again
               in both graphs. *)
            rebuild
              (List.map fst (seed_depths st ~old_g:st.g ~new_g:g' ~seeds:dirty ~radius:2));
            if gates_pass () then Widened
            else begin
              Obs.incr c_gate_failures;
              Obs.incr c_escalations;
              incr escalations;
              (* Full rung: from-scratch rebuild on the new graph —
                 correct by construction, no gate to pass. *)
              rebuild (List.init n Fun.id);
              Full
            end
          end
        in
        let rebuilt_total = Hashtbl.length recomputed in
        Obs.add c_rebuilt rebuilt_total;
        Obs.add c_saved (n - rebuilt_total);
        (* the spanner follows the host patch by diff: surviving bits
           shift with the edge ids, then only the pairs whose refcount
           crossed zero flip *)
        let sp, diff =
          Obs.with_span "spanner" @@ fun () ->
          let sp = Edge_set.rehost st.spanner g' ~added ~removed in
          let gained = ref [] and lost = ref [] in
          Hashtbl.iter
            (fun ((u, v) as p) was ->
              let now = Hashtbl.mem st.counts p in
              if now && not was then begin
                Edge_set.add sp u v;
                gained := p :: !gained
              end
              else if was && not now then begin
                Edge_set.remove sp u v;
                lost := p :: !lost
              end)
            changed;
          ( sp,
            { before = st.spanner; gained = List.sort compare !gained;
              lost = List.sort compare !lost } )
        in
        st.g <- g';
        st.spanner <- sp;
        st.last <- Some diff;
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        {
          dirty = List.length dirty;
          rebuilt = rebuilt_total;
          escalations = !escalations;
          level;
          edges_changed = List.length diff.gained + List.length diff.lost;
        }
      end)

let apply ?dirty_radius st delta =
  let net = Obs.with_span "repair/resolve" (fun () -> Delta.net st.g delta) in
  apply_net ?dirty_radius st net

let incremental_target spec =
  let state = ref None in
  fun g ->
    let st =
      match !state with
      | None ->
          let st = init spec g in
          state := Some st;
          st
      | Some st ->
          if st.g != g then ignore (apply st (Delta.diff st.g g));
          st
    in
    pairs st
