open Rs_graph
module Obs = Rs_obs.Obs

(* Batched construction: roots are processed [Msbfs.width] at a time
   through the bit-parallel multi-source BFS, batches are fanned over
   domains by the work-stealing driver, and every domain accumulates
   canonical edge ids in a flat int array merged into one Edge_set at
   the end — no O(n) Tree.t per root, no per-tree Edge_set. This is
   what takes construction from n = 2000 to n = 10^5..10^6; every
   entry point in [Remote_spanner] routes here. Algorithm 5 ([Mis_k])
   is the exception to batching: its roots are still fanned out and
   merged the same way, but each runs its own radius-2 traversal.

   Edge sets are identical to the per-root sequential reference for
   any domain count, batch size or root order: each root's tree
   depends only on its ball, tie-breaks are by vertex id everywhere,
   and the emit cores are the same code the Tree.t wrappers run. *)

type strategy =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

let default_domains () = min 8 (Domain.recommended_domain_count ())

(* Same counter the sequential union uses, so the batched path's
   metrics sum to the sequential run's (asserted by a property test).
   Domain-balance histograms are observed from the coordinating thread
   after joins; the measurements themselves happen inside each domain. *)
let c_trees = Obs.counter "core/trees_built"
let h_domain_wall = Obs.histogram "parallel/domain_wall_s"
let h_domain_items = Obs.histogram "parallel/domain_items"

let record_domain items dt =
  if Obs.enabled () then begin
    Obs.observe h_domain_items (float_of_int items);
    Obs.observe h_domain_wall dt
  end

(* Work-stealing over the range [0, n): domains repeatedly claim the
   next chunk off a shared atomic cursor, so a domain that lands on
   cheap items simply claims more chunks instead of idling at a static
   block boundary. The default chunk is big enough to amortize the
   fetch-and-add, small enough that the tail imbalance is bounded by
   one chunk per domain; pass [~chunk] when items are already coarse
   (a batch of [Msbfs.width] roots claims one index at a time). *)
let chunk_size n domains = max 1 (min 64 (n / (domains * 8)))

(* Each domain runs [worker claim]: a full claim-process loop plus any
   per-domain finalization (e.g. merging its accumulator), returning
   how many items it processed. [claim] hands out chunks until the
   range is exhausted or [stop ()] aborts the sweep
   (claimed-but-unprocessed chunks are then fine to drop). The calling
   domain doubles as a worker, so [domains] counts it. *)
let drive ?chunk ~n ~domains ~stop worker =
  let cursor = Atomic.make 0 in
  let chunk = match chunk with Some c -> max 1 c | None -> chunk_size n domains in
  let claim () =
    if stop () then None
    else
      let lo = Atomic.fetch_and_add cursor chunk in
      if lo >= n then None else Some (lo, min (n - 1) (lo + chunk - 1))
  in
  let run_domain () =
    let t0 = if Obs.enabled () then Obs.now () else 0.0 in
    let items = worker claim in
    let dt = if Obs.enabled () then Obs.now () -. t0 else 0.0 in
    (items, dt)
  in
  let handles = List.init (domains - 1) (fun _ -> Domain.spawn run_domain) in
  let own = run_domain () in
  let per_domain = own :: List.map Domain.join handles in
  List.iter (fun (items, dt) -> record_domain items dt) per_domain

(* Multi-restart BFS visit order: consecutive roots are graph-close,
   so the balls of one [Msbfs] batch overlap and each shared vertex is
   scanned once per sweep instead of once per root. Works for any
   graph, no coordinates needed (UDG callers can do better with
   [Rs_geometry.Proximity.grid_order]). The order array doubles as the
   BFS queue. Deliberately not recorded as bfs/runs: it is scheduling,
   not a traversal the sequential reference performs. *)
let locality_order g =
  let n = Graph.n g in
  let order = Array.make n 0 in
  let seen = Array.make n false in
  let off, nbr = Graph.csr g in
  let tail = ref 0 in
  for src = 0 to n - 1 do
    if not seen.(src) then begin
      seen.(src) <- true;
      order.(!tail) <- src;
      incr tail;
      let head = ref (!tail - 1) in
      while !head < !tail do
        let u = order.(!head) in
        incr head;
        for i = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(i) in
          if not seen.(v) then begin
            seen.(v) <- true;
            order.(!tail) <- v;
            incr tail
          end
        done
      done
    end
  done;
  order

let radius_of = function
  | Gdy { r; beta } -> r + beta
  | Mis { r } -> r
  | Gdy_k _ | Mis_k _ -> 2

let validate = function
  | Gdy { r; beta } ->
      if r < 1 || beta < 0 then invalid_arg "Sharded.build: need r >= 1, beta >= 0"
  | Mis { r } -> if r < 1 then invalid_arg "Sharded.build: need r >= 1"
  | Gdy_k { k } | Mis_k { k } -> if k < 1 then invalid_arg "Sharded.build: need k >= 1"

(* Per-domain state. Distance, membership and local-remap arrays are
   generation-stamped so per-root reset is O(1); [acc] packs emitted
   canonical edge ids flat. *)
type ctx = {
  ms : Msbfs.t;
  dist : int array;
  dstamp : int array;
  mutable dgen : int;
  memb : int array; (* tree membership, stamped per root *)
  mutable mgen : int;
  dead : Bfs.Marks.t; (* MIS removals *)
  scratch : Bfs.Scratch.t; (* per-root traversal of [Mis_k] *)
  q : int array; (* halo-collection queue (local mode) *)
  lmap : int array; (* global id -> local id, stamped per batch *)
  lstamp : int array;
  mutable lgen : int;
  mutable acc : int array;
  mutable nacc : int;
  mutable unsafe : int list; (* roots owed to the boundary-repair pass *)
}

(* [Mis_k] uses only [scratch] and [acc], so it passes [n = 0] *)
let create_ctx n =
  {
    ms = Msbfs.create ();
    dist = Array.make n 0;
    dstamp = Array.make n 0;
    dgen = 0;
    memb = Array.make n 0;
    mgen = 0;
    dead = Bfs.Marks.create ();
    scratch = Bfs.Scratch.create ();
    q = Array.make n 0;
    lmap = Array.make n 0;
    lstamp = Array.make n 0;
    lgen = 0;
    acc = Array.make 1024 0;
    nacc = 0;
    unsafe = [];
  }

let push_acc ctx id =
  if ctx.nacc >= Array.length ctx.acc then begin
    let fresh = Array.make (2 * Array.length ctx.acc) 0 in
    Array.blit ctx.acc 0 fresh 0 ctx.nacc;
    ctx.acc <- fresh
  end;
  ctx.acc.(ctx.nacc) <- id;
  ctx.nacc <- ctx.nacc + 1

(* sort + dedup the domain's flat id accumulator, then set bits in the
   shared result under the caller's lock *)
let merge_acc ctx result =
  let a = Array.sub ctx.acc 0 ctx.nacc in
  Array.sort Int.compare a;
  let prev = ref (-1) in
  Array.iter
    (fun id ->
      if id <> !prev then begin
        Edge_set.add_id result id;
        prev := id
      end)
    a;
  ctx.nacc <- 0

(* distances of one slot's ball into the stamped per-domain array *)
let fill_dist ctx s =
  ctx.dgen <- ctx.dgen + 1;
  let gen = ctx.dgen in
  let dist = ctx.dist and dstamp = ctx.dstamp in
  Msbfs.iter_visited ctx.ms s (fun v d ->
      dstamp.(v) <- gen;
      dist.(v) <- d)

(* Canonical parent of [v] (smallest-id neighbor one level closer):
   the CSR range is id-sorted, so the first stamped neighbor at
   [dist v - 1] is the same parent [Bfs.Scratch.run] computes. *)
let parent_of_csr off nbr ctx v =
  let dv = ctx.dist.(v) - 1 in
  let gen = ctx.dgen in
  let dist = ctx.dist and dstamp = ctx.dstamp in
  let res = ref (-1) in
  let i = ref off.(v) and hi = off.(v + 1) in
  while !res < 0 && !i < hi do
    let w = nbr.(!i) in
    if dstamp.(w) = gen && dist.(w) = dv then res := w;
    incr i
  done;
  !res

(* One root's tree, emitted from its Msbfs slot against graph [gg]
   (the host graph, or a shard's induced sub-graph in local mode —
   [add_edge] translates back to host ids). *)
let process_slot gg ctx strat s ~add_edge =
  let root = Msbfs.source ctx.ms s in
  Obs.incr c_trees;
  ctx.mgen <- ctx.mgen + 1;
  let mgen = ctx.mgen and memb = ctx.memb in
  memb.(root) <- mgen;
  let mem v = memb.(v) = mgen in
  let add p c =
    add_edge p c;
    memb.(c) <- mgen
  in
  match strat with
  | Gdy_k { k } ->
      let sphere = (Msbfs.levels ctx.ms s ~max_dist:2).(2) in
      Dom_tree_k.gdy_k_emit gg ~k ~sphere root ~add
  | Gdy { r; beta } ->
      fill_dist ctx s;
      let off, nbr = Graph.csr gg in
      let levels = Msbfs.levels ctx.ms s ~max_dist:(r + beta) in
      Dom_tree.gdy_emit gg ~r ~beta ~levels ~parent_of:(parent_of_csr off nbr ctx) ~mem ~add
  | Mis { r } ->
      fill_dist ctx s;
      let off, nbr = Graph.csr gg in
      let levels = Msbfs.levels ctx.ms s ~max_dist:r in
      Bfs.Marks.clear ctx.dead;
      Dom_tree.mis_emit gg ~r ~levels ~parent_of:(parent_of_csr off nbr ctx) ~mem ~add
        ~dead_mem:(Bfs.Marks.mem ctx.dead) ~dead_add:(Bfs.Marks.set ctx.dead)
  | Mis_k _ -> assert false (* never swept: see [process_batch] *)

let process_batch g ctx strat roots =
  let add_edge p c = push_acc ctx (Graph.edge_id g p c) in
  match strat with
  | Mis_k { k } ->
      (* no Msbfs sweep: the per-root traversal inside [mis_k_edges] is
         the only one, so bfs/runs match the per-root reference *)
      Array.iter
        (fun root ->
          Obs.incr c_trees;
          List.iter
            (fun (p, c) -> add_edge p c)
            (Dom_tree_k.mis_k_edges ~scratch:ctx.scratch g ~k root))
        roots
  | Gdy _ | Mis _ | Gdy_k _ ->
      Msbfs.run ~radius:(radius_of strat) ctx.ms g roots;
      for s = 0 to Array.length roots - 1 do
        process_slot g ctx strat s ~add_edge
      done

(* Local (shard-isolated) batch: materialize the induced sub-graph on
   the batch's roots plus a (radius-1)-halo and run the whole batch
   against it — the halo fits a cache level when the host graph does
   not. A root is safe iff no vertex its traversal expanded (local
   dist < radius) is on the fringe (had a neighbor clipped away): then
   its local ball, levels and parents are provably identical to the
   global ones and the emitted tree is exact. Clipped roots are queued
   for the boundary-repair pass. The halo is deliberately radius-1,
   not radius: a full-radius halo would make every root safe but costs
   one more level of expansion per shard than the repair pass saves. *)
let process_batch_local g ctx strat roots =
  let radius = radius_of strat in
  let off, nbr = Graph.csr g in
  (* roots + (radius-1)-halo in one bounded multi-source sweep (not a
     logical traversal of the construction: no bfs/runs recorded) *)
  ctx.dgen <- ctx.dgen + 1;
  let gen = ctx.dgen in
  let dist = ctx.dist and dstamp = ctx.dstamp and q = ctx.q in
  let tail = ref 0 in
  Array.iter
    (fun r_ ->
      if dstamp.(r_) <> gen then begin
        dstamp.(r_) <- gen;
        dist.(r_) <- 0;
        q.(!tail) <- r_;
        incr tail
      end)
    roots;
  let head = ref 0 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    let du = dist.(u) in
    if du < radius - 1 then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        if dstamp.(v) <> gen then begin
          dstamp.(v) <- gen;
          dist.(v) <- du + 1;
          q.(!tail) <- v;
          incr tail
        end
      done
  done;
  let verts = Array.sub q 0 !tail in
  (* ascending remap keeps local id order = global id order, so every
     smallest-id tie-break picks the same vertex in both numberings *)
  Array.sort Int.compare verts;
  let k = Array.length verts in
  ctx.lgen <- ctx.lgen + 1;
  let lgen = ctx.lgen in
  let lmap = ctx.lmap and lstamp = ctx.lstamp in
  Array.iteri
    (fun i v ->
      lmap.(v) <- i;
      lstamp.(v) <- lgen)
    verts;
  let fringe = Array.make k false in
  let medges = ref 0 in
  for i = 0 to k - 1 do
    let v = verts.(i) in
    let degl = ref 0 in
    for j = off.(v) to off.(v + 1) - 1 do
      let w = nbr.(j) in
      if lstamp.(w) = lgen then begin
        incr degl;
        if lmap.(w) > i then incr medges
      end
    done;
    fringe.(i) <- !degl < off.(v + 1) - off.(v)
  done;
  let edges = Array.make !medges (0, 0) in
  let e = ref 0 in
  for i = 0 to k - 1 do
    let v = verts.(i) in
    for j = off.(v) to off.(v + 1) - 1 do
      let w = nbr.(j) in
      if lstamp.(w) = lgen && lmap.(w) > i then begin
        edges.(!e) <- (i, lmap.(w));
        incr e
      end
    done
  done;
  (* outer index ascending, CSR neighbors ascending, monotone remap:
     the array is canonical and lex-sorted by construction *)
  let lg = Graph.of_canonical ~validate:false ~n:k edges in
  let lroots = Array.map (fun r_ -> lmap.(r_)) roots in
  Msbfs.run ~radius ctx.ms lg lroots;
  for s = 0 to Array.length lroots - 1 do
    let safe = ref true in
    Msbfs.iter_visited ctx.ms s (fun v d -> if d < radius && fringe.(v) then safe := false);
    if !safe then
      process_slot lg ctx strat s
        ~add_edge:(fun p c -> push_acc ctx (Graph.edge_id g verts.(p) verts.(c)))
    else ctx.unsafe <- verts.(Msbfs.source ctx.ms s) :: ctx.unsafe
  done

let build ?domains ?order ?chunk ?(local = false) g strat =
  validate strat;
  let local = local && match strat with Mis_k _ -> false | _ -> true in
  let n = Graph.n g in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let domains = if n < 64 then 1 else domains in
  let chunk =
    match chunk with Some c -> max 1 (min Msbfs.width c) | None -> Msbfs.width
  in
  let order =
    match (order, strat) with
    | Some o, _ ->
        (* a duplicate entry would silently drop the missing roots'
           trees from the spanner, so check for a true permutation *)
        if Array.length o <> n then
          invalid_arg "Sharded.build: order must be a permutation of the vertex range";
        let seen = Bytes.make n '\000' in
        Array.iter
          (fun v ->
            if v < 0 || v >= n || Bytes.get seen v <> '\000' then
              invalid_arg "Sharded.build: order must be a permutation of the vertex range";
            Bytes.set seen v '\001')
          o;
        Some o
    (* per-root traversals share nothing across a batch: id order *)
    | None, Mis_k _ -> None
    | None, _ -> Some (locality_order g)
  in
  let ctx_size = match strat with Mis_k _ -> 0 | _ -> n in
  let result = Edge_set.create g in
  let mutex = Mutex.create () in
  let boundary = ref [] in
  let nbatches = (n + chunk - 1) / chunk in
  drive ~chunk:1 ~n:nbatches ~domains
    ~stop:(fun () -> false)
    (fun claim ->
      let ctx = create_ctx ctx_size in
      let items = ref 0 in
      let rec loop () =
        match claim () with
        | None -> ()
        | Some (lo, hi) ->
            for b = lo to hi do
              let blo = b * chunk in
              let len = min chunk (n - blo) in
              let roots =
                match order with
                | Some o -> Array.sub o blo len
                | None -> Array.init len (fun i -> blo + i)
              in
              if local then process_batch_local g ctx strat roots
              else process_batch g ctx strat roots;
              items := !items + len
            done;
            loop ()
      in
      loop ();
      Mutex.lock mutex;
      merge_acc ctx result;
      boundary := List.rev_append ctx.unsafe !boundary;
      Mutex.unlock mutex;
      !items);
  (* Boundary repair: roots whose shard ball was clipped re-run in
     global batches on the calling domain. The edge set is already
     deterministic (each root's tree is a function of the graph), so
     the sort only stabilizes batching for metrics. *)
  (match !boundary with
  | [] -> ()
  | l ->
      let roots = Array.of_list l in
      Array.sort Int.compare roots;
      let ctx = create_ctx n in
      let nb = Array.length roots in
      let i = ref 0 in
      while !i < nb do
        let len = min Msbfs.width (nb - !i) in
        process_batch g ctx strat (Array.sub roots !i len);
        i := !i + len
      done;
      merge_acc ctx result);
  result
