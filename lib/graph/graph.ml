(* Flat CSR core: [off] has n+1 offsets into [nbr], which packs every
   vertex's sorted neighbor list. [eoff.(u)] counts the edges whose
   smaller endpoint is below [u]: edge ids are lexicographic, so the
   forward neighbors of [u] (those above it, which sit at the end of
   its sorted range) carry ids [eoff.(u) .. eoff.(u+1) - 1] in order,
   and an edge probe is one binary search plus arithmetic — no hash
   tables on the hot path and no per-slot id array to rewrite when
   {!patch} shifts the ids. [adj] keeps the historical per-vertex
   arrays alive for the [neighbors] accessor; it is built on first
   demand because it duplicates [nbr] (at n = 10^6 the copies cost
   hundreds of MB) and the hot paths all run over the CSR directly.
   [edges], the boxed canonical pair array, is memoized the same way:
   constructions that sorted one keep it, a patched graph builds it
   only if someone asks (the write path never does). The memoization
   is an [Atomic] publish rather than [Lazy.t] because parallel
   constructions probe [neighbors] from several domains and
   [Lazy.force] is not domain-safe (concurrent force can raise
   [Lazy.Undefined]). *)
type t = {
  n : int;
  m : int;
  off : int array; (* length n+1 *)
  nbr : int array; (* length 2m, sorted within each vertex's range *)
  eoff : int array; (* length n+1: #edges (a, b), a < b, with a < u *)
  adj : int array array option Atomic.t;
  edges : (int * int) array option Atomic.t;
}

let canonical u v = if u < v then (u, v) else (v, u)

let cmp_edge (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

(* CSR fill from an owned, canonical ([u < v]), lex-sorted, duplicate-free
   edge array. Shared by the generic [build] path (which sorts and
   dedups first) and [of_canonical] (whose input is validated to
   already be in this form, so a binary snapshot load pays no sort).
   Lex order also leaves every range sorted: [u]'s backward neighbors
   (edges (w, u), w < u) are all filled before its forward ones, each
   group in increasing order. *)
let fill_csr n edges =
  let m = Array.length edges in
  let deg = Array.make n 0 in
  let eoff = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      eoff.(u + 1) <- eoff.(u + 1) + 1)
    edges;
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + deg.(u);
    eoff.(u + 1) <- eoff.(u) + eoff.(u + 1)
  done;
  let nbr = Array.make (2 * m) 0 in
  let fill = Array.copy off in
  Array.iter
    (fun (u, v) ->
      nbr.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      nbr.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  { n; m; off; nbr; eoff; adj = Atomic.make None; edges = Atomic.make (Some edges) }

let build n edge_list =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.make: endpoint out of range (%d,%d)" u v);
      if u = v then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" u))
    edge_list;
  (* canonicalize, sort lexicographically, drop duplicates *)
  let raw = Array.of_list (List.map (fun (u, v) -> canonical u v) edge_list) in
  Array.sort cmp_edge raw;
  let m =
    let count = ref 0 in
    Array.iteri (fun i e -> if i = 0 || cmp_edge raw.(i - 1) e <> 0 then incr count) raw;
    !count
  in
  let edges = Array.make m (0, 0) in
  let j = ref 0 in
  Array.iteri
    (fun i e ->
      if i = 0 || cmp_edge raw.(i - 1) e <> 0 then begin
        edges.(!j) <- e;
        incr j
      end)
    raw;
  fill_csr n edges

let make ~n edges =
  if n < 0 then invalid_arg "Graph.make: negative n";
  build n edges

let of_arrays ~n edges = make ~n (Array.to_list edges)

let of_canonical ?(validate = true) ~n edges =
  if n < 0 then invalid_arg "Graph.of_canonical: negative n";
  if validate then begin
    let m = Array.length edges in
    for i = 0 to m - 1 do
      let u, v = edges.(i) in
      if u < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.of_canonical: endpoint out of range (%d,%d)" u v);
      if u >= v then
        invalid_arg (Printf.sprintf "Graph.of_canonical: edge (%d,%d) not canonical" u v);
      if i > 0 && cmp_edge edges.(i - 1) (u, v) >= 0 then
        invalid_arg
          (Printf.sprintf "Graph.of_canonical: edges not strictly sorted at (%d,%d)" u v)
    done
  end;
  (* [u < v < n] plus strict lex order is the full [make] contract:
     in-range, no self-loops, no duplicates — one O(m) pass instead of
     a sort, which is what makes the binary snapshot load fast.
     [~validate:false] skips the check for callers that constructed
     the array themselves (sharded induced sub-graphs, hot loaders). *)
  fill_csr n (Array.copy edges)

let n g = g.n
let m g = g.m
(* Once published the adjacency never changes; if two domains race on
   the first access both build a copy and CAS picks the winner — the
   loser's copy is garbage, which is safe, just wasted work. *)
let adjacency g =
  match Atomic.get g.adj with
  | Some a -> a
  | None ->
      let a =
        Array.init g.n (fun u -> Array.sub g.nbr g.off.(u) (g.off.(u + 1) - g.off.(u)))
      in
      if Atomic.compare_and_set g.adj None (Some a) then a
      else Option.get (Atomic.get g.adj)

let neighbors g u = (adjacency g).(u)
let degree g u = g.off.(u + 1) - g.off.(u)

let csr g = (g.off, g.nbr)

let iter_neighbors g u f =
  let nbr = g.nbr in
  for i = g.off.(u) to g.off.(u + 1) - 1 do
    f nbr.(i)
  done

let fold_neighbors g u f acc =
  let nbr = g.nbr in
  let acc = ref acc in
  for i = g.off.(u) to g.off.(u + 1) - 1 do
    acc := f !acc nbr.(i)
  done;
  !acc

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    best := max !best (degree g u)
  done;
  !best

(* binary search for [v] in [u]'s CSR range; -1 when absent *)
let nbr_slot g u v =
  let lo = ref g.off.(u) and hi = ref (g.off.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.nbr.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge g u v = u <> v && u >= 0 && u < g.n && v >= 0 && v < g.n && nbr_slot g u v >= 0

(* id of the forward edge in [u]'s slot [slot] (its neighbor is
   above [u]): ranges end with the forward neighbors, in id order *)
let forward_id g u slot = g.eoff.(u + 1) - (g.off.(u + 1) - slot)

let edge_id g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then raise Not_found;
  let u, v = if u < v then (u, v) else (v, u) in
  let slot = nbr_slot g u v in
  if slot < 0 then raise Not_found else forward_id g u slot

(* Strictly increasing canonical pairs, each [present] or absent in [g]
   as the caller demands; returned as an array. *)
let patch_side g what ~present es =
  let a = Array.of_list es in
  Array.iteri
    (fun i (u, v) ->
      if u < 0 || v >= g.n || u >= v then
        invalid_arg (Printf.sprintf "Graph.patch: %s edge (%d,%d) not canonical" what u v);
      if i > 0 && cmp_edge a.(i - 1) (u, v) >= 0 then
        invalid_arg (Printf.sprintf "Graph.patch: %s edges not strictly sorted at (%d,%d)" what u v);
      if (nbr_slot g u v >= 0) <> present then
        invalid_arg
          (Printf.sprintf "Graph.patch: %s edge (%d,%d) %s" what u v
             (if present then "absent" else "already present")))
    a;
  a

(* One linear pass over the old layout: [nbr] is copied in runs between
   the touched vertices, [off]/[eoff] get a running shift, and only the
   touched vertices' ranges are merged entry by entry. Nothing is
   sorted except the O(|delta|) edit list, and the boxed edge array is
   left to its memo. *)
let patch g ~added ~removed =
  let add = patch_side g "added" ~present:false added in
  let rem = patch_side g "removed" ~present:true removed in
  let n = g.n and m = g.m in
  let ka = Array.length add and kr = Array.length rem in
  if ka = 0 && kr = 0 then g
  else begin
    let m' = m + ka - kr in
    (* per-vertex edits (vertex, neighbor, +1 add / -1 remove), sorted *)
    let edits =
      let e = Array.make (2 * (ka + kr)) (0, 0, 0) and k = ref 0 in
      let push (u, v) sign =
        e.(!k) <- (u, v, sign);
        e.(!k + 1) <- (v, u, sign);
        k := !k + 2
      in
      Array.iter (fun p -> push p 1) add;
      Array.iter (fun p -> push p (-1)) rem;
      Array.sort
        (fun (a, b, _) (c, d, _) ->
          let x = Int.compare a c in
          if x <> 0 then x else Int.compare b d)
        e;
      e
    in
    let ne = Array.length edits in
    let off = Array.make (n + 1) 0 and eoff = Array.make (n + 1) 0 in
    let sd = ref 0 and se = ref 0 and k = ref 0 in
    for u = 0 to n do
      off.(u) <- g.off.(u) + !sd;
      eoff.(u) <- g.eoff.(u) + !se;
      while !k < ne && (let w, _, _ = edits.(!k) in w = u) do
        let _, v, sign = edits.(!k) in
        sd := !sd + sign;
        if v > u then se := !se + sign;
        incr k
      done
    done;
    let nbr = Array.make (2 * m') 0 in
    let copy src_pos dst_pos len = Array.blit g.nbr src_pos nbr dst_pos len in
    let k = ref 0 and next = ref 0 (* first vertex not yet copied *) in
    while !k < ne do
      let u, _, _ = edits.(!k) in
      (* untouched vertices [next, u) keep their ranges verbatim *)
      copy g.off.(!next) off.(!next) (g.off.(u) - g.off.(!next));
      let src = ref g.off.(u) and dst = ref off.(u) in
      let stop = g.off.(u + 1) in
      let copy_below v =
        while !src < stop && g.nbr.(!src) < v do
          nbr.(!dst) <- g.nbr.(!src);
          incr src;
          incr dst
        done
      in
      while !k < ne && (let w, _, _ = edits.(!k) in w = u) do
        let _, v, sign = edits.(!k) in
        copy_below v;
        if sign > 0 then begin
          nbr.(!dst) <- v;
          incr dst
        end
        else incr src;
        incr k
      done;
      copy_below max_int;
      assert (!dst = off.(u + 1));
      next := u + 1
    done;
    copy g.off.(!next) off.(!next) (g.off.(n) - g.off.(!next));
    { n; m = m'; off; nbr; eoff; adj = Atomic.make None; edges = Atomic.make None }
  end

(* [u]'s forward neighbors (those above [u]) close its range, in id
   order: walking them vertex by vertex is the canonical edge order *)
let iter_edges f g =
  for u = 0 to g.n - 1 do
    let stop = g.off.(u + 1) in
    for i = stop - (g.eoff.(u + 1) - g.eoff.(u)) to stop - 1 do
      f u g.nbr.(i)
    done
  done

let fold_edges f acc g =
  let acc = ref acc in
  iter_edges (fun u v -> acc := f !acc u v) g;
  !acc

(* same CAS-memo as [adjacency] *)
let edges g =
  match Atomic.get g.edges with
  | Some a -> a
  | None ->
      let a = Array.make g.m (0, 0) and k = ref 0 in
      iter_edges
        (fun u v ->
          a.(!k) <- (u, v);
          incr k)
        g;
      if Atomic.compare_and_set g.edges None (Some a) then a
      else Option.get (Atomic.get g.edges)

let edge g id = (edges g).(id)

let iter_vertices f g =
  for u = 0 to g.n - 1 do
    f u
  done

let fold_vertices f acc g =
  let acc = ref acc in
  for u = 0 to g.n - 1 do
    acc := f !acc u
  done;
  !acc

let induced g vs =
  let k = Array.length vs in
  let fwd = Hashtbl.create k in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem fwd v then invalid_arg "Graph.induced: duplicate vertex";
      Hashtbl.replace fwd v i)
    vs;
  let es = ref [] in
  Array.iteri
    (fun i v ->
      iter_neighbors g v (fun w ->
          match Hashtbl.find_opt fwd w with
          | Some j when i < j -> es := (i, j) :: !es
          | _ -> ()))
    vs;
  (make ~n:k !es, Array.copy vs)

let remove_vertex g u =
  let es =
    fold_edges (fun acc a b -> if a = u || b = u then acc else (a, b) :: acc) [] g
  in
  make ~n:g.n es

let union_edges g es =
  make ~n:g.n (List.rev_append es (Array.to_list (edges g)))

(* the CSR of an edge set is unique, so equal graphs have equal arrays *)
let equal g1 g2 =
  let same (a : int array) b =
    let ok = ref true in
    Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
    !ok
  in
  g1 == g2 || (g1.n = g2.n && g1.m = g2.m && same g1.off g2.off && same g1.nbr g2.nbr)

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@,@[<hov>" g.n (m g);
  iter_edges (fun u v -> Format.fprintf fmt "(%d,%d)@ " u v) g;
  Format.fprintf fmt "@]@]"
