open Rs_graph

type t = { g : Graph.t; h : Edge_set.t; h_adj : int array array }

let make ?h_adj g h =
  let host = Edge_set.host h in
  if not (host == g || Graph.equal host g) then
    invalid_arg "Link_state.make: edge set over a different graph";
  let h_adj = match h_adj with Some a -> a | None -> Edge_set.to_adjacency h in
  { g; h; h_adj }

let graph t = t.g

(* BFS from [dst] in H_c (H plus the star of c's real incident edges).
   Returns the distance array. *)
let dist_from_in_view t ~view:c dst =
  let n = Graph.n t.g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(dst) <- 0;
  queue.(0) <- dst;
  let head = ref 0 and tail = ref 1 in
  let push v d =
    if dist.(v) < 0 then begin
      dist.(v) <- d;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    let dx = dist.(x) in
    Array.iter (fun y -> push y (dx + 1)) t.h_adj.(x);
    if x = c then Graph.iter_neighbors t.g c (fun y -> push y (dx + 1))
    else if Graph.mem_edge t.g c x then push c (dx + 1)
  done;
  dist

let next_hop t ~src ~dst =
  if src = dst then None
  else begin
    let dist = dist_from_in_view t ~view:src dst in
    let best = ref (-1) and best_d = ref max_int in
    Graph.iter_neighbors t.g src (fun w ->
        if dist.(w) >= 0 && dist.(w) < !best_d then begin
          best := w;
          best_d := dist.(w)
        end);
    if !best < 0 then None else Some !best
  end

let route t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let limit = Graph.n t.g in
    let rec forward c acc hops =
      if c = dst then Some (List.rev (c :: acc))
      else if hops > limit then None
      else
        match next_hop t ~src:c ~dst with
        | None -> None
        | Some w -> forward w (c :: acc) (hops + 1)
    in
    forward src [] 0
  end

type stretch_report = {
  pairs : int;
  delivered : int;
  worst_mult : float;
  worst_add : int;
  mean_mult : float;
  hops_total : int;
}

let measure_stretch ?pairs t =
  let candidates =
    match pairs with
    | Some p -> p
    | None ->
        let acc = ref [] in
        let n = Graph.n t.g in
        for s = 0 to n - 1 do
          for d = 0 to n - 1 do
            if s <> d then acc := (s, d) :: !acc
          done
        done;
        List.rev !acc
  in
  let pairs_count = ref 0
  and delivered = ref 0
  and worst_mult = ref 0.0
  and worst_add = ref 0
  and mult_sum = ref 0.0
  and hops_total = ref 0 in
  List.iter
    (fun (s, d) ->
      let dg = Bfs.dist_pair t.g s d in
      if dg > 0 then begin
        incr pairs_count;
        match route t ~src:s ~dst:d with
        | None -> ()
        | Some p ->
            incr delivered;
            let len = Path.length p in
            hops_total := !hops_total + len;
            let mult = float_of_int len /. float_of_int dg in
            worst_mult := Float.max !worst_mult mult;
            worst_add := max !worst_add (len - dg);
            mult_sum := !mult_sum +. mult
      end)
    candidates;
  {
    pairs = !pairs_count;
    delivered = !delivered;
    worst_mult = !worst_mult;
    worst_add = !worst_add;
    mean_mult = (if !delivered = 0 then 0.0 else !mult_sum /. float_of_int !delivered);
    hops_total = !hops_total;
  }

let advertisement_size t = 2 * Edge_set.cardinal t.h
