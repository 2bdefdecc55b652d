type t = { g : Graph.t; bits : Bytes.t; mutable card : int }

let nbytes m = (m + 7) / 8

let create g = { g; bits = Bytes.make (nbytes (Graph.m g)) '\000'; card = 0 }

let host s = s.g

let get_bit s id = Char.code (Bytes.get s.bits (id lsr 3)) land (1 lsl (id land 7)) <> 0

let set_bit s id =
  let byte = id lsr 3 in
  Bytes.set s.bits byte (Char.chr (Char.code (Bytes.get s.bits byte) lor (1 lsl (id land 7))))

let clear_bit s id =
  let byte = id lsr 3 in
  Bytes.set s.bits byte
    (Char.chr (Char.code (Bytes.get s.bits byte) land lnot (1 lsl (id land 7)) land 0xff))

let full g =
  let s = create g in
  for id = 0 to Graph.m g - 1 do
    set_bit s id
  done;
  s.card <- Graph.m g;
  s

let copy s = { g = s.g; bits = Bytes.copy s.bits; card = s.card }

let add_id s id =
  if not (get_bit s id) then begin
    set_bit s id;
    s.card <- s.card + 1
  end

let add s u v = add_id s (Graph.edge_id s.g u v)

let remove s u v =
  match Graph.edge_id s.g u v with
  | id ->
      if get_bit s id then begin
        clear_bit s id;
        s.card <- s.card - 1
      end
  | exception Not_found -> ()

let mem_id s id = get_bit s id

let mem s u v =
  match Graph.edge_id s.g u v with
  | id -> get_bit s id
  | exception Not_found -> false

let cardinal s = s.card

let union_into dst src =
  if not (dst.g == src.g || Graph.equal dst.g src.g) then
    invalid_arg "Edge_set.union_into: different host graphs";
  for id = 0 to Graph.m src.g - 1 do
    if get_bit src id then add_id dst id
  done

(* [len] bits from [src] at bit [soff] to [dst] at bit [doff]; whole
   destination bytes are assembled from two source bytes, so a shifted
   run costs O(len / 8). [dst] must be fresh past [doff] (whole bytes
   are overwritten). *)
let blit_bits src soff dst doff len =
  let get pos = Char.code (Bytes.get src (pos lsr 3)) land (1 lsl (pos land 7)) <> 0 in
  let set pos =
    let b = pos lsr 3 in
    Bytes.set dst b (Char.chr (Char.code (Bytes.get dst b) lor (1 lsl (pos land 7))))
  in
  let s = ref soff and d = ref doff and len = ref len in
  let one () =
    if get !s then set !d;
    incr s;
    incr d;
    decr len
  in
  while !len > 0 && !d land 7 <> 0 do
    one ()
  done;
  let last = Bytes.length src - 1 in
  while !len >= 8 do
    let b = !s lsr 3 and o = !s land 7 in
    let lo = Char.code (Bytes.get src b) lsr o in
    let hi = if o = 0 || b >= last then 0 else Char.code (Bytes.get src (b + 1)) lsl (8 - o) in
    Bytes.set dst (!d lsr 3) (Char.chr ((lo lor hi) land 0xff));
    s := !s + 8;
    d := !d + 8;
    len := !len - 8
  done;
  while !len > 0 do
    one ()
  done

let rehost s g' ~added ~removed =
  let g = s.g in
  let rem = Array.of_list (List.map (fun (u, v) -> Graph.edge_id g u v) removed) in
  let add = Array.of_list (List.map (fun (u, v) -> Graph.edge_id g' u v) added) in
  let m = Graph.m g and m' = Graph.m g' in
  if m' <> m + Array.length add - Array.length rem then
    invalid_arg "Edge_set.rehost: host is not the patched graph";
  let t = { g = g'; bits = Bytes.make (nbytes m') '\000'; card = s.card } in
  (* walk both id spaces: runs between change points keep their bits,
     an added id is skipped on the new side (starts clear), a removed
     one on the old side (its bit, if set, leaves the count) *)
  let i = ref 0 and j = ref 0 and ai = ref 0 and ri = ref 0 in
  let run len =
    blit_bits s.bits !i t.bits !j len;
    i := !i + len;
    j := !j + len
  in
  while !ai < Array.length add || !ri < Array.length rem do
    let to_add = if !ai < Array.length add then add.(!ai) - !j else max_int in
    let to_rem = if !ri < Array.length rem then rem.(!ri) - !i else max_int in
    run (min to_add to_rem);
    if to_add <= to_rem then begin
      incr j;
      incr ai
    end
    else begin
      if get_bit s !i then t.card <- t.card - 1;
      incr i;
      incr ri
    end
  done;
  run (m - !i);
  t

(* walks the host's CSR in canonical order, so a patched host never
   has to materialize its boxed edge array *)
let iter f s =
  let id = ref 0 in
  Graph.iter_edges
    (fun u v ->
      if get_bit s !id then f u v;
      incr id)
    s.g

let to_list s =
  let acc = ref [] in
  iter (fun u v -> acc := (u, v) :: !acc) s;
  List.rev !acc

let to_adjacency s =
  let n = Graph.n s.g in
  let deg = Array.make n 0 in
  iter
    (fun u v ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    s;
  let adj = Array.init n (fun u -> Array.make deg.(u) 0) in
  let fill = Array.make n 0 in
  iter
    (fun u v ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    s;
  Array.iter (fun a -> Array.sort Int.compare a) adj;
  adj

(* members come out in id order, which is canonical order *)
let to_graph s =
  let es = Array.make s.card (0, 0) and k = ref 0 in
  iter
    (fun u v ->
      es.(!k) <- (u, v);
      incr k)
    s;
  Graph.of_canonical ~validate:false ~n:(Graph.n s.g) es

let subset a b =
  if Graph.m a.g <> Graph.m b.g then invalid_arg "Edge_set.subset: different hosts";
  let ok = ref true in
  for id = 0 to Graph.m a.g - 1 do
    if get_bit a id && not (get_bit b id) then ok := false
  done;
  !ok

let equal a b = a.card = b.card && subset a b

let pp fmt s =
  Format.fprintf fmt "@[<hov>{%d edges:@ " s.card;
  iter (fun u v -> Format.fprintf fmt "(%d,%d)@ " u v) s;
  Format.fprintf fmt "}@]"
