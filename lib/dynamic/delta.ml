open Rs_graph

type op =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Node_down of int
  | Node_up of int * int list

type t = op list

let check_vertex n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Delta: vertex %d out of range [0..%d)" v n)

let check_edge n u v =
  check_vertex n u;
  check_vertex n v;
  if u = v then invalid_arg (Printf.sprintf "Delta: self-loop at vertex %d" u)

let validate ~n ops =
  List.iter
    (function
      | Add_edge (u, v) | Remove_edge (u, v) -> check_edge n u v
      | Node_down u -> check_vertex n u
      | Node_up (u, links) -> List.iter (check_edge n u) links)
    ops

(* The batch replayed against a small overlay over [g]: int-encoded
   canonical pair -> present after the ops so far. Untouched pairs read
   through to [Graph.mem_edge], so the cost is O(|delta| + sum of the
   degrees of downed nodes), never O(m). *)
let encode n u v = if u <= v then (u * n) + v else (v * n) + u
let decode n e = (e / n, e mod n)

let effect g ops =
  let n = Graph.n g in
  validate ~n ops;
  let over = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Add_edge (u, v) -> Hashtbl.replace over (encode n u v) true
      | Remove_edge (u, v) -> Hashtbl.replace over (encode n u v) false
      | Node_down u ->
          (* incident now = [g]'s edges at [u] not yet removed, plus
             overlay pairs at [u] added earlier in the batch *)
          let doomed =
            Hashtbl.fold
              (fun e b acc ->
                let a, c = decode n e in
                if b && (a = u || c = u) then e :: acc else acc)
              over []
          in
          List.iter (fun e -> Hashtbl.replace over e false) doomed;
          Graph.iter_neighbors g u (fun v -> Hashtbl.replace over (encode n u v) false)
      | Node_up (u, links) ->
          List.iter (fun v -> Hashtbl.replace over (encode n u v) true) links)
    ops;
  (* sorting int encodings with [Int.compare] is the lexicographic
     pair order, without polymorphic compare on tuples *)
  let added = ref [] and removed = ref [] in
  Hashtbl.iter
    (fun e after ->
      let u, v = decode n e in
      let before = Graph.mem_edge g u v in
      if after && not before then added := e :: !added
      else if before && not after then removed := e :: !removed)
    over;
  let sorted l = List.map (decode n) (List.sort Int.compare l) in
  (sorted !added, sorted !removed)

type net = {
  base : Graph.t;
  result : Graph.t;
  added : (int * int) list;
  removed : (int * int) list;
}

let net g ops =
  let added, removed = effect g ops in
  { base = g; result = Graph.patch g ~added ~removed; added; removed }

let is_quiescent t = t.added = [] && t.removed = []

let apply g ops = (net g ops).result

(* one merge walk per vertex over the two graphs' forward neighbors
   (the tail of each sorted CSR range), top down so the prepends come
   out in canonical order *)
let diff g g' =
  if Graph.n g <> Graph.n g' then
    invalid_arg
      (Printf.sprintf "Delta.diff: vertex counts differ (%d vs %d)" (Graph.n g)
         (Graph.n g'));
  let off, nbr = Graph.csr g and off', nbr' = Graph.csr g' in
  let gone = ref [] and fresh = ref [] in
  for u = Graph.n g - 1 downto 0 do
    let i = ref (off.(u + 1) - 1) and j = ref (off'.(u + 1) - 1) in
    let top a off k = if !k >= off.(u) && a.(!k) > u then a.(!k) else -1 in
    while top nbr off i >= 0 || top nbr' off' j >= 0 do
      let a = top nbr off i and b = top nbr' off' j in
      if a = b then begin
        decr i;
        decr j
      end
      else if a > b then begin
        gone := Remove_edge (u, a) :: !gone;
        decr i
      end
      else begin
        fresh := Add_edge (u, b) :: !fresh;
        decr j
      end
    done
  done;
  !gone @ !fresh

let touched ~added ~removed =
  let m = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace m u ();
      Hashtbl.replace m v ())
    added;
  List.iter
    (fun (u, v) ->
      Hashtbl.replace m u ();
      Hashtbl.replace m v ())
    removed;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) m [])

(* ------------------------------------------------------------------ *)
(* delta files *)

let parse text =
  let ops = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      let toks =
        String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
        |> List.filter (( <> ) "")
      in
      let bad why = failwith (Printf.sprintf "Delta.parse: line %d: %s" (i + 1) why) in
      let int s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> bad ("not an integer: " ^ s)
      in
      match toks with
      | [] -> ()
      | [ "add"; u; v ] -> ops := Add_edge (int u, int v) :: !ops
      | [ "remove"; u; v ] -> ops := Remove_edge (int u, int v) :: !ops
      | [ "down"; u ] -> ops := Node_down (int u) :: !ops
      | "up" :: u :: links when links <> [] ->
          ops := Node_up (int u, List.map int links) :: !ops
      | "add" :: _ -> bad "expected: add U V"
      | "remove" :: _ -> bad "expected: remove U V"
      | "down" :: _ -> bad "expected: down U"
      | "up" :: _ -> bad "expected: up U V1 [V2 ...]"
      | kw :: _ -> bad ("unknown directive: " ^ kw))
    lines;
  List.rev !ops

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let pp_op fmt = function
  | Add_edge (u, v) -> Format.fprintf fmt "add %d %d" u v
  | Remove_edge (u, v) -> Format.fprintf fmt "remove %d %d" u v
  | Node_down u -> Format.fprintf fmt "down %d" u
  | Node_up (u, links) ->
      Format.fprintf fmt "up %d%t" u (fun fmt ->
          List.iter (fun v -> Format.fprintf fmt " %d" v) links)

let to_string ops =
  let buf = Buffer.create (16 * (1 + List.length ops)) in
  List.iter
    (fun op ->
      (match op with
      | Add_edge (u, v) -> Buffer.add_string buf (Printf.sprintf "add %d %d" u v)
      | Remove_edge (u, v) -> Buffer.add_string buf (Printf.sprintf "remove %d %d" u v)
      | Node_down u -> Buffer.add_string buf (Printf.sprintf "down %d" u)
      | Node_up (u, links) ->
          Buffer.add_string buf (Printf.sprintf "up %d" u);
          List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) links);
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf
