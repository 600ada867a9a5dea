(* In-memory spans recorded around the benchmark's calls into each layer.
   Spans are kept in a growable array and written out as JSONL at exit;
   recording is off (a single branch) in untraced phases. *)

type span = {
  name : string;  (** ["<layer>.<stage>"], or ["op"] for the op itself. *)
  t0 : float;
  mutable t1 : float;
  parent : int;  (** Index of the enclosing span, -1 at top level. *)
  op : int;  (** Op id shared by every span of one op. *)
}

let enabled = ref false
let store : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let cur_op = ref (-1)

let push s =
  if !count = Array.length !store then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !store 0 bigger 0 !count;
    store := bigger
  end;
  !store.(!count) <- s;
  incr count;
  !count - 1

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; t0 = Bu.now (); t1 = nan; parent; op = !cur_op } in
    let id = push s in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Bu.now ();
        stack := List.tl !stack)
      f
  end

(* Run [f] as op [id]: every span opened inside carries that op id. *)
let with_op id f =
  cur_op := id;
  Fun.protect ~finally:(fun () -> cur_op := -1) f

let spans () = Array.sub !store 0 !count
let dur s = s.t1 -. s.t0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per span: its duration minus the time its children cover. *)
let self_times () =
  let sp = spans () in
  let self = Array.map dur sp in
  Array.iter (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. dur s) sp;
  (sp, self)

(* Sum of durations and number of spans named [name]. *)
let total name =
  Array.fold_left
    (fun (t, n) s -> if s.name = name then (t +. dur s, n + 1) else (t, n))
    (0., 0) (spans ())

(* Per-layer self time, in first-seen layer order, split between spans
   inside an op's own span and spans replayed after its clock stopped. *)
let self_by_layer () =
  let sp, self = self_times () in
  let rec root i = if sp.(i).parent < 0 then i else root sp.(i).parent in
  let order = ref [] and tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let l = layer_of s.name in
      let inside, replay = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl l) in
      if not (Hashtbl.mem tbl l) then order := l :: !order;
      Hashtbl.replace tbl l
        (if sp.(root i).name = "op" then (inside +. self.(i), replay) else (inside, replay +. self.(i))))
    sp;
  List.rev_map (fun l -> (l, Hashtbl.find tbl l)) !order

let write path =
  let oc = open_out path in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"op\":%d}\n"
        i s.name s.t0 s.t1 s.parent s.op)
    (spans ());
  close_out oc
