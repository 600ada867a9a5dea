(* A hash table over an intrusive doubly linked recency list: [head] is
   the most recently used entry, [tail] the next to evict. *)
type entry = {
  key : string;
  value : string * Tt_core.Tree.t;
  weight : int;
  mutable prev : entry option;  (* towards [head] *)
  mutable next : entry option;  (* towards [tail] *)
}

type t = {
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  max_nodes : int;
  mutable head : entry option;
  mutable tail : entry option;
  mutable nodes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_max_nodes = 1 lsl 22

let create ?(max_nodes = default_max_nodes) () =
  if max_nodes < 1 then invalid_arg "Source_cache.create: max_nodes < 1";
  { mu = Mutex.create ();
    tbl = Hashtbl.create 64;
    max_nodes;
    head = None;
    tail = None;
    nodes = 0;
    hits = 0;
    misses = 0;
    evictions = 0
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let rec evict_until_fits t weight =
  match t.tail with
  | Some e when t.nodes + weight > t.max_nodes ->
      unlink t e;
      Hashtbl.remove t.tbl e.key;
      t.nodes <- t.nodes - e.weight;
      t.evictions <- t.evictions + 1;
      evict_until_fits t weight
  | _ -> ()

let find_or_add t ~key make =
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
            t.hits <- t.hits + 1;
            unlink t e;
            push_front t e;
            Some e.value
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match cached with
  | Some v -> v
  | None ->
      let ((_, tree) as value) = make () in
      let weight = Tt_core.Tree.size tree in
      locked t (fun () ->
          match Hashtbl.find_opt t.tbl key with
          | Some e -> e.value (* a concurrent miss inserted first *)
          | None ->
              if weight <= t.max_nodes then begin
                evict_until_fits t weight;
                let e = { key; value; weight; prev = None; next = None } in
                Hashtbl.replace t.tbl key e;
                push_front t e;
                t.nodes <- t.nodes + weight
              end;
              value)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let length t = locked t (fun () -> Hashtbl.length t.tbl)
let nodes t = locked t (fun () -> t.nodes)
