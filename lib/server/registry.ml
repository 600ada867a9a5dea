type value = Int of int | Float of float

(* [rank] orders the exposition: declared [init] series by position,
   every later series at [max_int], so those sort by label values. *)
type cell = { rank : int; mutable v : value }

type t = { mu : Mutex.t; prefix : string; mutable families : family list }

and family = {
  reg : t;
  name : string;
  kind : string;
  label_names : string list;
  cells : (string list, cell) Hashtbl.t;
}

let create ~prefix = { mu = Mutex.create (); prefix; families = [] }

let check f labels =
  if List.compare_lengths labels f.label_names <> 0 then
    invalid_arg ("Registry: wrong label count for " ^ f.name)

let declare kind t ?(labels = []) ?(init = []) name =
  let f =
    { reg = t;
      name = t.prefix ^ name;
      kind;
      label_names = labels;
      cells = Hashtbl.create 8
    }
  in
  List.iteri
    (fun rank key ->
      check f key;
      Hashtbl.replace f.cells key { rank; v = Int 0 })
    (if labels = [] then [ [] ] else init);
  Mutex.protect t.mu (fun () -> t.families <- t.families @ [ f ]);
  f

let counter t = declare "counter" t
let gauge t = declare "gauge" t

let to_int = function Int n -> n | Float x -> int_of_float x
let to_float = function Int n -> float_of_int n | Float x -> x

let update ?(labels = []) f g =
  check f labels;
  Mutex.protect f.reg.mu (fun () ->
      match Hashtbl.find_opt f.cells labels with
      | Some c -> c.v <- g c.v
      | None ->
          Hashtbl.replace f.cells labels { rank = max_int; v = g (Int 0) })

let add ?labels f n =
  update ?labels f (function
    | Int m -> Int (m + n)
    | Float x -> Float (x +. float_of_int n))

let addf ?labels f x = update ?labels f (fun v -> Float (to_float v +. x))
let set ?labels f n = update ?labels f (fun _ -> Int n)
let setf ?labels f x = update ?labels f (fun _ -> Float x)

let remove f labels =
  Mutex.protect f.reg.mu (fun () -> Hashtbl.remove f.cells labels)

let find ?(labels = []) f =
  Mutex.protect f.reg.mu (fun () ->
      match Hashtbl.find_opt f.cells labels with
      | Some c -> c.v
      | None -> Int 0)

let get ?labels f = to_int (find ?labels f)
let getf ?labels f = to_float (find ?labels f)

(* Call with the lock held. *)
let sorted f =
  Hashtbl.fold (fun key c acc -> ((c.rank, key), c.v) :: acc) f.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let series f =
  Mutex.protect f.reg.mu (fun () ->
      List.map (fun ((_, key), v) -> (key, to_int v)) (sorted f))

let total f = List.fold_left (fun a (_, v) -> a + v) 0 (series f)

let copy ~src dst =
  let cells =
    Mutex.protect src.mu (fun () ->
        List.map
          (fun f ->
            ( f.name,
              Hashtbl.fold
                (fun k c acc -> (k, { c with v = c.v }) :: acc)
                f.cells [] ))
          src.families)
  in
  Mutex.protect dst.mu (fun () ->
      if List.map fst cells <> List.map (fun f -> f.name) dst.families then
        invalid_arg "Registry.copy: different families";
      List.iter2
        (fun f (_, cs) ->
          Hashtbl.reset f.cells;
          List.iter (fun (k, c) -> Hashtbl.replace f.cells k c) cs)
        dst.families cells)

let float_to_string x =
  if Float.is_finite x then Printf.sprintf "%.9g" x else "NaN"

let to_prometheus t =
  let b = Buffer.create 1024 in
  Mutex.protect t.mu (fun () ->
      List.iter
        (fun f ->
          Printf.bprintf b "# TYPE %s %s\n" f.name f.kind;
          List.iter
            (fun ((_, key), v) ->
              let labels =
                if key = [] then ""
                else
                  "{"
                  ^ String.concat ","
                      (List.map2 (Printf.sprintf "%s=%S") f.label_names key)
                  ^ "}"
              in
              Printf.bprintf b "%s%s %s\n" f.name labels
                (match v with
                | Int n -> string_of_int n
                | Float x -> float_to_string x))
            (sorted f))
        t.families);
  Buffer.contents b
