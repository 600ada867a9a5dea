type check_result =
  | Feasible of int
  | Infeasible_at of { step : int; needed : int; available : int }
  | Invalid_order of { step : int; node : int; reason : string }

(* Shared simulation: runs the traversal and calls [on_step step node usage];
   returns an error constructor result via [Invalid_order] when the order is
   broken. The "usage" reported for a step is the total memory in use while
   that node executes. *)
let simulate t order on_step =
  let p = Tree.size t in
  if Array.length order <> p then
    Invalid_order { step = -1; node = -1; reason = "wrong length" }
  else begin
    (* one byte per node, not one word: this runs on 10M-node trees *)
    let ready = Bytes.make p '\000' in
    let executed = Bytes.make p '\000' in
    Bytes.set ready t.Tree.root '\001';
    (* ready_f = sum of f over ready nodes *)
    let ready_f = ref t.Tree.f.(t.Tree.root) in
    let result = ref None in
    let step = ref 0 in
    while Option.is_none !result && !step < p do
      let k = !step in
      let i = order.(k) in
      if i < 0 || i >= p then
        result := Some (Invalid_order { step = k; node = i; reason = "node out of range" })
      else if Bytes.get executed i = '\001' then
        result := Some (Invalid_order { step = k; node = i; reason = "duplicate node" })
      else if Bytes.get ready i <> '\001' then
        result :=
          Some (Invalid_order { step = k; node = i; reason = "parent not yet executed" })
      else begin
        let out = Tree.sum_children_f t i in
        let usage = !ready_f + t.Tree.n.(i) + out in
        (match on_step k i usage with
        | Some err -> result := Some err
        | None ->
            Bytes.set executed i '\001';
            Bytes.set ready i '\000';
            ready_f := !ready_f - t.Tree.f.(i) + out;
            Tree.iter_children t i (fun j -> Bytes.set ready j '\001');
            incr step)
      end
    done;
    match !result with Some r -> r | None -> Feasible 0
  end

let check t ~memory order =
  let peak = ref min_int in
  let r =
    simulate t order (fun step _i usage ->
        if usage > memory then
          Some (Infeasible_at { step; needed = usage; available = memory })
        else begin
          if usage > !peak then peak := usage;
          None
        end)
  in
  match r with Feasible _ -> Feasible !peak | other -> other

let is_valid_order t order =
  match simulate t order (fun _ _ _ -> None) with Feasible _ -> true | _ -> false

let peak t order =
  let peak = ref min_int in
  match
    simulate t order (fun _ _ usage ->
        if usage > !peak then peak := usage;
        None)
  with
  | Feasible _ -> !peak
  | Infeasible_at _ -> assert false
  | Invalid_order { reason; _ } -> invalid_arg ("Traversal.peak: " ^ reason)

let profile t order =
  let prof = Array.make (Tree.size t) 0 in
  match
    simulate t order (fun step _ usage ->
        prof.(step) <- usage;
        None)
  with
  | Feasible _ -> prof
  | Infeasible_at _ -> assert false
  | Invalid_order { reason; _ } -> invalid_arg ("Traversal.profile: " ^ reason)

let top_down_order t =
  let p = Tree.size t in
  let order = Array.make p (-1) in
  let queue = Queue.create () in
  Queue.add t.Tree.root queue;
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!k) <- i;
    incr k;
    Tree.iter_children t i (fun j -> Queue.add j queue)
  done;
  order

let all_orders t =
  let p = Tree.size t in
  if p > 10 then invalid_arg "Traversal.all_orders: tree too large";
  let acc = ref [] in
  let order = Array.make p (-1) in
  let rec go step ready =
    if step = p then acc := Array.copy order :: !acc
    else
      List.iter
        (fun i ->
          order.(step) <- i;
          let ready' =
            List.filter (fun j -> j <> i) ready
            @ Array.to_list (Tree.children t i)
          in
          go (step + 1) ready')
        ready
  in
  go 0 [ t.Tree.root ];
  !acc

let random_order ~rng t =
  let p = Tree.size t in
  let order = Array.make p (-1) in
  let ready = Tt_util.Dynarray_compat.create () in
  Tt_util.Dynarray_compat.add_last ready t.Tree.root;
  for step = 0 to p - 1 do
    let pos = Tt_util.Rng.int rng (Tt_util.Dynarray_compat.length ready) in
    let i = Tt_util.Dynarray_compat.get ready pos in
    (* swap-remove *)
    Tt_util.Dynarray_compat.set ready pos (Tt_util.Dynarray_compat.last ready);
    ignore (Tt_util.Dynarray_compat.pop_last ready);
    order.(step) <- i;
    Tree.iter_children t i (Tt_util.Dynarray_compat.add_last ready)
  done;
  order
