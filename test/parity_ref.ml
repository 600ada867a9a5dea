(* Reference transcriptions shared by the differential tests: the
   straightforward pre-optimization kernels that the optimized ones in
   [Tt_core] must match bit for bit, and the paper-family corpus they are
   compared on. *)

module T = Tt_core.Tree

(* the pre-optimization bottom-up order: polymorphic sort by decreasing
   depth (unstable within a level, unlike the counting sort that replaced
   it — the references prove the results do not depend on that order) *)
let seed_bottom_up t =
  let d = T.depth t in
  let order = Array.init (T.size t) (fun i -> i) in
  Array.sort (fun a b -> compare d.(b) d.(a)) order;
  order

(* --- reference segment calculus: the list-backed implementation --------- *)

module Ref_seg = struct
  type seg = { hill : int; valley : int; nodes : int list }

  let cost s = s.hill - s.valley

  let fuse a b =
    { hill = max a.hill b.hill; valley = b.valley; nodes = a.nodes @ b.nodes }

  let canonicalize segments =
    let push stack s =
      let rec go stack s =
        match stack with
        | top :: rest when cost s >= cost top || top.valley >= s.valley ->
            go rest (fuse top s)
        | _ -> s :: stack
      in
      go stack s
    in
    List.rev (List.fold_left push [] segments)

  let merge profiles =
    match profiles with
    | [] -> []
    | [ p ] -> p
    | _ ->
        let arr = Array.of_list (List.map Array.of_list profiles) in
        let k = Array.length arr in
        let idx = Array.make k 0 in
        let contrib = Array.make k 0 in
        let total = ref 0 in
        let heap = Tt_util.Int_heap.create k in
        for c = 0 to k - 1 do
          if Array.length arr.(c) > 0 then
            Tt_util.Int_heap.insert heap c (-cost arr.(c).(0))
        done;
        let out = ref [] in
        while not (Tt_util.Int_heap.is_empty heap) do
          let c, _ = Tt_util.Int_heap.pop_min heap in
          let s = arr.(c).(idx.(c)) in
          let base = !total - contrib.(c) in
          out :=
            { hill = s.hill + base; valley = s.valley + base; nodes = s.nodes }
            :: !out;
          total := base + s.valley;
          contrib.(c) <- s.valley;
          idx.(c) <- idx.(c) + 1;
          if idx.(c) < Array.length arr.(c) then
            Tt_util.Int_heap.insert heap c (-cost arr.(c).(idx.(c)))
        done;
        canonicalize (List.rev !out)

  let append_parent prof ~hill ~valley ~node =
    canonicalize (prof @ [ { hill; valley; nodes = [ node ] } ])

  let peak prof = List.fold_left (fun acc s -> max acc s.hill) 0 prof
  let nodes prof = List.concat_map (fun s -> s.nodes) prof

  (* the list-backed Liu, using the reference calculus end to end *)
  let liu_run t =
    let p = T.size t in
    let prof = Array.make p [] in
    Array.iter
      (fun i ->
        let merged =
          merge (Array.to_list (Array.map (fun c -> prof.(c)) (T.children t i)))
        in
        prof.(i) <-
          append_parent merged ~hill:(T.mem_req t i) ~valley:t.T.f.(i) ~node:i)
      (seed_bottom_up t);
    let root_profile = prof.(t.T.root) in
    (peak root_profile, Array.of_list (List.rev (nodes root_profile)))
end

(* --- reference postorder: child lists re-sorted at every use ------------ *)

let ref_postorder_run t =
  let p = T.size t in
  let bottom_up = seed_bottom_up t in
  let sorted_children peaks i =
    let cs = T.children t i in
    Array.sort
      (fun a b -> compare (peaks.(a) - t.T.f.(a)) (peaks.(b) - t.T.f.(b)))
      cs;
    cs
  in
  let peaks = Array.make p 0 in
  Array.iter
    (fun i ->
      let cs = sorted_children peaks i in
      let best = ref (T.mem_req t i) in
      let pending = ref (Array.fold_left (fun acc c -> acc + t.T.f.(c)) 0 cs) in
      Array.iter
        (fun c ->
          pending := !pending - t.T.f.(c);
          let v = peaks.(c) + !pending in
          if v > !best then best := v)
        cs;
      peaks.(i) <- !best)
    bottom_up;
  let order = Array.make p (-1) in
  let k = ref 0 in
  let stack = ref [ t.T.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        order.(!k) <- i;
        incr k;
        let cs = sorted_children peaks i in
        for j = Array.length cs - 1 downto 0 do
          stack := cs.(j) :: !stack
        done
  done;
  (peaks.(t.T.root), order)

(* --- reference peak: resident files recounted from scratch every step ---- *)

(* Section III's definition, read literally: while [i] runs, memory holds
   the input files of every node whose parent has run but which has not
   run itself (i's own included), plus [n i] and i's output files. Only
   the parent array is read, never the child adjacency. *)
let ref_peak t order =
  let p = T.size t in
  let executed = Array.make p false in
  let pk = ref min_int in
  Array.iter
    (fun i ->
      let resident = ref 0 and out = ref 0 in
      for j = 0 to p - 1 do
        let par = t.T.parent.(j) in
        if (not executed.(j)) && (par < 0 || executed.(par)) then
          resident := !resident + t.T.f.(j);
        if par = i then out := !out + t.T.f.(j)
      done;
      pk := max !pk (!resident + t.T.n.(i) + !out);
      executed.(i) <- true)
    order;
  !pk

(* --- the paper-family corpus, with index-hashed weights ------------------ *)

let hash_weight i m = 1 + (i * 2654435761) land max_int mod m

let reweight ~max_f t =
  T.map_weights ~f:(fun i -> hash_weight i max_f) ~n:(fun i -> hash_weight (i + 1) 7 - 1) t

let family_instances =
  let module I = Tt_core.Instances in
  [ ("chain-stair", reweight ~max_f:401 (I.chain ~length:120 ~f:1 ~n:0));
    ("binary-rand", reweight ~max_f:401 (I.complete_binary ~levels:6 ~f:1 ~n:0));
    ("star", I.star ~branches:60 ~f_root:3 ~f_leaf:7 ~n:5);
    ("harpoon", I.harpoon_nested ~branches:2 ~levels:5 ~m:64 ~eps:3);
    ("caterpillar", reweight ~max_f:97 (I.caterpillar ~length:40 ~leaves_per_node:3 ~f:7 ~n:3));
    ("random", T.random ~rng:(Tt_util.Rng.create 97) ~size:150 ~max_f:50 ~max_n:9)
  ]
