module D = Tt_util.Dynarray_compat

(* Quotient-graph minimum degree. Each uneliminated variable [v] keeps
   - [avars.(v)]: adjacent uneliminated variables (original edges still
     alive), and
   - [aelts.(v)]: adjacent elements (eliminated pivots whose clique
     contains [v]).
   Each element [e] keeps its boundary list [boundary.(e)]. A timestamped
   mark array makes unions O(size of the lists). *)

let order ?(cancel = Tt_util.Cancel.never) (g : Graph_adj.t) =
  let n = g.Graph_adj.n in
  let avars = Array.map (fun a -> D.of_array a) g.Graph_adj.adj in
  let aelts : int D.t array = Array.init n (fun _ -> D.create ()) in
  let boundary : int array array = Array.make n [||] in
  let eliminated = Array.make n false in
  let mark = Array.make n 0 in
  let stamp = ref 0 in
  let next_stamp () =
    incr stamp;
    !stamp
  in
  (* exact external degree of v *)
  let compute_degree v =
    let s = next_stamp () in
    mark.(v) <- s;
    let count = ref 0 in
    let visit u =
      if (not eliminated.(u)) && mark.(u) <> s then begin
        mark.(u) <- s;
        incr count
      end
    in
    D.iter (fun u -> if not eliminated.(u) then visit u) avars.(v);
    D.iter (fun e -> Array.iter visit boundary.(e)) aelts.(v);
    !count
  in
  let heap = Tt_util.Int_heap.create n in
  for v = 0 to n - 1 do
    Tt_util.Int_heap.insert heap v (compute_degree v)
  done;
  let perm = Array.make n (-1) in
  for step = 0 to n - 1 do
    Tt_util.Cancel.check cancel;
    let p, _deg = Tt_util.Int_heap.pop_min heap in
    perm.(step) <- p;
    eliminated.(p) <- true;
    (* boundary of the new element: live variable neighbors plus the
       boundaries of adjacent (now absorbed) elements *)
    let s = next_stamp () in
    mark.(p) <- s;
    let bnd = D.create () in
    let visit u =
      if (not eliminated.(u)) && mark.(u) <> s then begin
        mark.(u) <- s;
        D.add_last bnd u
      end
    in
    D.iter (fun u -> if not eliminated.(u) then visit u) avars.(p);
    let absorbed = D.to_array aelts.(p) in
    Array.iter (fun e -> Array.iter visit boundary.(e)) absorbed;
    let bnd = D.to_array bnd in
    boundary.(p) <- bnd;
    (* release the absorbed elements *)
    Array.iter (fun e -> boundary.(e) <- [||]) absorbed;
    avars.(p) <- D.create ();
    aelts.(p) <- D.create ();
    (* update each boundary variable: drop dead variable neighbors and
       absorbed elements, gain element p, refresh its degree *)
    let absorbed_set = next_stamp () in
    Array.iter (fun e -> mark.(e) <- absorbed_set) absorbed;
    Array.iter
      (fun v ->
        (* avars v: keep live neighbors outside the new clique; members of
           the clique are reachable through element p *)
        let s2 = next_stamp () in
        Array.iter (fun u -> mark.(u) <- s2) bnd;
        let keep = D.create () in
        D.iter
          (fun u -> if (not eliminated.(u)) && mark.(u) <> s2 then D.add_last keep u)
          avars.(v);
        avars.(v) <- keep;
        let kept_elts = D.create () in
        D.iter
          (fun e -> if mark.(e) <> absorbed_set && e <> p then D.add_last kept_elts e)
          aelts.(v);
        D.add_last kept_elts p;
        aelts.(v) <- kept_elts;
        Tt_util.Int_heap.update heap v (compute_degree v))
      bnd
  done;
  perm
