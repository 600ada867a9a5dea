let order ?(cancel = Tt_util.Cancel.never) (g : Graph_adj.t) =
  let n = g.Graph_adj.n in
  let visited = Array.make n false in
  let out = Array.make n (-1) in
  let pos = ref 0 in
  let push v =
    visited.(v) <- true;
    out.(!pos) <- v;
    incr pos
  in
  for seed = 0 to n - 1 do
    if not visited.(seed) then begin
      let start = Graph_adj.pseudo_peripheral g seed in
      let start = if visited.(start) then seed else start in
      let head = ref !pos in
      push start;
      (* classic CM: process the queue in order, appending unvisited
         neighbors by increasing degree *)
      while !head < !pos do
        Tt_util.Cancel.check cancel;
        let u = out.(!head) in
        incr head;
        let neigh =
          Array.of_list
            (List.filter (fun v -> not visited.(v)) (Array.to_list g.Graph_adj.adj.(u)))
        in
        Array.sort
          (fun a b -> compare (Graph_adj.degree g a) (Graph_adj.degree g b))
          neigh;
        Array.iter push neigh
      done
    end
  done;
  (* reverse for RCM *)
  let rev = Array.make n (-1) in
  for i = 0 to n - 1 do
    rev.(i) <- out.(n - 1 - i)
  done;
  rev
