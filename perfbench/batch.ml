(* pipeline-cold and trees-large: in-process [Executor.run_batch] on a
   fresh cache per op, so nothing an op computes is reused by the next. *)

open Tt_engine

let spec_layer = function
  | Job.Min_memory Job.Postorder -> "core.postorder"
  | Job.Min_memory Job.Liu -> "core.liu"
  | Job.Min_memory Job.Minmem -> "core.minmem"
  | Job.Approx_memory _ -> "core.minmem_approx"
  | s -> "core." ^ Job.spec_to_string s

let run_batch jobs =
  let reports, _ = Executor.run_batch (Executor.create ~domains:1 ()) jobs in
  Array.to_list (Array.map (fun r -> r.Executor.result) reports)

(* Traced equivalent of [run_batch]: job ids and solver calls as spans. *)
let traced_compute jobs =
  ignore (Trace.span "engine.job_id" (fun () -> List.map Job.id jobs));
  List.map
    (fun (j : Job.t) ->
      Trace.span (spec_layer j.spec) (fun () ->
          match Job.compute j with
          | o -> Ok o
          | exception e -> Error (Job.Crashed (Printexc.to_string e))))
    jobs

let pairs jobs results = List.map2 (fun j r -> (Job.id j, r)) jobs results

(* ----------------------------------------------------------- pipeline-cold *)

type source = {
  kind : string;
  size : int;
  seed : int;
  ordering : Tt_workloads.Pipeline.ordering;
  amalgamation : int;
}

let entry s =
  Printf.sprintf "gen %s size=%d seed=%d ordering=%s amalgamation=%d :: postorder; minmem" s.kind
    s.size s.seed (Tt_workloads.Pipeline.ordering_name s.ordering) s.amalgamation

(* Per-kind size ranges (grid sides, or matrix order), split in a low and a
   high half. The upper ends keep one op near 0.2 s at most with [mindeg],
   so a 20 s phase holds well over 100 ops. *)
let kinds =
  [| ("grid2d", 24, 64); ("grid3d", 8, 13); ("banded", 500, 1500); ("random", 400, 1100);
     ("powerlaw", 1000, 4000) |]

let orderings = Tt_workloads.Pipeline.[| Min_degree; Nested_dissection |]

(* One stratum per (kind, ordering, half): twenty per round. *)
let strata =
  Array.concat
    (Array.to_list
       (Array.map
          (fun (k, lo, hi) ->
            let mid = (lo + hi) / 2 in
            Array.concat
              (Array.to_list
                 (Array.map (fun o -> [| (k, lo, mid, o); (k, mid + 1, hi, o) |]) orderings)))
          kinds))

let round = Array.length strata
(* The op stream: a fresh seeded stream per phase, so the plain and
   traced phases of one run see the same sources. Every source draws its
   own size and generator seed, so no two ops share a source text. *)
let sources ~seed =
  let rng = Tt_util.Rng.create (7000 + seed) in
  let quantile = Array.map (fun _ -> Bu.even_quantiles rng) strata in
  let next = Bu.rounds rng round in
  fun () ->
    let k = next () in
    let kind, lo, hi, ordering = strata.(k) in
    {
      kind;
      size = Bu.log_quantile lo hi (quantile.(k) ());
      seed = Tt_util.Rng.int rng 1_000_000_000;
      ordering;
      amalgamation = Tt_util.Rng.pick rng [| 1; 2; 4; 8; 16 |];
    }

(* The same generators the manifest's [gen] sources use. *)
let gen_matrix s =
  let module S = Tt_sparse.Spgen in
  let rng = Tt_util.Rng.create s.seed in
  match s.kind with
  | "grid2d" -> S.grid2d s.size
  | "grid3d" -> S.grid3d s.size
  | "banded" -> S.banded ~rng ~n:s.size ~bandwidth:(max 2 (s.size / 50)) ~fill:0.4
  | "random" -> S.random_sym ~rng ~n:s.size ~nnz_per_row:3.0
  | "powerlaw" -> S.power_law ~rng ~n:s.size ~edges_per_node:2
  | k -> invalid_arg k

type pipeline = {
  round_pairs : (int, (string * Job.result) list) Hashtbl.t;  (** First round's results. *)
  fill : (int, int) Hashtbl.t;  (** Op index -> nnz(L), traced phase. *)
}

let pipeline_state () =
  { round_pairs = Hashtbl.create 32; fill = Hashtbl.create 256 }

let record st id jobs results =
  if id < round then Hashtbl.replace st.round_pairs id (pairs jobs results)

let pipeline_op st next id =
  let s = next () in
  let jobs =
    match Manifest.parse (entry s) with Ok jobs -> jobs | Error e -> failwith e
  in
  let results = run_batch jobs in
  fun () ->
    record st id jobs results;
    Check.results jobs results

(* The traced op runs the pipeline's stages one call at a time, and the
   executor's work as one [Job.id] and one [Job.compute] per job. For the
   first few ops the tree must be the one [Manifest.parse] builds from the
   same source. *)
let manifest_checked = 5

let pipeline_traced_op st next id =
  let s = next () in
  let m = Trace.span "sparse.gen" (fun () -> gen_matrix s) in
  let pattern = Trace.span "sparse.symmetrize" (fun () -> Tt_sparse.Csr.symmetrize_pattern m) in
  let perm =
    Trace.span "ordering.permute" (fun () -> Tt_workloads.Pipeline.permutation_of s.ordering pattern)
  in
  let tree, fill =
    Trace.span "etree.assembly" (fun () ->
        let b = Tt_ordering.Permute.apply pattern perm in
        let parent = Tt_etree.Elimination_tree.parents b in
        let col_counts = Tt_etree.Col_counts.counts b ~parent in
        let am = Tt_etree.Amalgamation.run ~parent ~col_counts ~limit:s.amalgamation in
        ((Tt_etree.Assembly.of_amalgamation am).tree, Array.fold_left ( + ) 0 col_counts))
  in
  let jobs = [ Job.make tree (Job.Min_memory Job.Postorder); Job.make tree (Job.Min_memory Job.Minmem) ] in
  let results = traced_compute jobs in
  fun () ->
    Hashtbl.replace st.fill id fill;
    let same_tree () =
      match Manifest.parse (entry s) with
      | Ok (j :: _) -> Job.tree_digest j.tree = Job.tree_digest tree
      | _ -> false
    in
    if id < manifest_checked && not (same_tree ()) then
      Error ("the traced stages built another tree than the manifest for " ^ entry s)
    else begin
      record st id jobs results;
      Check.results jobs results
    end

(* Digest of the first round's results, and the failed checks of the
   first-round ops the phases did not reach, which are run now, outside
   any timing. *)
let pipeline_digest st ~seed =
  let next = sources ~seed in
  let errors = ref [] in
  let all =
    List.init round (fun id ->
        let s = next () in
        match Hashtbl.find_opt st.round_pairs id with
        | Some p -> p
        | None -> (
            match Manifest.parse (entry s) with
            | Error e ->
                errors := e :: !errors;
                []
            | Ok jobs ->
                let results = run_batch jobs in
                Result.iter_error (fun e -> errors := e :: !errors) (Check.results jobs results);
                pairs jobs results))
  in
  (Job.value_digest_of_results (List.concat all), List.rev !errors)

(* ----------------------------------------------------------------- trees *)

(* Tiers pair tree size with a job list so that every op costs about the
   same: all four solvers on the smallest trees, one on the largest. *)
let approx = Job.Approx_memory { seg_cap = 8; tol = 0.01 }

let tiers =
  Job.
    [|
      (9_000, 14_000, [ Min_memory Postorder; Min_memory Liu; Min_memory Minmem; approx ]);
      (19_000, 29_000, [ Min_memory Postorder; approx ]);
      (34_000, 49_000, [ approx ]);
      (52_000, 75_000, [ Min_memory Postorder ]);
    |]

let shapes = [| "random"; "binary"; "caterpillar" |]
let trees_per_stratum = 3

(* Parent arrays: random-attach (shallow, wide), complete binary, and a
   caterpillar whose spine holds a third of the nodes (deep). *)
let make_tree rng shape p =
  let spine = p / 3 in
  let parent =
    Array.init p (fun i ->
        if i = 0 then -1
        else
          match shape with
          | "random" -> Tt_util.Rng.int rng i
          | "binary" -> (i - 1) / 2
          | _ -> if i < spine then i - 1 else (i - spine) mod spine)
  in
  let f = Array.init p (fun i -> if i = 0 then Tt_util.Rng.int rng 101 else 1 + Tt_util.Rng.int rng 100) in
  let n = Array.init p (fun _ -> Tt_util.Rng.int rng 51) in
  Tt_core.Tree.make ~parent ~f ~n

type trees = {
  set : (Tt_core.Tree.t * Job.spec list) array;
  seen : (int, Job.result list) Hashtbl.t;  (** Tree index -> results of its first op. *)
}

let trees_setup ~seed () =
  let rng = Tt_util.Rng.create (9000 + seed) in
  let set =
    Array.concat
      (List.concat_map
         (fun shape ->
           List.map
             (fun (lo, hi, specs) ->
               let quantile = Bu.even_quantiles rng in
               Array.init trees_per_stratum (fun _ ->
                   (make_tree rng shape (Bu.log_quantile lo hi (quantile ())), specs)))
             (Array.to_list tiers))
         (Array.to_list shapes))
  in
  { set; seen = Hashtbl.create 64 }

let tree_order t ~seed = Bu.rounds (Tt_util.Rng.create (9100 + seed)) (Array.length t.set)

(* A tree's first results get the full check; later ops on the same tree
   must reproduce them exactly. *)
let trees_check t k jobs results =
  match Hashtbl.find_opt t.seen k with
  | None ->
      Result.map (fun () -> Hashtbl.replace t.seen k results) (Check.results jobs results)
  | Some first when List.for_all2 Job.equal_result first results -> Ok ()
  | Some _ -> Error (Printf.sprintf "tree %d: results differ from its earlier op" k)

let jobs_of t k =
  let tree, specs = t.set.(k) in
  List.map (Job.make tree) specs

let trees_op t next ~traced _ =
  let k = next () in
  let jobs = jobs_of t k in
  let results = if traced then traced_compute jobs else run_batch jobs in
  fun () -> trees_check t k jobs results

(* Digest over every tree's results, in set order, and the failed checks
   of the trees the phases did not reach, which are solved now, outside
   any timing. *)
let trees_digest t =
  let errors = ref [] in
  let pairs_of k =
    let jobs = jobs_of t k in
    if not (Hashtbl.mem t.seen k) then
      Result.iter_error (fun e -> errors := e :: !errors) (trees_check t k jobs (run_batch jobs));
    match Hashtbl.find_opt t.seen k with Some r -> pairs jobs r | None -> []
  in
  (Job.value_digest_of_results (List.concat (List.init (Array.length t.set) pairs_of)), List.rev !errors)

(* Mean certified relative gap of minmem-approx over the trees seen. *)
let approx_gap t =
  let gaps =
    Hashtbl.fold
      (fun _ results acc ->
        List.fold_left
          (fun acc -> function
            | Ok (Job.Approx { lower; upper; _ }) ->
                (Float.of_int (upper - lower) /. Float.of_int (max 1 lower)) :: acc
            | _ -> acc)
          acc results)
      t.seen []
  in
  Bu.mean (Array.of_list gaps)
