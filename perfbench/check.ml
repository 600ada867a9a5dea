(* Output checks, always run outside the timed region. They are
   independent of the solvers: orders and peaks are replayed through
   [Tt_core.Traversal], certified bounds must bracket the exact optimum
   when one was computed, and served replies must equal an in-process
   reference. *)

open Tt_engine

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let replay tree ~what ~peak order =
  if not (Tt_core.Traversal.is_valid_order tree order) then fail "%s: invalid order" what
  else
    let p = Tt_core.Traversal.peak tree order in
    if p <> peak then fail "%s: reported peak %d, replayed %d" what peak p else Ok ()

let outcome (job : Job.t) (o : Job.outcome) =
  let what = Job.spec_to_string job.spec in
  match o with
  | Job.Memory { peak; order } -> replay job.tree ~what ~peak order
  | Job.Approx { lower; upper; order; exact; _ } ->
      if lower > upper then fail "%s: lower %d > upper %d" what lower upper
      else if exact && lower <> upper then fail "%s: exact but %d <> %d" what lower upper
      else replay job.tree ~what ~peak:upper order
  | Job.Io _ | Job.Sched _ | Job.Par_sched _ | Job.Pareto _ -> Ok ()

(* Every result of one op: each replayed on its own, then compared with
   the others on the same tree (Liu and MinMem are both exact, a
   postorder can only be worse, certified bounds bracket the optimum). *)
let results (jobs : Job.t list) (rs : Job.result list) =
  let* pairs =
    if List.length jobs <> List.length rs then fail "%d jobs, %d results" (List.length jobs) (List.length rs)
    else Ok (List.combine jobs rs)
  in
  let* () =
    List.fold_left
      (fun acc (j, r) ->
        let* () = acc in
        match r with
        | Ok o -> outcome j o
        | Error e -> fail "%s: %s" (Job.spec_to_string j.Job.spec) (Job.result_to_string (Error e)))
      (Ok ()) pairs
  in
  let peak_of spec =
    List.find_map
      (fun ((j : Job.t), r) ->
        match (r : Job.result) with
        | Ok (Job.Memory { peak; _ }) when j.spec = spec -> Some peak
        | _ -> None)
      pairs
  in
  let opt =
    match peak_of (Job.Min_memory Job.Minmem) with
    | Some p -> Some p
    | None -> peak_of (Job.Min_memory Job.Liu)
  in
  match opt with
  | None -> Ok ()
  | Some opt ->
      List.fold_left
        (fun acc ((j : Job.t), r) ->
          let* () = acc in
          match (j.spec, (r : Job.result)) with
          | Job.Min_memory (Job.Minmem | Job.Liu), Ok (Job.Memory { peak; _ }) when peak <> opt ->
              fail "Liu and MinMem disagree (%d vs %d)" peak opt
          | Job.Min_memory Job.Postorder, Ok (Job.Memory { peak; _ }) when peak < opt ->
              fail "postorder peak %d below the optimum %d" peak opt
          | Job.Approx_memory _, Ok (Job.Approx { lower; upper; _ }) when lower > opt || upper < opt ->
              fail "bounds [%d, %d] miss the optimum %d" lower upper opt
          | _ -> Ok ())
        (Ok ()) pairs

(* A served reply against the in-process reference for the same entry. *)
let served ~(reference : (string * Job.result) list) (reports : Tt_server.Protocol.job_report list) =
  if List.length reports <> List.length reference then
    fail "%d job reports, expected %d" (List.length reports) (List.length reference)
  else
    List.fold_left2
      (fun acc (r : Tt_server.Protocol.job_report) (id, res) ->
        let* () = acc in
        if r.job_id <> id then fail "job id %s, expected %s" r.job_id id
        else if not (Job.equal_result r.result res) then
          fail "%s: served %s, reference %s" r.spec (Job.result_to_string r.result)
            (Job.result_to_string res)
        else Ok ())
      (Ok ()) reports reference
