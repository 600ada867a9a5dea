(* The repository benchmark. One process runs one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   It prints every metric by name with its unit, raw value and sample
   count, then as its last line one JSON object with the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1). It exits 1
   when an output check fails. See README.md. *)

let workloads = [ "serve-warm"; "cluster-warm"; "pipeline-cold"; "trees-large" ]
let default_seed = 1

(* Value digests of the default seed. *)
let golden =
  [
    ("serve-warm", "000e4f622e188bc657b9d9ed7ae2794a");
    ("cluster-warm", "000e4f622e188bc657b9d9ed7ae2794a");
    ("pipeline-cold", "449cfe1c324663032b15dffdfe81a2a7");
    ("trees-large", "90bc9b76ca737a987131e4d8ee491c8f");
  ]

(* Per-layer metrics and their units, in output order. Every workload
   prints all of them; a layer the workload never calls reads 0. *)
let per_layer =
  [
    ("protocol.codec_us", "us");
    ("engine.manifest_parse_ms", "ms");
    ("engine.job_id_ms", "ms");
    ("engine.cache_hit_ratio", "ratio");
    ("server.unattributed_ms", "ms");
    ("server.refused", "count");
    ("shard.forward_overhead_ms", "ms");
    ("shard.hedge_ratio", "ratio");
    ("sparse.gen_ms", "ms");
    ("sparse.symmetrize_ms", "ms");
    ("etree.assembly_ms", "ms");
    ("ordering.permute_ms", "ms");
    ("ordering.share", "ratio");
    ("ordering.fill_nnz", "count");
    ("core.postorder_ms", "ms");
    ("core.liu_ms", "ms");
    ("core.minmem_ms", "ms");
    ("core.minmem_approx_ms", "ms");
    ("core.approx_gap", "ratio");
    ("gc.minor_mwords_per_op", "Mwords");
    ("gc.major_mwords_per_op", "Mwords");
    ("calib.ms", "ms");
    ("trace.overhead_frac", "ratio");
  ]

(* ------------------------------------------------------------- arguments *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let args () =
  let wl = ref "" and seed = ref default_seed and seconds = ref 20. and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        wl := v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !wl workloads) then usage ();
  (!wl, !seed, !seconds, !trace)

(* --------------------------------------------------------------- running *)

type run = {
  timed : Phase.t;  (** Untraced phase: the end-to-end metrics. *)
  traced : Phase.t option;
  peak_mem_mb : float;  (** VmHWM after the phases, before the extra set-ups. *)
  setup_raw : float array;
  setup_calib : float array;
  digest : string;
  late_failures : string list;  (** Failed checks of ops run after the phases. *)
  layers : (string * float) list;  (** Workload-specific per-layer values, raw. *)
  round : int;  (** Ops in one round of the op stream. *)
}

(* Untraced runs time the plain ops for the whole run. Traced runs split
   the run between the traced op with recording off and the same op with
   recording on, so the two halves differ only by the tracing itself. *)
let phases ~seconds ~trace ~untraced ~traced =
  if trace then
    let s = seconds /. 2. in
    let plain = Phase.run ~seconds:s ~traced:false (traced ()) in
    (plain, Some (Phase.run ~seconds:s ~traced:true (traced ())))
  else (Phase.run ~seconds ~traced:false untraced, None)

let run ~reps setup teardown body =
  let (timed, traced, (digest, late_failures), layers, round, peak_mem_mb), setup_raw, setup_calib =
    Phase.with_setups ~reps setup teardown (fun x ->
        let timed, traced, digest, layers, round = body x in
        (timed, traced, digest, layers, round, Bu.peak_mem_mb ()))
  in
  { timed; traced; peak_mem_mb; setup_raw; setup_calib; digest; late_failures; layers; round }

let run_net ~cluster ~seed ~seconds ~trace =
  run ~reps:5 (Net.setup ~cluster ~seed) Net.teardown (fun i ->
      let before = ref (0, 0, 0) and hedges_before = ref (0., 0.) in
      let timed, traced =
        phases ~seconds ~trace
          ~untraced:(Net.op i (Net.next_entry i ~seed))
          ~traced:(fun () ->
            before := Net.server_counters i;
            hedges_before := Net.cluster_hedges i;
            Net.traced_op i (Net.next_entry i ~seed))
      in
      let layers =
        match traced with
        | None -> []
        | Some p ->
            Net.layers i ~ops:(Phase.attempted p) ~before:!before ~after:(Net.server_counters i)
              ~hedges_before:!hedges_before
      in
      (timed, traced, (i.digest, []), layers, Array.length i.entries))

(* Set-up of pipeline-cold: nothing is shared between ops, so set-up is
   the warm-up pass — one small source per kind and ordering. *)
let pipeline_warmup () =
  Array.iter
    (fun (kind, lo, _) ->
      Array.iter
        (fun ordering ->
          let s = { Batch.kind; size = lo; seed = 1; ordering; amalgamation = 4 } in
          match Tt_engine.Manifest.parse (Batch.entry s) with
          | Ok jobs -> (
              match Check.results jobs (Batch.run_batch jobs) with
              | Ok () -> ()
              | Error e -> failwith ("warm-up: " ^ e))
          | Error e -> failwith e)
        Batch.orderings)
    Batch.kinds

let run_pipeline ~seed ~seconds ~trace =
  run ~reps:5 pipeline_warmup ignore (fun () ->
      let st = Batch.pipeline_state () in
      let timed, traced =
        phases ~seconds ~trace
          ~untraced:(Batch.pipeline_op st (Batch.sources ~seed))
          ~traced:(fun () -> Batch.pipeline_traced_op st (Batch.sources ~seed))
      in
      let layers =
        match traced with
        | None -> []
        | Some p ->
            let perm = fst (Trace.total "ordering.permute") and ops = fst (Trace.total "op") in
            let fill = ref 0 in
            for id = 0 to min Batch.round (Phase.attempted p) - 1 do
              fill := !fill + Option.value ~default:0 (Hashtbl.find_opt st.fill id)
            done;
            [ ("ordering.share", perm /. ops); ("ordering.fill_nnz", Float.of_int !fill) ]
      in
      (timed, traced, Batch.pipeline_digest st ~seed, layers, Batch.round))

let run_trees ~seed ~seconds ~trace =
  run ~reps:5 (Batch.trees_setup ~seed) ignore (fun t ->
      let timed, traced =
        phases ~seconds ~trace
          ~untraced:(Batch.trees_op t (Batch.tree_order t ~seed) ~traced:false)
          ~traced:(fun () -> Batch.trees_op t (Batch.tree_order t ~seed) ~traced:true)
      in
      let digest = Batch.trees_digest t in
      (timed, traced, digest, [ ("core.approx_gap", Batch.approx_gap t) ], Array.length t.set))

(* ------------------------------------------------------------- reporting *)

let json_num v =
  if not (Float.is_finite v) then failwith "non-finite metric";
  Printf.sprintf "%.17g" v

let line name value unit extra = Printf.printf "  %-28s %14.6g %-7s %s\n" name value unit extra

(* Per-layer metrics of a traced run, the self-time table, and the span
   dump. [p50] is the untraced half's median op latency. *)
let layer_report ~wl ~seed r (t : Phase.t) ~p50 ~calib_ms =
  let tn = Phase.attempted t in
  let span_ms name =
    let tot, k = Trace.total name in
    if k = 0 then 0. else 1e3 *. tot /. Float.of_int k
  in
  let first_round a =
    let k = min r.round (Array.length a) in
    Bu.mean (Array.sub a 0 k) /. 1e6
  in
  let raw =
    [
      ("protocol.codec_us", 1e3 *. span_ms "protocol.codec" /. 2.);
      ("engine.manifest_parse_ms", span_ms "engine.manifest_parse");
      ("engine.job_id_ms", span_ms "engine.job_id");
      ("sparse.gen_ms", span_ms "sparse.gen");
      ("sparse.symmetrize_ms", span_ms "sparse.symmetrize");
      ("etree.assembly_ms", span_ms "etree.assembly");
      ("ordering.permute_ms", span_ms "ordering.permute");
      ("core.postorder_ms", span_ms "core.postorder");
      ("core.liu_ms", span_ms "core.liu");
      ("core.minmem_ms", span_ms "core.minmem");
      ("core.minmem_approx_ms", span_ms "core.minmem_approx");
      ("gc.minor_mwords_per_op", first_round t.minor_words);
      ("gc.major_mwords_per_op", first_round t.major_words);
      ("trace.overhead_frac", (Bu.median t.lat /. p50) -. 1.);
    ]
    @ r.layers
  in
  let factor = Bu.calib_ref_ms /. (1e3 *. Bu.median (Array.append r.timed.calib t.calib)) in
  Printf.printf "per-layer (traced phase, n=%d ops; times calibrated, raw in brackets):\n" tn;
  let out =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name raw) in
        let timed = (unit = "ms" || unit = "us") && name <> "calib.ms" in
        let v' = if name = "calib.ms" then calib_ms else if timed then v *. factor else v in
        line name v' unit (if timed then Printf.sprintf "[%.6g]" v else "");
        (name, v', unit))
      per_layer
  in
  let sp, self = Trace.self_times () in
  let op_total = fst (Trace.total "op") in
  let per_op x = 1e3 *. x /. Float.of_int tn in
  Printf.printf "self time per layer, ms per op (share of op time) | replayed after the op:\n";
  List.iter
    (fun (layer, (inside, replay)) ->
      Printf.printf "  %-12s %10.4f ms (%5.1f %%) | %10.4f ms\n" layer (per_op inside)
        (100. *. inside /. op_total) (per_op replay))
    (Trace.self_by_layer ());
  let unlayered = ref 0. in
  Array.iteri (fun k (s : Trace.span) -> if s.name = "op" then unlayered := !unlayered +. self.(k)) sp;
  Printf.printf "layer spans cover %.1f %% of traced op time\n" (100. *. (1. -. (!unlayered /. op_total)));
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "perfbench/out/trace-%s-seed%d.jsonl" wl seed in
  (try
     Trace.write path;
     Printf.printf "spans written to %s\n" path
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  out

let () =
  let wl, seed, seconds, trace = args () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" wl seed seconds (Bool.to_int trace);
  let r =
    try
      match wl with
      | "serve-warm" -> run_net ~cluster:false ~seed ~seconds ~trace
      | "cluster-warm" -> run_net ~cluster:true ~seed ~seconds ~trace
      | "pipeline-cold" -> run_pipeline ~seed ~seconds ~trace
      | _ -> run_trees ~seed ~seconds ~trace
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" wl (Printexc.to_string e);
      exit 1
  in
  let p = r.timed in
  let n = Phase.attempted p in
  let calib_ms = 1e3 *. Bu.median p.calib in
  let factor = Bu.calib_ref_ms /. calib_ms in
  let setup_factor = Bu.calib_ref_ms /. (1e3 *. Bu.median r.setup_calib) in
  let net = wl = "serve-warm" || wl = "cluster-warm" in
  let tail_q, tail_label = if net then (0.99, "latency_p99_ms") else (0.90, "latency_p90_ms") in
  (* The serving workloads' p99 is set by thread wake-ups on the shared
     CPU, not by its speed: over twenty runs it stayed within 13-15 ms
     (serve-warm) while the calibration op ranged over 20-31 ms, so it is
     reported raw. The batch workloads' p90 ops are compute, calibrated. *)
  let tail_factor = if net then 1. else factor in
  let ms x = 1e3 *. x in
  let p50 = Bu.median p.lat in
  let tail = Bu.percentile p.lat tail_q in
  let tail_need = int_of_float (Float.ceil (10. /. (1. -. tail_q))) in
  if tail = None && not trace then begin
    Printf.eprintf "perfbench: %d ops are too few for %s (need %d)\n%!" n tail_label tail_need;
    exit 1
  end;
  let ops_per_s = Float.of_int n /. p.op_wall in
  let setup_s = Bu.median r.setup_raw in
  let failed = p.failed + match r.traced with Some t -> t.failed | None -> 0 in
  let failures =
    p.failures @ (match r.traced with Some t -> t.failures | None -> []) @ r.late_failures
  in
  let attempted = n + match r.traced with Some t -> Phase.attempted t | None -> 0 in
  let ok_frac = Float.of_int (n - p.failed) /. Float.of_int n in
  let golden_ok =
    seed <> default_seed || List.assoc wl golden = r.digest
  in
  Printf.printf "calibration: median %.3f ms over n=%d ops (reference %.3f ms), factor %.4f\n" calib_ms
    (Array.length p.calib) Bu.calib_ref_ms factor;
  Printf.printf "end-to-end (calibrated; raw in brackets):\n";
  let nstr = Printf.sprintf "n=%d" n in
  line "ops_per_s" (ops_per_s /. factor) "1/s" (Printf.sprintf "[%.6g] %s" ops_per_s nstr);
  line "latency_p50_ms" (ms p50 *. factor) "ms" (Printf.sprintf "[%.6g] %s" (ms p50) nstr);
  (match tail with
  | Some tail ->
      line tail_label (ms tail *. tail_factor) "ms"
        (Printf.sprintf "[%.6g] %s%s" (ms tail) nstr (if net then " (reported raw)" else ""))
  | None -> Printf.printf "  %-28s refused: %s < %d\n" tail_label nstr tail_need);
  line "ok_frac" ok_frac "ratio" nstr;
  line "peak_mem_mb" r.peak_mem_mb "MiB" "";
  line "setup_s" (setup_s *. setup_factor) "s"
    (Printf.sprintf "[%.6g] n=%d" setup_s (Array.length r.setup_raw));
  Printf.printf "checks: %d of %d timed ops failed, %d later checks failed; value digest %s (%s)\n"
    failed attempted (List.length r.late_failures) r.digest
    (if seed <> default_seed then "no golden value for this seed"
     else if golden_ok then "matches golden"
     else "MISMATCH with golden " ^ List.assoc wl golden);
  List.iter (fun e -> Printf.printf "  failure: %s\n" e) failures;
  let metrics =
    match r.traced with
    | None ->
        [
          ("ops_per_s", ops_per_s /. factor, "1/s");
          ("latency_p50_ms", ms p50 *. factor, "ms");
          ("latency_tail_ms", ms (Option.get tail) *. tail_factor, "ms");
          ("ok_frac", ok_frac, "ratio");
          ("peak_mem_mb", r.peak_mem_mb, "MiB");
          ("setup_s", setup_s *. setup_factor, "s");
        ]
    | Some t -> layer_report ~wl ~seed r t ~p50 ~calib_ms
  in
  let correct = failed = 0 && r.late_failures = [] && golden_ok in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body;
  exit (if correct then 0 else 1)
