module Json = Tt_engine.Telemetry.Json
module R = Registry

type ring = {
  mu : Mutex.t;
  samples : float array;  (* recent solve latencies, seconds *)
  mutable count : int;
  mutable sum : float;
  mutable max : float;
}

type t = {
  registry : R.t;
  connections_opened : R.family;
  connections_active : R.family;
  requests : R.family;
  responses_ok : R.family;
  responses_error : R.family;
  jobs : R.family;
  job_errors : R.family;
  job_cache_hits : R.family;
  job_wall : R.family;
  source_cache_hits : R.family;
  source_cache_misses : R.family;
  source_cache_evictions : R.family;
  worker_restarts : R.family;
  idle_evictions : R.family;
  replay_hits : R.family;
  write_overflows : R.family;
  sheds : R.family;
  deadline_exceeded : R.family;
  admission_queue_depth : R.family;
  admission_admitted : R.family;
  admission_limit : R.family;
  latency : ring;
}

let ops = [ "solve"; "stats"; "ping"; "shutdown"; "peek"; "health" ]

let create ?(latency_window = 4096) () =
  if latency_window < 1 then invalid_arg "Metrics.create: latency_window < 1";
  let r = R.create ~prefix:"tt_server_" in
  let counter = R.counter r and gauge = R.gauge r in
  (* Record fields are evaluated in unspecified order: bind each family
     first so the exposition follows this declaration order. *)
  let connections_opened = counter "connections_opened_total" in
  let connections_active = gauge "connections_active" in
  let requests =
    counter ~labels:[ "op" ]
      ~init:(List.map (fun op -> [ op ]) ops)
      "requests_total"
  in
  let responses_ok = counter "responses_ok_total" in
  let responses_error = counter ~labels:[ "code" ] "responses_error_total" in
  let jobs = counter "jobs_total" in
  let job_errors = counter "job_errors_total" in
  let job_cache_hits = counter "job_cache_hits_total" in
  let job_wall = counter "job_wall_seconds_total" in
  let source_cache_hits = counter "source_cache_hits_total" in
  let source_cache_misses = counter "source_cache_misses_total" in
  let source_cache_evictions = counter "source_cache_evictions_total" in
  let worker_restarts = counter "worker_restarts_total" in
  let idle_evictions = counter "idle_evictions_total" in
  let replay_hits = counter "replay_hits_total" in
  let write_overflows = counter "write_overflows_total" in
  let sheds = counter ~labels:[ "reason"; "priority" ] "sheds_total" in
  let deadline_exceeded = counter "deadline_exceeded_total" in
  let admission_queue_depth = gauge "admission_queue_depth" in
  let admission_admitted = gauge "admission_admitted" in
  let admission_limit = gauge "admission_limit" in
  { registry = r; connections_opened; connections_active; requests;
    responses_ok; responses_error; jobs; job_errors; job_cache_hits;
    job_wall; source_cache_hits; source_cache_misses;
    source_cache_evictions; worker_restarts; idle_evictions; replay_hits;
    write_overflows; sheds; deadline_exceeded; admission_queue_depth;
    admission_admitted; admission_limit;
    latency =
      { mu = Mutex.create ();
        samples = Array.make latency_window 0.;
        count = 0;
        sum = 0.;
        max = 0.
      }
  }

let observe_solve t ~latency_s =
  let l = t.latency in
  Mutex.protect l.mu (fun () ->
      l.samples.(l.count mod Array.length l.samples) <- latency_s;
      l.count <- l.count + 1;
      l.sum <- l.sum +. latency_s;
      if latency_s > l.max then l.max <- latency_s)

type latency_summary = {
  count : int;
  window : int;
  mean_s : float;
  p50_s : float;
  p90_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

let latency t =
  let l = t.latency in
  Mutex.protect l.mu (fun () ->
      let window = min l.count (Array.length l.samples) in
      let samples = Array.sub l.samples 0 window in
      let q p =
        if window = 0 then nan else Tt_util.Statistics.quantile samples p
      in
      { count = l.count;
        window;
        mean_s = (if l.count = 0 then nan else l.sum /. float_of_int l.count);
        p50_s = q 0.5;
        p90_s = q 0.9;
        p95_s = q 0.95;
        p99_s = q 0.99;
        max_s = l.max
      })

let to_json t =
  let int f = Json.Int (R.get f) in
  let by_label f =
    Json.Obj
      (List.map (fun (k, v) -> (String.concat "/" k, Json.Int v)) (R.series f))
  in
  let lat = latency t in
  Json.Obj
    [ ( "connections",
        Json.Obj
          [ ("opened", int t.connections_opened);
            ("active", int t.connections_active)
          ] );
      ( "requests",
        Json.Obj
          (List.map
             (fun op -> (op, Json.Int (R.get t.requests ~labels:[ op ])))
             ops) );
      ( "responses",
        Json.Obj
          [ ("ok", int t.responses_ok);
            ("errors", by_label t.responses_error)
          ] );
      ( "jobs",
        Json.Obj
          [ ("total", int t.jobs);
            ("errors", int t.job_errors);
            ("cache_hits", int t.job_cache_hits);
            ("wall_s", Json.Float (R.getf t.job_wall));
            ("source_cache_hits", int t.source_cache_hits);
            ("source_cache_misses", int t.source_cache_misses);
            ("source_cache_evictions", int t.source_cache_evictions)
          ] );
      ( "resilience",
        Json.Obj
          [ ("worker_restarts", int t.worker_restarts);
            ("idle_evictions", int t.idle_evictions);
            ("replay_hits", int t.replay_hits);
            ("write_overflows", int t.write_overflows)
          ] );
      ( "overload",
        Json.Obj
          [ ("sheds", by_label t.sheds);
            ("deadline_exceeded", int t.deadline_exceeded);
            ("queue_depth", int t.admission_queue_depth);
            ("admitted", int t.admission_admitted);
            ("limit", int t.admission_limit)
          ] );
      ( "latency",
        Json.Obj
          [ ("count", Json.Int lat.count);
            ("window", Json.Int lat.window);
            ("mean_s", Json.Float lat.mean_s);
            ("p50_s", Json.Float lat.p50_s);
            ("p90_s", Json.Float lat.p90_s);
            ("p95_s", Json.Float lat.p95_s);
            ("p99_s", Json.Float lat.p99_s);
            ("max_s", Json.Float lat.max_s)
          ] )
    ]

(* The latency summary is not a registry family: its quantiles come
   from the ring, rendered after the registry's families. *)
let to_prometheus t =
  let lat = latency t in
  let b = Buffer.create 2048 in
  Buffer.add_string b (R.to_prometheus t.registry);
  Buffer.add_string b "# TYPE tt_server_solve_latency_seconds summary\n";
  List.iter
    (fun (q, v) ->
      Printf.bprintf b
        "tt_server_solve_latency_seconds{quantile=\"%s\"} %s\n" q
        (R.float_to_string v))
    [ ("0.5", lat.p50_s);
      ("0.9", lat.p90_s);
      ("0.95", lat.p95_s);
      ("0.99", lat.p99_s)
    ];
  Printf.bprintf b "tt_server_solve_latency_seconds_sum %s\n"
    (R.float_to_string
       (if lat.count = 0 then 0. else lat.mean_s *. float_of_int lat.count));
  Printf.bprintf b "tt_server_solve_latency_seconds_count %d\n" lat.count;
  Buffer.contents b
