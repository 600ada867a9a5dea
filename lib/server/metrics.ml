module Json = Tt_engine.Telemetry.Json

type t = {
  mu : Mutex.t;
  ring : float array;  (* recent solve latencies, seconds *)
  mutable conns_opened : int;
  mutable conns_closed : int;
  mutable req_solve : int;
  mutable req_stats : int;
  mutable req_ping : int;
  mutable req_shutdown : int;
  mutable req_peek : int;
  mutable req_health : int;
  mutable ok : int;
  errors : (string, int) Hashtbl.t;
  mutable jobs : int;
  mutable job_errors : int;
  mutable job_cache_hits : int;
  mutable job_wall_s : float;
  mutable lat_count : int;
  mutable lat_sum : float;
  mutable lat_max : float;
  mutable worker_restarts : int;
  mutable idle_evictions : int;
  mutable replay_hits : int;
  mutable write_overflows : int;
  sheds : (string * string, int) Hashtbl.t;  (* (reason, priority) *)
  mutable deadline_exceeded : int;
  mutable admission_queue_depth : int;
  mutable admission_admitted : int;
  mutable admission_limit : int;
  mutable source_cache_hits : int;
  mutable source_cache_misses : int;
  mutable source_cache_evictions : int;
}

let create ?(latency_window = 4096) () =
  if latency_window < 1 then invalid_arg "Metrics.create: latency_window < 1";
  { mu = Mutex.create ();
    ring = Array.make latency_window 0.;
    conns_opened = 0;
    conns_closed = 0;
    req_solve = 0;
    req_stats = 0;
    req_ping = 0;
    req_shutdown = 0;
    req_peek = 0;
    req_health = 0;
    ok = 0;
    errors = Hashtbl.create 8;
    jobs = 0;
    job_errors = 0;
    job_cache_hits = 0;
    job_wall_s = 0.;
    lat_count = 0;
    lat_sum = 0.;
    lat_max = 0.;
    worker_restarts = 0;
    idle_evictions = 0;
    replay_hits = 0;
    write_overflows = 0;
    sheds = Hashtbl.create 8;
    deadline_exceeded = 0;
    admission_queue_depth = 0;
    admission_admitted = 0;
    admission_limit = 0;
    source_cache_hits = 0;
    source_cache_misses = 0;
    source_cache_evictions = 0
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let connection_opened t = locked t (fun () -> t.conns_opened <- t.conns_opened + 1)
let connection_closed t = locked t (fun () -> t.conns_closed <- t.conns_closed + 1)

let request t op =
  locked t (fun () ->
      match op with
      | `Solve -> t.req_solve <- t.req_solve + 1
      | `Stats -> t.req_stats <- t.req_stats + 1
      | `Ping -> t.req_ping <- t.req_ping + 1
      | `Shutdown -> t.req_shutdown <- t.req_shutdown + 1
      | `Peek -> t.req_peek <- t.req_peek + 1
      | `Health -> t.req_health <- t.req_health + 1)

let response_ok t = locked t (fun () -> t.ok <- t.ok + 1)

let response_error t ~code =
  locked t (fun () ->
      Hashtbl.replace t.errors code
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors code)))

let observe_solve t ~latency_s =
  locked t (fun () ->
      t.ring.(t.lat_count mod Array.length t.ring) <- latency_s;
      t.lat_count <- t.lat_count + 1;
      t.lat_sum <- t.lat_sum +. latency_s;
      if latency_s > t.lat_max then t.lat_max <- latency_s)

let shed t ~reason ~priority =
  locked t (fun () ->
      let k = (reason, priority) in
      Hashtbl.replace t.sheds k
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.sheds k)))

let deadline_exceeded t =
  locked t (fun () -> t.deadline_exceeded <- t.deadline_exceeded + 1)

let set_admission t ~queue_depth ~admitted ~limit =
  locked t (fun () ->
      t.admission_queue_depth <- queue_depth;
      t.admission_admitted <- admitted;
      t.admission_limit <- limit)

let set_source_cache t ~hits ~misses ~evictions =
  locked t (fun () ->
      t.source_cache_hits <- hits;
      t.source_cache_misses <- misses;
      t.source_cache_evictions <- evictions)

let worker_restart t = locked t (fun () -> t.worker_restarts <- t.worker_restarts + 1)
let idle_eviction t = locked t (fun () -> t.idle_evictions <- t.idle_evictions + 1)
let replay_hit t = locked t (fun () -> t.replay_hits <- t.replay_hits + 1)
let write_overflow t = locked t (fun () -> t.write_overflows <- t.write_overflows + 1)

let job t ~cache_hit ~error ~wall_s =
  locked t (fun () ->
      t.jobs <- t.jobs + 1;
      if error then t.job_errors <- t.job_errors + 1;
      if cache_hit then t.job_cache_hits <- t.job_cache_hits + 1;
      t.job_wall_s <- t.job_wall_s +. wall_s)

(* ----------------------------------------------------------- snapshot *)

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

type snapshot = {
  connections_opened : int;
  connections_active : int;
  requests_solve : int;
  requests_stats : int;
  requests_ping : int;
  requests_shutdown : int;
  requests_peek : int;
  requests_health : int;
  responses_ok : int;
  errors : (string * int) list;
  jobs : int;
  job_errors : int;
  job_cache_hits : int;
  job_wall_s : float;
  worker_restarts : int;
  idle_evictions : int;
  replay_hits : int;
  write_overflows : int;
  sheds : ((string * string) * int) list;
  deadline_exceeded : int;
  admission_queue_depth : int;
  admission_admitted : int;
  admission_limit : int;
  source_cache_hits : int;
  source_cache_misses : int;
  source_cache_evictions : int;
  latency : latency_summary;
}

let snapshot t =
  locked t (fun () ->
      let window = min t.lat_count (Array.length t.ring) in
      let samples = Array.sub t.ring 0 window in
      let q p =
        if window = 0 then nan else Tt_util.Statistics.quantile samples p
      in
      { connections_opened = t.conns_opened;
        connections_active = t.conns_opened - t.conns_closed;
        requests_solve = t.req_solve;
        requests_stats = t.req_stats;
        requests_ping = t.req_ping;
        requests_shutdown = t.req_shutdown;
        requests_peek = t.req_peek;
        requests_health = t.req_health;
        responses_ok = t.ok;
        errors =
          List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.errors []);
        jobs = t.jobs;
        job_errors = t.job_errors;
        job_cache_hits = t.job_cache_hits;
        job_wall_s = t.job_wall_s;
        worker_restarts = t.worker_restarts;
        idle_evictions = t.idle_evictions;
        replay_hits = t.replay_hits;
        write_overflows = t.write_overflows;
        sheds =
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sheds []);
        deadline_exceeded = t.deadline_exceeded;
        admission_queue_depth = t.admission_queue_depth;
        admission_admitted = t.admission_admitted;
        admission_limit = t.admission_limit;
        source_cache_hits = t.source_cache_hits;
        source_cache_misses = t.source_cache_misses;
        source_cache_evictions = t.source_cache_evictions;
        latency =
          { count = t.lat_count;
            window;
            mean_s = (if t.lat_count = 0 then nan else t.lat_sum /. float_of_int t.lat_count);
            p50_s = q 0.5;
            p90_s = q 0.9;
            p95_s = q 0.95;
            p99_s = q 0.99;
            max_s = t.lat_max
          }
      })

let to_json s =
  Json.Obj
    [ ( "connections",
        Json.Obj
          [ ("opened", Json.Int s.connections_opened);
            ("active", Json.Int s.connections_active)
          ] );
      ( "requests",
        Json.Obj
          [ ("solve", Json.Int s.requests_solve);
            ("stats", Json.Int s.requests_stats);
            ("ping", Json.Int s.requests_ping);
            ("shutdown", Json.Int s.requests_shutdown);
            ("peek", Json.Int s.requests_peek);
            ("health", Json.Int s.requests_health)
          ] );
      ( "responses",
        Json.Obj
          [ ("ok", Json.Int s.responses_ok);
            ("errors", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.errors))
          ] );
      ( "jobs",
        Json.Obj
          [ ("total", Json.Int s.jobs);
            ("errors", Json.Int s.job_errors);
            ("cache_hits", Json.Int s.job_cache_hits);
            ("wall_s", Json.Float s.job_wall_s);
            ("source_cache_hits", Json.Int s.source_cache_hits);
            ("source_cache_misses", Json.Int s.source_cache_misses);
            ("source_cache_evictions", Json.Int s.source_cache_evictions)
          ] );
      ( "resilience",
        Json.Obj
          [ ("worker_restarts", Json.Int s.worker_restarts);
            ("idle_evictions", Json.Int s.idle_evictions);
            ("replay_hits", Json.Int s.replay_hits);
            ("write_overflows", Json.Int s.write_overflows)
          ] );
      ( "overload",
        Json.Obj
          [ ( "sheds",
              Json.Obj
                (List.map
                   (fun ((reason, priority), v) ->
                     (reason ^ "/" ^ priority, Json.Int v))
                   s.sheds) );
            ("deadline_exceeded", Json.Int s.deadline_exceeded);
            ("queue_depth", Json.Int s.admission_queue_depth);
            ("admitted", Json.Int s.admission_admitted);
            ("limit", Json.Int s.admission_limit)
          ] );
      ( "latency",
        Json.Obj
          [ ("count", Json.Int s.latency.count);
            ("window", Json.Int s.latency.window);
            ("mean_s", Json.Float s.latency.mean_s);
            ("p50_s", Json.Float s.latency.p50_s);
            ("p90_s", Json.Float s.latency.p90_s);
            ("p95_s", Json.Float s.latency.p95_s);
            ("p99_s", Json.Float s.latency.p99_s);
            ("max_s", Json.Float s.latency.max_s)
          ] )
    ]

let to_prometheus s =
  let b = Buffer.create 1024 in
  let counter name ?(labels = "") v =
    Buffer.add_string b (Printf.sprintf "tt_server_%s%s %d\n" name labels v)  in
  let gauge name ?(labels = "") v =
    Buffer.add_string b
      (Printf.sprintf "tt_server_%s%s %s\n" name labels
         (if Float.is_finite v then Printf.sprintf "%.9g" v else "NaN"))
  in
  let typ name kind =
    Buffer.add_string b (Printf.sprintf "# TYPE tt_server_%s %s\n" name kind)
  in
  typ "connections_opened_total" "counter";
  counter "connections_opened_total" s.connections_opened;
  typ "connections_active" "gauge";
  counter "connections_active" s.connections_active;
  typ "requests_total" "counter";
  counter "requests_total" ~labels:{|{op="solve"}|} s.requests_solve;
  counter "requests_total" ~labels:{|{op="stats"}|} s.requests_stats;
  counter "requests_total" ~labels:{|{op="ping"}|} s.requests_ping;
  counter "requests_total" ~labels:{|{op="shutdown"}|} s.requests_shutdown;
  counter "requests_total" ~labels:{|{op="peek"}|} s.requests_peek;
  counter "requests_total" ~labels:{|{op="health"}|} s.requests_health;
  typ "responses_ok_total" "counter";
  counter "responses_ok_total" s.responses_ok;
  typ "responses_error_total" "counter";
  List.iter
    (fun (code, v) ->
      counter "responses_error_total"
        ~labels:(Printf.sprintf {|{code=%S}|} code)
        v)
    s.errors;
  typ "jobs_total" "counter";
  counter "jobs_total" s.jobs;
  typ "job_errors_total" "counter";
  counter "job_errors_total" s.job_errors;
  typ "job_cache_hits_total" "counter";
  counter "job_cache_hits_total" s.job_cache_hits;
  typ "job_wall_seconds_total" "counter";
  gauge "job_wall_seconds_total" s.job_wall_s;
  typ "source_cache_hits_total" "counter";
  counter "source_cache_hits_total" s.source_cache_hits;
  typ "source_cache_misses_total" "counter";
  counter "source_cache_misses_total" s.source_cache_misses;
  typ "source_cache_evictions_total" "counter";
  counter "source_cache_evictions_total" s.source_cache_evictions;
  typ "worker_restarts_total" "counter";
  counter "worker_restarts_total" s.worker_restarts;
  typ "idle_evictions_total" "counter";
  counter "idle_evictions_total" s.idle_evictions;
  typ "replay_hits_total" "counter";
  counter "replay_hits_total" s.replay_hits;
  typ "write_overflows_total" "counter";
  counter "write_overflows_total" s.write_overflows;
  typ "sheds_total" "counter";
  List.iter
    (fun ((reason, priority), v) ->
      counter "sheds_total"
        ~labels:(Printf.sprintf {|{reason=%S,priority=%S}|} reason priority)
        v)
    s.sheds;
  typ "deadline_exceeded_total" "counter";
  counter "deadline_exceeded_total" s.deadline_exceeded;
  typ "admission_queue_depth" "gauge";
  counter "admission_queue_depth" s.admission_queue_depth;
  typ "admission_admitted" "gauge";
  counter "admission_admitted" s.admission_admitted;
  typ "admission_limit" "gauge";
  counter "admission_limit" s.admission_limit;
  typ "solve_latency_seconds" "summary";
  List.iter
    (fun (q, v) ->
      gauge "solve_latency_seconds" ~labels:(Printf.sprintf {|{quantile="%s"}|} q) v)
    [ ("0.5", s.latency.p50_s);
      ("0.9", s.latency.p90_s);
      ("0.95", s.latency.p95_s);
      ("0.99", s.latency.p99_s)
    ];
  gauge "solve_latency_seconds_sum"
    (if s.latency.count = 0 then 0. else s.latency.mean_s *. float_of_int s.latency.count);
  counter "solve_latency_seconds_count" s.latency.count;
  Buffer.contents b
