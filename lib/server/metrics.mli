(** Server-side counters and latency percentiles.

    The counters and gauges are the families of one {!Registry}; call
    sites update the handles below directly. Latencies land in a fixed
    ring holding the most recent [latency_window] solve latencies — a
    long-lived server keeps constant memory, and the percentiles
    describe {e recent} behaviour, which is what an operator watches.
    Percentiles come from {!Tt_util.Statistics.quantile} over a copy of
    the ring; counts and sums cover the whole lifetime.

    Two dump formats: {!to_prometheus} (text exposition, one
    [tt_server_*] family per handle) and {!to_json} (the [stats.
    metrics] object of a [STATS] reply — see DESIGN.md for the
    schema). *)

type ring
(** The latency ring, fed by {!observe_solve}. *)

type t = {
  registry : Registry.t;
  connections_opened : Registry.family;  (** [connections_opened_total] *)
  connections_active : Registry.family;
      (** [connections_active]: +1 on open, -1 on close. *)
  requests : Registry.family;
      (** [requests_total{op}]: one received, well-formed request frame;
          [op] is solve, stats, ping, shutdown, peek or health. *)
  responses_ok : Registry.family;  (** [responses_ok_total] *)
  responses_error : Registry.family;
      (** [responses_error_total{code}]: one error reply, keyed by its
          protocol error code. *)
  jobs : Registry.family;
      (** [jobs_total]: one engine job finished on behalf of a request
          (the {!Tt_engine.Executor} [on_job] hook). *)
  job_errors : Registry.family;  (** [job_errors_total] *)
  job_cache_hits : Registry.family;  (** [job_cache_hits_total] *)
  job_wall : Registry.family;  (** [job_wall_seconds_total] (float) *)
  source_cache_hits : Registry.family;
      (** [source_cache_hits_total]: mirrors the server's
          {!Tt_engine.Source_cache} counter, set after every
          materialization and before every [stats] reply. *)
  source_cache_misses : Registry.family;  (** [source_cache_misses_total] *)
  source_cache_evictions : Registry.family;
      (** [source_cache_evictions_total] *)
  worker_restarts : Registry.family;
      (** [worker_restarts_total]: one crashed or wedged worker domain
          detected and replaced. *)
  idle_evictions : Registry.family;
      (** [idle_evictions_total]: one connection evicted for exceeding
          the idle timeout. *)
  replay_hits : Registry.family;
      (** [replay_hits_total]: one solve answered from the idempotency
          replay cache without re-execution. *)
  write_overflows : Registry.family;
      (** [write_overflows_total]: one connection dropped because its
          reply backlog exceeded the write-buffer cap. *)
  sheds : Registry.family;
      (** [sheds_total{reason,priority}]: one request shed at admission,
          keyed by ({!Overload.shed_reason_to_string},
          {!Protocol.priority_to_string}). *)
  deadline_exceeded : Registry.family;
      (** [deadline_exceeded_total]: one request refused with
          [deadline_exceeded] (at admission, at dequeue, or after
          execution outran the budget). *)
  admission_queue_depth : Registry.family;
      (** [admission_queue_depth] gauge: current queue depth. *)
  admission_admitted : Registry.family;
      (** [admission_admitted] gauge: requests admitted but not yet
          replied (queued + executing). *)
  admission_limit : Registry.family;
      (** [admission_limit] gauge: the current AIMD concurrency limit. *)
  latency : ring;
}

val create : ?latency_window:int -> unit -> t
(** [latency_window] defaults to 4096 samples.
    @raise Invalid_argument when [latency_window < 1]. *)

val observe_solve : t -> latency_s:float -> unit
(** Completion of one [solve] request (ok or not): latency from frame
    receipt to reply written. *)

type latency_summary = {
  count : int;  (** Lifetime solve completions. *)
  window : int;  (** Samples the percentiles are computed over. *)
  mean_s : float;  (** Lifetime mean; [nan] when count = 0. *)
  p50_s : float;
  p90_s : float;
  p95_s : float;
  p99_s : float;  (** Window percentiles; [nan] when empty. *)
  max_s : float;  (** Lifetime maximum; 0 when count = 0. *)
}

val latency : t -> latency_summary

val to_json : t -> Tt_engine.Telemetry.Json.t

val to_prometheus : t -> string
(** Prometheus text exposition: the registry's families, then the
    [solve_latency_seconds] summary, its quantiles labelled
    [{quantile="0.5"}] etc. *)
