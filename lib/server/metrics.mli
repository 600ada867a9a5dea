(** Server-side counters and latency percentiles.

    All mutators are domain-safe (one mutex) and cheap enough for the
    per-request hot path. Latencies land in a fixed ring holding the
    most recent [latency_window] solve latencies — a long-lived server
    keeps constant memory, and the percentiles describe {e recent}
    behaviour, which is what an operator watches. Percentiles come from
    {!Tt_util.Statistics.quantile} over a snapshot of the ring; counts
    and sums cover the whole lifetime.

    Two dump formats: {!to_prometheus} (text exposition, one
    [tt_server_*] family per counter) and {!to_json} (the [stats.
    metrics] object of a [STATS] reply — see DESIGN.md for the
    schema). *)

type t

val create : ?latency_window:int -> unit -> t
(** [latency_window] defaults to 4096 samples.
    @raise Invalid_argument when [latency_window < 1]. *)

(* ----------------------------------------------------------- mutators *)

val connection_opened : t -> unit
val connection_closed : t -> unit

val request : t -> [ `Solve | `Stats | `Ping | `Shutdown | `Peek | `Health ] -> unit
(** One received, well-formed request frame. *)

val response_ok : t -> unit

val response_error : t -> code:string -> unit
(** One error reply, keyed by its protocol error code. *)

val observe_solve : t -> latency_s:float -> unit
(** Completion of one [solve] request (ok or not): latency from frame
    receipt to reply written. *)

val job : t -> cache_hit:bool -> error:bool -> wall_s:float -> unit
(** One engine job finished on behalf of a request (the
    {!Tt_engine.Executor} [on_job] hook). *)

val worker_restart : t -> unit
(** One crashed or wedged worker domain detected and replaced. *)

val idle_eviction : t -> unit
(** One connection evicted for exceeding the idle timeout. *)

val replay_hit : t -> unit
(** One solve answered from the idempotency replay cache without
    re-execution. *)

val write_overflow : t -> unit
(** One connection dropped because its reply backlog exceeded the
    write-buffer cap (a reader too slow to keep up). *)

val shed : t -> reason:string -> priority:string -> unit
(** One request shed at admission time, keyed by
    ({!Overload.shed_reason_to_string}, {!Protocol.priority_to_string})
    — the [tt_server_sheds_total{reason,priority}] series. *)

val deadline_exceeded : t -> unit
(** One request refused with [deadline_exceeded] (at admission, at
    dequeue, or after execution outran the budget). *)

val set_admission : t -> queue_depth:int -> admitted:int -> limit:int -> unit
(** Update the admission gauges: current queue depth, the number of
    requests admitted but not yet replied (queued + executing), and the
    current AIMD concurrency limit. *)

val set_source_cache : t -> hits:int -> misses:int -> evictions:int -> unit
(** Update the mirror of the server's {!Tt_engine.Source_cache}
    counters (the cache keeps its own; the server copies them here
    after every materialization and before every [stats] reply). *)

(* ----------------------------------------------------------- snapshot *)

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
  errors : (string * int) list;  (** By code, sorted by code. *)
  jobs : int;
  job_errors : int;
  job_cache_hits : int;
  job_wall_s : float;
  worker_restarts : int;
  idle_evictions : int;
  replay_hits : int;
  write_overflows : int;
  sheds : ((string * string) * int) list;
      (** By (reason, priority), sorted. *)
  deadline_exceeded : int;
  admission_queue_depth : int;  (** Gauge: last reported depth. *)
  admission_admitted : int;  (** Gauge: admitted but not yet replied. *)
  admission_limit : int;  (** Gauge: current AIMD limit. *)
  source_cache_hits : int;
  source_cache_misses : int;
  source_cache_evictions : int;
  latency : latency_summary;
}

val snapshot : t -> snapshot

val to_json : snapshot -> Tt_engine.Telemetry.Json.t

val to_prometheus : snapshot -> string
(** Prometheus text exposition ([# TYPE] comments included); quantile
    gauges are labelled [{quantile="0.5"}] etc. *)
