(** Per-shard circuit breakers: the router's memory of which backends
    are dead, so failover consults a hash lookup instead of eating a
    connect timeout per request per dead shard.

    State machine (classic three-state breaker):

    - {e closed} — healthy. Every request may try the shard. After
      [threshold] {e consecutive} transport failures the breaker
      opens.
    - {e open} — dead until a deadline. {!allow} answers [false]
      without touching the network. Open durations follow the
      [retry] policy's capped exponential backoff ({!
      Tt_engine.Retry.delays} keyed by the shard name — seeded,
      deterministic per shard); when the schedule runs dry the
      breaker keeps re-opening at the last (capped) delay.
    - {e half-open} — the deadline passed; exactly {e one} caller is
      granted a trial ({!allow} CASes the trial flag), everyone else
      keeps skipping. The trial's {!success} closes the breaker and
      resets the backoff schedule; its {!failure} re-opens with the
      next, longer delay.

    Shared by every {!Forward} pool of a router (thread-safe, one
    mutex): one connection discovering a dead shard spares all the
    others the timeout. Successes and failures are reported by the
    failover sweep itself on real traffic, plus by the router's
    background prober so an {e idle} cluster still detects death and
    recovery. Each transition updates the [metrics] it was created
    with: [tt_shard_breaker_opens_total], [tt_shard_breaker_closes_total]
    and the [tt_shard_breaker_state{shard}] gauge. *)

type state = Breaker_closed | Breaker_open | Breaker_half_open
(** Values 0 / 1 / 2 of the [tt_shard_breaker_state] gauge and of
    {!to_json}'s ["state"]. *)

type t

val default_threshold : int
(** 3 consecutive transport failures. *)

val default_retry : Tt_engine.Retry.policy
(** Open durations: 100 ms doubling to a 2 s cap, jitter 0.25,
    8 scheduled delays (then pinned at the cap). *)

val create :
  ?threshold:int ->
  ?retry:Tt_engine.Retry.policy ->
  ?now:(unit -> float) ->
  metrics:Metrics.t ->
  unit ->
  t
(** [now] (default [Unix.gettimeofday]) is injectable so tests drive
    the clock deterministically.
    @raise Invalid_argument when [threshold < 1]. *)

val allow : t -> string -> bool
(** May a request attempt this shard right now? [true] when closed,
    when open-past-deadline (transitions to half-open and grants this
    caller the single trial), or when half-open with the trial free.
    Never blocks, never touches the network. *)

val success : t -> string -> unit
(** The shard answered (including answering with a refusal — it is
    alive). Resets the failure count; closes an open/half-open
    breaker and clears its backoff schedule. *)

val failure : t -> string -> unit
(** A transport-level failure (connect refused/timeout, read timeout,
    reset, EOF). Counts toward [threshold] when closed; re-opens a
    half-open breaker with the next backoff delay; no-op while
    open. *)

val state : t -> string -> state

val forget : t -> string -> unit
(** Drop all breaker state for a shard that left the ring, its
    [tt_shard_breaker_state] series included. *)

type view = {
  shard : string;
  view_state : state;
  failures : int;  (** Current consecutive transport failures. *)
  opens : int;  (** Lifetime closed→open transitions. *)
  closes : int;  (** Lifetime reopen→closed recoveries. *)
}

val views : t -> view list
(** All known breakers, sorted by shard name. *)

val to_json : t -> Tt_engine.Telemetry.Json.t
(** Per-shard object for the router's [health] reply:
    [{"shard0":{"state":0,"failures":0,"opens":1,"closes":1},…}]. *)
