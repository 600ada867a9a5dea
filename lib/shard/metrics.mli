(** Shard-tier counters — one instance per router (forward/failover
    side) or per shard (peer side); a {!Cluster} holds both kinds.

    The families of one {!Tt_server.Registry}, prefixed [tt_shard_];
    call sites update the handles below directly. Breaker families are
    updated by {!Health} at its state transitions. *)

module Registry = Tt_server.Registry

type t = {
  registry : Registry.t;
  forwards : Registry.family;
      (** [forwards_total{shard}]: an op handed to a shard, counted per
          attempt (a solve that fails over counts once per shard
          tried). Bump it through {!forward}. *)
  failovers : Registry.family;
      (** [failovers_total]: the preferred shard failed and the sweep
          moved to a successor. *)
  rejects : Registry.family;
      (** [rejects_total]: the router refused a request itself (bad
          frame, unparseable entry) without contacting any shard. *)
  unrouted : Registry.family;
      (** [unrouted_total]: a full failover sweep (all shards, all
          backoff rounds) failed; the client got a retryable
          [internal] refusal. *)
  peer_hits : Registry.family;  (** [peer_hits_total] *)
  peer_misses : Registry.family;
      (** [peer_misses_total]: outcome of one cross-shard cache peek
          made by this shard's {!Peer} fetch hook ({e outgoing} peeks;
          the receiving side counts the same event under its server
          metrics' [op="peek"]). *)
  breaker_opens : Registry.family;  (** [breaker_opens_total] *)
  breaker_closes : Registry.family;  (** [breaker_closes_total] *)
  breaker_state : Registry.family;
      (** [breaker_state{shard}] gauge: 0 closed, 1 open, 2 half-open. *)
  restarts : Registry.family;
      (** [restarts_total{shard}]: one supervised restart. *)
  hedges : Registry.family;
      (** [hedges_total{outcome}]: one hedged attempt resolved — ["won"]
          (the hedge's reply was used), ["lost"] (the primary answered
          first after the hedge fired), or ["failed"] (both legs failed
          and the sweep moved on). *)
  deadline_rejects : Registry.family;
      (** [deadline_exceeded_total]: a request refused with
          [deadline_exceeded] by this tier — its budget ran out before
          (or while) forwarding. *)
  downtime : Registry.family;
      (** [downtime_seconds_total] (float): time between a shard's
          death detection and its supervised restart. *)
  ring_epoch : Registry.family;
      (** [ring_epoch] gauge: bumped by every join/leave. *)
  forwards_seen : int Atomic.t;  (** Running total, for {!forward}. *)
  on_forward : (int -> unit) Atomic.t;  (** See {!set_on_forward}. *)
}

val create : unit -> t

val forward : t -> shard:string -> unit
(** Count one forward to [shard], then call the {!set_on_forward} hook
    with the running forward total, before the op is sent. *)

val set_on_forward : t -> (int -> unit) -> unit
(** Install the hook {!forward} calls, in the forwarding domain, with
    the running forward total (default: none). *)

val to_json : t -> Tt_engine.Telemetry.Json.t
(** The router [stats] reply's ["shard"] object. *)
