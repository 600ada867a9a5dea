module Json = Tt_engine.Telemetry.Json
module Registry = Tt_server.Registry
module R = Registry

type t = {
  registry : R.t;
  forwards : R.family;
  failovers : R.family;
  rejects : R.family;
  unrouted : R.family;
  peer_hits : R.family;
  peer_misses : R.family;
  breaker_opens : R.family;
  breaker_closes : R.family;
  breaker_state : R.family;
  restarts : R.family;
  hedges : R.family;
  deadline_rejects : R.family;
  downtime : R.family;
  ring_epoch : R.family;
  forwards_seen : int Atomic.t;
  on_forward : (int -> unit) Atomic.t;
}

let create () =
  let r = R.create ~prefix:"tt_shard_" in
  let counter = R.counter r in
  let shard = [ "shard" ] in
  (* Bound in exposition order: record fields evaluate in no set order. *)
  let forwards = counter ~labels:shard "forwards_total" in
  let failovers = counter "failovers_total" in
  let rejects = counter "rejects_total" in
  let unrouted = counter "unrouted_total" in
  let peer_hits = counter "peer_hits_total" in
  let peer_misses = counter "peer_misses_total" in
  let breaker_opens = counter "breaker_opens_total" in
  let breaker_closes = counter "breaker_closes_total" in
  let breaker_state = R.gauge r ~labels:shard "breaker_state" in
  let restarts = counter ~labels:shard "restarts_total" in
  let hedges = counter ~labels:[ "outcome" ] "hedges_total" in
  let deadline_rejects = counter "deadline_exceeded_total" in
  let downtime = counter "downtime_seconds_total" in
  let ring_epoch = R.gauge r "ring_epoch" in
  { registry = r; forwards; failovers; rejects; unrouted; peer_hits;
    peer_misses; breaker_opens; breaker_closes; breaker_state; restarts;
    hedges; deadline_rejects; downtime; ring_epoch;
    forwards_seen = Atomic.make 0;
    on_forward = Atomic.make ignore
  }

let forward t ~shard =
  R.add t.forwards 1 ~labels:[ shard ];
  (Atomic.get t.on_forward) (1 + Atomic.fetch_and_add t.forwards_seen 1)

let set_on_forward t f = Atomic.set t.on_forward f

let to_json t =
  let int f = Json.Int (R.get f) in
  let by_label f =
    Json.Obj (List.map (fun (k, v) -> (List.hd k, Json.Int v)) (R.series f))
  in
  let total f = Json.Int (R.total f) in
  Json.Obj
    [ ("forwards", by_label t.forwards);
      ("forwards_total", total t.forwards);
      ("failovers", int t.failovers);
      ("rejects", int t.rejects);
      ("unrouted", int t.unrouted);
      ("peer_hits", int t.peer_hits);
      ("peer_misses", int t.peer_misses);
      ("breaker_opens", int t.breaker_opens);
      ("breaker_closes", int t.breaker_closes);
      ("breaker_states", by_label t.breaker_state);
      ("restarts", by_label t.restarts);
      ("restarts_total", total t.restarts);
      ("hedges", by_label t.hedges);
      ("deadline_rejects", int t.deadline_rejects);
      ("downtime_s", Json.Float (R.getf t.downtime));
      ("ring_epoch", int t.ring_epoch)
    ]
