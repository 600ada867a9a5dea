module P = Tt_server.Protocol
module Client = Tt_server.Client

let default_read_timeout_s = 0.15

(* The hook runs inside [Cache.find_or_compute] on a worker domain, so
   every failure mode must degrade to [None] (= compute locally) and
   every wait must be short: a wedged peer that stalled peeks for the
   full solve time would be slower than just computing. A peer that
   answers "not cached" is healthy ([`Miss]); only transport-level
   silence ([`Unreachable]) should count against it. *)
let peek_node (node : Ring.node) ~connect_timeout_s ~read_timeout_s key =
  try
    Client.with_connection ~host:node.Ring.host ~read_timeout_s
      ~connect_timeout_s ~port:node.Ring.port (fun c ->
        match Client.call c (P.Peek { key }) with
        | Ok (P.Peeked (Some r)) -> `Hit r
        | Ok (P.Peeked None) -> `Miss
        | Ok _ -> `Miss  (* answered, just not what we asked for *)
        | Error _ -> `Unreachable)
  with Unix.Unix_error _ | Failure _ -> `Unreachable

let fetch ~self ~ring ?(warm_from_successor = false)
    ?(connect_timeout_s = Forward.default_connect_timeout_s)
    ?(read_timeout_s = default_read_timeout_s) ?health ~metrics () key =
  let owner = Ring.owner ring key in
  let target =
    if owner.Ring.name <> self then Some owner
    else if not warm_from_successor then
      (* We are the placement target: nobody else is expected to hold
         this key, and peeking would be a self-connection. *)
      None
    else
      (* Late-joined shard warming up: under pure-name placement, a
         key this shard now owns was owned {e before the join} by the
         next distinct node in sweep order — ask it, and the answer
         lands in our cache for every later request of this key. *)
      match Ring.successors ring key with
      | _ :: prev_owner :: _ -> Some prev_owner
      | _ -> None
  in
  match target with
  | None -> None
  | Some node -> (
      (* Peeks are strictly an optimization, so an unreachable peer
         must cost ~zero: the breaker eats the read timeout a few
         times, opens, and every later miss computes locally without
         touching the network until the backoff lets one trial
         through. Without this, a stalled peer turns every cache miss
         on every OTHER shard into a blocked worker — the cluster
         fails over the requests and then peering walks them straight
         back into the stall. *)
      let allowed =
        match health with
        | None -> true
        | Some h -> Health.allow h node.Ring.name
      in
      if not allowed then None
      else
        match peek_node node ~connect_timeout_s ~read_timeout_s key with
        | `Hit r ->
            Option.iter (fun h -> Health.success h node.Ring.name) health;
            Metrics.Registry.add metrics.Metrics.peer_hits 1;
            Some r
        | `Miss ->
            Option.iter (fun h -> Health.success h node.Ring.name) health;
            Metrics.Registry.add metrics.Metrics.peer_misses 1;
            None
        | `Unreachable ->
            Option.iter (fun h -> Health.failure h node.Ring.name) health;
            Metrics.Registry.add metrics.Metrics.peer_misses 1;
            None)
