module P = Tt_server.Protocol
module Client = Tt_server.Client
module Retry = Tt_engine.Retry
module Overload = Tt_server.Overload

let default_connect_timeout_s = 1.

(* ------------------------------------------------- shared hedge state *)

(* Shared across every per-connection pool of a router (hence the
   mutex): one RTT window per shard, plus the seeded gate parameters.
   RTTs observed by any connection inform every connection's hedge
   trigger. *)
type hedge_state = {
  h_mu : Mutex.t;
  h_seed : int;
  h_ratio : float;
  h_quantile : float;
  h_min_trigger_s : float;
  h_rtts : (string, Overload.Rtt.t) Hashtbl.t;
}

let create_hedge ?(ratio = 1.) ?(quantile = 0.95) ?(min_trigger_s = 0.002)
    ~seed () =
  if ratio < 0. then invalid_arg "Forward.create_hedge: ratio < 0";
  if quantile <= 0. || quantile > 1. then
    invalid_arg "Forward.create_hedge: quantile outside (0, 1]";
  { h_mu = Mutex.create ();
    h_seed = seed;
    h_ratio = ratio;
    h_quantile = quantile;
    h_min_trigger_s = min_trigger_s;
    h_rtts = Hashtbl.create 8
  }

let h_locked hs f =
  Mutex.lock hs.h_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock hs.h_mu) f

let hedge_observe hs ~shard rtt_s =
  h_locked hs (fun () ->
      let r =
        match Hashtbl.find_opt hs.h_rtts shard with
        | Some r -> r
        | None ->
            let r = Overload.Rtt.create () in
            Hashtbl.replace hs.h_rtts shard r;
            r
      in
      Overload.Rtt.observe r rtt_s)

(* The per-shard hedge trigger: the configured quantile of its RTT
   window, floored so a cache-hot shard (microsecond replies) doesn't
   make the trigger degenerate. [None] until enough samples exist —
   hedges never fire on noise. *)
let hedge_trigger hs ~shard =
  h_locked hs (fun () ->
      match Hashtbl.find_opt hs.h_rtts shard with
      | None -> None
      | Some r ->
          Option.map
            (fun q -> Float.max hs.h_min_trigger_s q)
            (Overload.Rtt.quantile r hs.h_quantile))

(* --------------------------------------------------------------- pool *)

type t = {
  route : string -> Ring.node list;
  static_ring : Ring.t;
  health : Health.t option;
  hedge : hedge_state option;
  conns : (string, Client.t) Hashtbl.t;  (* node name -> live conn *)
  connect_timeout_s : float;
  read_timeout_s : float;
  retry : Retry.policy;
  metrics : Metrics.t;
}

let create ?(connect_timeout_s = default_connect_timeout_s)
    ?(read_timeout_s = Client.default_read_timeout_s) ?(retry = Retry.none)
    ?health ?hedge ?route ~metrics ring =
  { route =
      (match route with
      | Some f -> f
      | None -> fun key -> Ring.successors ring key);
    static_ring = ring;
    health;
    hedge;
    conns = Hashtbl.create 8;
    connect_timeout_s;
    read_timeout_s;
    retry;
    metrics
  }

let ring t = t.static_ring

let close t =
  Hashtbl.iter (fun _ c -> Client.close c) t.conns;
  Hashtbl.reset t.conns

let drop t name =
  match Hashtbl.find_opt t.conns name with
  | None -> ()
  | Some c ->
      Client.close c;
      Hashtbl.remove t.conns name

let conn t (node : Ring.node) =
  match Hashtbl.find_opt t.conns node.Ring.name with
  | Some c -> Some c
  | None -> (
      match
        Client.connect ~host:node.Ring.host
          ~read_timeout_s:t.read_timeout_s
          ~connect_timeout_s:t.connect_timeout_s ~port:node.Ring.port ()
      with
      | c ->
          Hashtbl.replace t.conns node.Ring.name c;
          Some c
      | exception Unix.Unix_error _ | exception Failure _ -> None)

(* A shard that answered [Shutting_down] (draining), [Overloaded],
   [Internal] or [Unavailable] is useless for this request {e right
   now}, but a successor — which can compute any key, ownership only
   steers the cache — can serve it. Anything else is a property of the
   request (or of its deadline) and is relayed as-is. *)
let routable_refusal = function
  | P.Shutting_down | P.Overloaded | P.Internal | P.Unavailable -> true
  | P.Bad_frame | P.Bad_request | P.Unsupported_version | P.Deadline_exceeded
    ->
      false

let note_success t name =
  match t.health with None -> () | Some h -> Health.success h name

let note_failure t name =
  match t.health with None -> () | Some h -> Health.failure h name

let observe_rtt t name rtt_s =
  match t.hedge with
  | None -> ()
  | Some hs -> hedge_observe hs ~shard:name rtt_s

(* One node's verdict inside a sweep. [Move_on] carries the refusal
   code when the shard answered (rather than its transport failing), so
   an exhausted sweep can relay the cluster-wide condition — a ring
   where every shard said [overloaded] must surface as [overloaded],
   not as a transport-flavoured [internal]. *)
type attempt =
  | Answered of P.body  (* success or a refusal to relay verbatim *)
  | Move_on of string * P.error_code option

let attempt t node op =
  Metrics.forward t.metrics ~shard:node.Ring.name;
  match conn t node with
  | None ->
      note_failure t node.Ring.name;
      Move_on (node.Ring.name ^ " unreachable", None)
  | Some c -> (
      let sent_at = Unix.gettimeofday () in
      match Client.call c op with
      | Error msg ->
          (* Unknown connection state: reconnect on next use. *)
          note_failure t node.Ring.name;
          drop t node.Ring.name;
          Move_on (Printf.sprintf "%s: %s" node.Ring.name msg, None)
      | Ok (P.Refused { code; _ } as body) ->
          (* Any parsed reply — refusals included — proves the shard's
             transport is alive: the breaker only tracks reachability,
             admission pressure is failover's business. *)
          note_success t node.Ring.name;
          observe_rtt t node.Ring.name (Unix.gettimeofday () -. sent_at);
          if routable_refusal code then
            (* The refusal was a complete, parsed reply: the connection
               is clean and stays pooled. Dropping here would make the
               router reconnect per refused request — under overload,
               when nearly every reply is a refusal, that turns shedding
               into a connect storm. *)
            Move_on
              ( Printf.sprintf "%s refused: %s" node.Ring.name
                  (P.error_code_to_string code),
                Some code )
          else Answered body
      | Ok body ->
          note_success t node.Ring.name;
          observe_rtt t node.Ring.name (Unix.gettimeofday () -. sent_at);
          Answered body)

(* --------------------------------------------------- hedged attempt
   Tail-at-scale hedging for the sweep's first (owner) attempt: send to
   the owner, wait its observed p95; if still silent, race a duplicate
   (same idempotency key) against the ring successor and take the first
   parsed reply. The loser's pooled connection carries an outstanding
   reply, so it is dropped — the pool reconnects on next use. Duplicate
   execution is digest-safe: jobs are content-addressed, replies carry
   deterministic values, and the same-key replay cache absorbs the
   same-shard case. *)

type leg = {
  l_conn : Client.t;
  l_id : string;
  l_node : Ring.node;
  l_sent : float;
}

let leg_recv t leg =
  match Client.recv leg.l_conn with
  | Error msg ->
      note_failure t leg.l_node.Ring.name;
      drop t leg.l_node.Ring.name;
      Error (Printf.sprintf "%s: %s" leg.l_node.Ring.name msg)
  | Ok { P.req_id; body } ->
      if req_id <> None && req_id <> Some leg.l_id then begin
        note_failure t leg.l_node.Ring.name;
        drop t leg.l_node.Ring.name;
        Error (leg.l_node.Ring.name ^ ": response id mismatch")
      end
      else begin
        note_success t leg.l_node.Ring.name;
        observe_rtt t leg.l_node.Ring.name
          (Unix.gettimeofday () -. leg.l_sent);
        Ok body
      end

(* Turn a winning leg's body into the attempt verdict (shared with the
   plain path's refusal routing). *)
let leg_verdict _t leg body =
  match body with
  | P.Refused { code; _ } when routable_refusal code ->
      (* Fully-read reply: keep the winning leg's connection pooled
         (losing legs are dropped separately — they still owe a reply). *)
      Move_on
        ( Printf.sprintf "%s refused: %s" leg.l_node.Ring.name
            (P.error_code_to_string code),
          Some code )
  | body -> Answered body

let send_leg t (node : Ring.node) op =
  match conn t node with
  | None ->
      note_failure t node.Ring.name;
      None
  | Some c -> (
      let id = Client.fresh_id c in
      match Client.send c { P.id; op } with
      | () ->
          Some { l_conn = c; l_id = id; l_node = node; l_sent = Unix.gettimeofday () }
      | exception (Unix.Unix_error _ | Sys_error _) ->
          note_failure t node.Ring.name;
          drop t node.Ring.name;
          None)

(* First readable leg within [until], [`Timeout] otherwise. *)
let rec select_legs legs until =
  let tmo = until -. Unix.gettimeofday () in
  if tmo <= 0. then `Timeout
  else
    match Unix.select (List.map (fun l -> Client.fd l.l_conn) legs) [] [] tmo with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_legs legs until
    | exception Unix.Unix_error _ -> `Timeout
    | [], _, _ -> `Timeout
    | ready, _, _ -> (
        match
          List.find_opt (fun l -> List.mem (Client.fd l.l_conn) ready) legs
        with
        | Some l -> `Ready l
        | None -> `Timeout)

(* Race [legs] until one produces a parsed reply or [until] passes. *)
let rec race t legs until =
  match legs with
  | [] -> `All_failed
  | _ -> (
      match select_legs legs until with
      | `Timeout -> `Timed_out legs
      | `Ready leg -> (
          match leg_recv t leg with
          | Ok body -> `Winner (leg, body, List.filter (fun l -> l != leg) legs)
          | Error _ -> race t (List.filter (fun l -> l != leg) legs) until))

(* [failed] distinguishes legs that never answered within the wait
   (report a breaker failure) from race losers (their reply is merely
   abandoned — the shard is healthy, only the connection is burned). *)
let drop_legs ?(failed = false) t legs =
  List.iter
    (fun l ->
      if failed then note_failure t l.l_node.Ring.name;
      drop t l.l_node.Ring.name)
    legs

let hedged_attempt t hs ~key (node : Ring.node) (successor : Ring.node option)
    op ~budget_s =
  Metrics.forward t.metrics ~shard:node.Ring.name;
  match send_leg t node op with
  | None -> Move_on (node.Ring.name ^ " unreachable", None)
  | Some primary -> (
      let race_until =
        primary.l_sent
        +.
        match budget_s with
        | Some r -> Float.max 0.001 (Float.min t.read_timeout_s r)
        | None -> t.read_timeout_s
      in
      (* Fire the hedge only when: the owner's RTT window is warm (its
         trigger exists), the seeded gate admits this key, and the
         remaining budget can cover the successor's observed RTT. All
         three are pure functions of (seed, key, observations). *)
      let plan =
        match successor with
        | Some succ -> (
            match hedge_trigger hs ~shard:node.Ring.name with
            | Some trigger
              when Overload.hedge_gate ~seed:hs.h_seed ~key ~ratio:hs.h_ratio
                   && Overload.should_hedge ~remaining_s:budget_s
                        ~successor_rtt_s:
                          (Option.value ~default:0.
                             (hedge_trigger hs ~shard:succ.Ring.name)) ->
                Some (succ, trigger)
            | _ -> None)
        | _ -> None
      in
      let finish ~fired legs_result =
        let outcome_of leg =
          match fired with
          | false -> None
          | true ->
              Some (if leg.l_node.Ring.name = node.Ring.name then "lost" else "won")
        in
        match legs_result with
        | `Winner (leg, body, losers) ->
            drop_legs t losers;
            Option.iter
              (fun o ->
                Metrics.Registry.add t.metrics.hedges 1 ~labels:[ o ])
              (outcome_of leg);
            leg_verdict t leg body
        | `Timed_out legs ->
            drop_legs ~failed:true t legs;
            if fired then
              Metrics.Registry.add t.metrics.hedges 1 ~labels:[ "failed" ];
            Move_on
              (Printf.sprintf "%s: no reply within budget" node.Ring.name, None)
        | `All_failed ->
            if fired then
              Metrics.Registry.add t.metrics.hedges 1 ~labels:[ "failed" ];
            Move_on (node.Ring.name ^ ": every hedge leg failed", None)
      in
      match plan with
      | None -> finish ~fired:false (race t [ primary ] race_until)
      | Some (succ, trigger) -> (
          (* Phase 1: give the owner its p95 before spending a hedge. *)
          match race t [ primary ] (primary.l_sent +. trigger) with
          | (`Winner _ | `All_failed) as r -> finish ~fired:false r
          | `Timed_out _ -> (
              Metrics.forward t.metrics ~shard:succ.Ring.name;
              match send_leg t succ op with
              | None -> finish ~fired:false (race t [ primary ] race_until)
              | Some hedge_leg ->
                  finish ~fired:true
                    (race t [ primary; hedge_leg ] race_until))))

let skippable t name =
  match t.health with None -> false | Some h -> not (Health.allow h name)

(* Hedge successors are chosen with the {e read-only} breaker state:
   {!Health.allow} hands out the single half-open trial, and a trial
   consumed by a successor scan that never sends would leak — leaving
   the breaker half-open forever. Only a fully closed shard is worth a
   speculative duplicate anyway. *)
let hedge_candidate t name =
  match t.health with
  | None -> true
  | Some h -> Health.state h name = Health.Breaker_closed

(* --------------------------------------------------------------- call *)

let call t ~key ?deadline op =
  let remaining () =
    Option.map (fun d -> d -. Unix.gettimeofday ()) deadline
  in
  let expired () =
    match remaining () with Some r -> r <= 0. | None -> false
  in
  let deadline_error () =
    Metrics.Registry.add t.metrics.deadline_rejects 1;
    Error (P.Deadline_exceeded, "deadline budget exhausted during forward")
  in
  (* Deadline propagation: the wire carries {e relative} budget, so
     every attempt re-derives it from the absolute deadline — a retry
     after a slow failover forwards only what is left. *)
  let with_budget op =
    match op with
    | P.Solve s -> (
        match remaining () with
        | None -> op
        | Some r -> P.Solve { s with timeout_s = Some r })
    | op -> op
  in
  let hedgeable = match op with P.Solve _ -> true | _ -> false in
  let sweep () =
    (* Re-plan every sweep: between backoff rounds the ring may have
       been reconfigured (join/leave) or a breaker may have
       half-opened. *)
    let order = t.route key in
    let skips = ref 0 in
    let last_code = ref None in
    let rec go first = function
      | [] -> `Exhausted
      | (node : Ring.node) :: rest ->
          if skippable t node.Ring.name then begin
            incr skips;
            go first rest
          end
          else if expired () then `Budget_gone
          else begin
            if not first then Metrics.Registry.add t.metrics.failovers 1;
            let verdict =
              match (first, hedgeable, t.hedge) with
              | true, true, Some hs ->
                  let successor =
                    List.find_opt
                      (fun (n : Ring.node) -> hedge_candidate t n.Ring.name)
                      rest
                  in
                  hedged_attempt t hs ~key node successor (with_budget op)
                    ~budget_s:(remaining ())
              | _ -> attempt t node (with_budget op)
            in
            match verdict with
            | Answered body -> `Got body
            | Move_on (_why, code) ->
                (match code with Some c -> last_code := Some c | None -> ());
                go false rest
          end
    in
    (* Bind the sweep before reading the refs: a tuple literal would
       evaluate right to left and read them before [go] ran. *)
    let verdict = go true order in
    (verdict, !skips, List.length order, !last_code)
  in
  let exhausted_error skips tried last_code =
    Metrics.Registry.add t.metrics.unrouted 1;
    (* Relay a cluster-wide [Overloaded] as-is — it is retryable and
       tells the client {e why} (shed, not dead). [Unavailable] when a
       breaker spared us any attempt this sweep: the backends are
       known-dead, nothing about the request is wrong, and retrying
       after a backoff is the expected recovery. [Internal] when every
       shard was genuinely tried and its transport failed. *)
    match last_code with
    | Some P.Overloaded ->
        Error
          ( P.Overloaded,
            Printf.sprintf "all shards shedding (tried %d, %d skipped)" tried
              skips )
    | _ ->
        if skips > 0 then
          Error
            ( P.Unavailable,
              Printf.sprintf
                "no shard available (%d of %d skipped breaker-open)" skips
                tried )
        else
          Error
            (P.Internal, Printf.sprintf "no shard reachable (tried %d)" tried)
  in
  let rec rounds delays =
    if expired () then deadline_error ()
    else
      match sweep () with
      | `Got body, _, _, _ -> Ok body
      | `Budget_gone, _, _, _ -> deadline_error ()
      | `Exhausted, skips, tried, last_code -> (
          match delays with
          | [] -> exhausted_error skips tried last_code
          | d :: rest -> (
              (* A backoff sleep that would land past the deadline is
                 never taken — the sweep after it could only be
                 refused, so refuse now without burning the budget
                 asleep. *)
              match remaining () with
              | Some r when r <= d -> deadline_error ()
              | _ ->
                  if d > 0. then Unix.sleepf d;
                  rounds rest))
  in
  rounds (Retry.delays t.retry ~key)
