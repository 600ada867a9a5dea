(* serve-warm and cluster-warm: one closed-loop client connection cycling
   seeded rounds over a fixed list of small entries, against one
   [Tt_server.Server] or the router of a two-shard [Tt_shard.Cluster]. *)

open Tt_engine
module P = Tt_server.Protocol
module Client = Tt_server.Client
module Json = Telemetry.Json

(* About fifteen small entries covering every job kind and source kind but
   [file]. Sources are small so that a warm request costs milliseconds:
   the time goes to the protocol, [Manifest.parse] of the source, the
   job-id digest and the cache, not to the solvers. The seed varies the
   random sources and the tree literals, not the sizes. *)
let entries seed =
  let rng = Tt_util.Rng.create (1000 + seed) in
  let s () = Tt_util.Rng.int rng 1_000_000 in
  let tree size max_f max_n =
    Tt_core.Tree.to_string (Tt_core.Tree.random ~rng ~size ~max_f ~max_n)
  in
  [|
    "gen grid2d size=12 :: minmem; liu; postorder";
    "gen grid3d size=5 :: minmem; minmem-approx cap=2";
    Printf.sprintf
      "gen banded size=150 seed=%d :: minio policy=first-fit budget=50%%; minio policy=lsnf budget=30%%"
      (s ());
    Printf.sprintf
      "gen random size=150 seed=%d ordering=nd :: minio policy=best-fit budget=50%%; minio policy=2 budget=40%%"
      (s ());
    Printf.sprintf "gen powerlaw size=200 seed=%d :: schedule procs=4 mem=1.5" (s ());
    "gen grid9 size=9 ordering=rcm :: par-schedule algo=booking procs=4 mem=1.5";
    "gen arrow size=64 :: par-schedule algo=greedy procs=2 mem=2.0";
    "gen tridiagonal size=200 ordering=natural :: par-schedule algo=split procs=4";
    "gen grid2d size=8 ordering=nd :: pareto procs=2 steps=4";
    Printf.sprintf "gen random size=150 seed=%d amalgamation=2 :: minmem-approx cap=4" (s ());
    Printf.sprintf "tree \"%s\" :: minmem; liu; postorder; minmem-approx" (tree 40 20 10);
    Printf.sprintf
      "gen powerlaw size=180 seed=%d ordering=nd :: minio policy=best-fill budget=50%%; minio policy=first-fill budget=70%%"
      (s ());
    Printf.sprintf
      "gen banded size=150 seed=%d ordering=rcm amalgamation=1 :: liu; schedule procs=2 mem=1.2" (s ());
    Printf.sprintf "tree \"%s\" :: postorder; pareto procs=3 steps=3" (tree 60 50 30);
    "gen grid2d size=14 ordering=natural amalgamation=16 :: minmem; par-schedule algo=booking procs=3";
  |]

type entry = {
  text : string;
  reference : (string * Job.result) list;  (** In-process [Executor] results. *)
}

let reference text =
  match Manifest.parse text with
  | Error e -> failwith ("manifest: " ^ e)
  | Ok jobs -> (
      let reports, _ = Executor.run_batch (Executor.create ~domains:1 ()) jobs in
      let results = Array.to_list (Array.map (fun r -> r.Executor.result) reports) in
      match Check.results jobs results with
      | Error e -> failwith ("reference " ^ text ^ ": " ^ e)
      | Ok () -> { text; reference = List.map2 (fun j r -> (Job.id j, r)) jobs results })

type target = Server of Tt_server.Server.t | Cluster of Tt_shard.Cluster.t

type inst = {
  target : target;
  client : Client.t;  (** The one closed-loop connection. *)
  direct : Client.t array;  (** One connection per shard (cluster) or to the server. *)
  owner : int array;  (** Per entry: index into [direct] of the owning shard. *)
  entries : entry array;
  replay_cache : Job.outcome Cache.t;  (** Reference outcomes, for the traced replay. *)
  digest : string;  (** Value digest of the warm-up replies. *)
}

let solve client (e : entry) =
  match Client.solve client e.text with
  | Error msg -> Error msg
  | Ok reports -> Result.map (fun () -> reports) (Check.served ~reference:e.reference reports)

let setup ~cluster ~seed () =
  let entries = Array.map reference (entries seed) in
  let target, port =
    if cluster then
      let c = Tt_shard.Cluster.start ~shards:2 ~workers:1 () in
      (Cluster c, Tt_shard.Cluster.router_port c)
    else
      let config = { Tt_server.Server.default_config with port = 0; workers = 1 } in
      let s = Tt_server.Server.create ~config () in
      Tt_server.Server.start s;
      (Server s, Tt_server.Server.port s)
  in
  let client = Client.connect ~port () in
  (* Two passes: the first computes every job on its server, the second
     lets the router's per-shard RTT windows fill before timing starts. *)
  let served = ref [] in
  for pass = 1 to 2 do
    Array.iter
      (fun e ->
        match solve client e with
        | Error msg -> failwith ("warm-up " ^ e.text ^ ": " ^ msg)
        | Ok reports ->
            if pass = 1 then
              served :=
                List.map (fun (r : P.job_report) -> (r.job_id, r.result)) reports @ !served)
      entries
  done;
  let ports, owner =
    match target with
    | Server s -> ([| Tt_server.Server.port s |], Array.map (fun _ -> 0) entries)
    | Cluster c ->
        let ports = Array.init (Tt_shard.Cluster.size c) (Tt_shard.Cluster.shard_port c) in
        let owner (e : entry) =
          let node = Tt_shard.Ring.owner (Tt_shard.Cluster.ring c) (fst (List.hd e.reference)) in
          let rec find i = if ports.(i) = node.Tt_shard.Ring.port then i else find (i + 1) in
          find 0
        in
        (ports, Array.map owner entries)
  in
  let replay_cache = Cache.create () in
  Array.iter
    (fun e ->
      List.iter
        (fun (id, r) ->
          match r with
          | Ok o -> ignore (Cache.find_or_compute replay_cache ~key:id (fun () -> o))
          | Error _ -> ())
        e.reference)
    entries;
  {
    target;
    client;
    direct = Array.map (fun port -> Client.connect ~port ()) ports;
    owner;
    entries;
    replay_cache;
    digest = Job.value_digest_of_results !served;
  }

let teardown i =
  Client.close i.client;
  Array.iter Client.close i.direct;
  match i.target with
  | Server s -> Tt_server.Server.shutdown s
  | Cluster c -> Tt_shard.Cluster.stop c

(* ---------------------------------------------------------------- counters *)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

let int_at j keys = match path j keys with Some (Json.Int n) -> n | _ -> 0

let sum_obj j keys =
  match path j keys with
  | Some (Json.Obj kvs) ->
      List.fold_left (fun acc (_, v) -> match v with Json.Int n -> acc + n | _ -> acc) 0 kvs
  | _ -> 0

(* (jobs, cache hits, refused replies) summed over every server, read
   from their [stats] payloads. *)
let server_counters i =
  let of_stats j =
    let m = Option.value ~default:Json.Null (Json.member "metrics" j) in
    (int_at m [ "jobs"; "total" ], int_at m [ "jobs"; "cache_hits" ], sum_obj m [ "responses"; "errors" ])
  in
  let add (a, b, c) (x, y, z) = (a + x, b + y, c + z) in
  match i.target with
  | Server s -> of_stats (Tt_server.Server.stats_json s)
  | Cluster _ ->
      Array.fold_left
        (fun acc cl ->
          match Client.call cl P.Stats with
          | Ok (P.Stats_reply j) -> add acc (of_stats j)
          | _ -> failwith "shard stats unavailable")
        (0, 0, 0) i.direct

(* Sum of the samples of a Prometheus family, any labels. *)
let prom_sum text family =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         let n = String.length family in
         if String.length line > n && String.sub line 0 n = family && (line.[n] = '{' || line.[n] = ' ')
         then
           match String.rindex_opt line ' ' with
           | Some k -> acc +. float_of_string (String.sub line (k + 1) (String.length line - k - 1))
           | None -> acc
         else acc)
       0.

let cluster_hedges i =
  match i.target with
  | Server _ -> (0., 0.)
  | Cluster c ->
      let t = Tt_shard.Cluster.prometheus c in
      (prom_sum t "tt_shard_hedges_total", prom_sum t "tt_shard_forwards_total")

(* -------------------------------------------------------------------- ops *)

let next_entry i ~seed = Bu.rounds (Tt_util.Rng.create seed) (Array.length i.entries)

(* Untraced op: one request on the closed-loop connection. *)
let op i next _ =
  let e = i.entries.(next ()) in
  let r = solve i.client e in
  fun () -> Result.map ignore r

(* Traced op: the request, then (outside the op's latency) the same stage
   calls replayed in-process — frame codec, manifest parse, job ids, cache
   lookups — and, on a cluster, the request sent straight to the owning
   shard. *)
let traced_op i next id =
  let k = next () in
  let e = i.entries.(k) in
  let r = Trace.span "server.request" (fun () -> solve i.client e) in
  fun () ->
    let reports = match r with Ok reports -> reports | Error _ -> [] in
    Trace.span "protocol.codec" (fun () ->
        let req =
          {
            P.id = Printf.sprintf "c%d" id;
            op = P.Solve { entry = e.text; timeout_s = None; idem = None; priority = P.Interactive };
          }
        in
        ignore (P.decode_request (P.encode_request req));
        ignore (P.decode_response (P.encode_response { P.req_id = Some req.id; body = P.Results reports })));
    let jobs = Trace.span "engine.manifest_parse" (fun () -> Manifest.parse e.text) in
    let ids =
      Trace.span "engine.job_id" (fun () ->
          match jobs with Ok jobs -> List.map Job.id jobs | Error _ -> [])
    in
    Trace.span "engine.cache" (fun () -> List.iter (fun id -> ignore (Cache.find i.replay_cache id)) ids);
    (match i.target with
    | Cluster _ ->
        ignore (Trace.span "server.direct" (fun () -> solve i.direct.(i.owner.(k)) e))
    | Server _ -> ());
    Result.map ignore r

(* Workload-specific per-layer metrics of a traced phase, raw values; the
   span-based ones are computed by the caller. *)
let layers i ~ops ~before ~after ~hedges_before =
  let per_op name = fst (Trace.total name) /. Float.of_int (max 1 ops) in
  let jobs0, hits0, ref0 = before and jobs1, hits1, ref1 = after in
  let h0, f0 = hedges_before and h1, f1 = cluster_hedges i in
  let replayed =
    List.fold_left (fun acc n -> acc +. per_op n) 0.
      [ "protocol.codec"; "engine.manifest_parse"; "engine.job_id"; "engine.cache" ]
  in
  let forward_overhead =
    match i.target with
    | Server _ -> 0.
    | Cluster _ ->
        (* Median over ops of router latency minus direct latency. *)
        let direct = Hashtbl.create 1024 and diffs = ref [] in
        let sp = Trace.spans () in
        Array.iter
          (fun (s : Trace.span) -> if s.name = "server.direct" then Hashtbl.replace direct s.op (Trace.dur s))
          sp;
        Array.iter
          (fun (s : Trace.span) ->
            match Hashtbl.find_opt direct s.op with
            | Some d when s.name = "server.request" -> diffs := (Trace.dur s -. d) :: !diffs
            | _ -> ())
          sp;
        Bu.median (Array.of_list !diffs)
  in
  [
    ("engine.cache_hit_ratio", Float.of_int (hits1 - hits0) /. Float.of_int (max 1 (jobs1 - jobs0)));
    ("server.unattributed_ms", 1e3 *. (per_op "server.request" -. replayed));
    ("server.refused", Float.of_int (ref1 - ref0));
    ("shard.forward_overhead_ms", 1e3 *. forward_overhead);
    ("shard.hedge_ratio", if f1 > f0 then (h1 -. h0) /. (f1 -. f0) else 0.);
  ]
