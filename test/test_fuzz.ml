(* Fuzz tests for the untrusted parsers: manifest entries and v1 request
   frames must map to Ok/Error on any input and never raise. *)

module M = Tt_engine.Manifest
module P = Tt_server.Protocol
module H = Helpers

(* ------------------------------------------------------------ manifest *)

(* Token soup over the manifest grammar: real keywords next to bogus
   ones, numbers at every edge (negative, zero, past the caps,
   overflowing, not numbers). Every [gen] source names its size (the
   default, 20, is a slow cube for [grid3d]) and positive sizes stay
   small, so an accepted source materializes in milliseconds. *)
let numbers =
  [ "-5"; "0"; "1"; "2"; "3"; "8"; "99999999"; "-99999999";
    "4611686018427387903"; "99999999999999999999"; "1e3"; "0x3"; "x"; "" ]

let not_mm =
  lazy
    (let path = Filename.temp_file "tt_fuzz" ".mtx" in
     Out_channel.with_open_bin path (fun oc ->
         output_string oc "%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1\n");
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

let gen_line =
  let open QCheck.Gen in
  (* Mostly well-formed values, so that a fair share of lines reaches
     the matrix pipeline and the solvers instead of the syntax checks. *)
  let valid = function
    | "size" -> [ "1"; "2"; "5"; "8" ]
    | "ordering" -> [ "mindeg"; "nd"; "rcm"; "natural" ]
    | "amalgamation" -> [ "1"; "4"; "16" ]
    | "policy" -> [ "lsnf"; "first-fit"; "best-fill"; "3" ]
    | "budget" -> [ "50%"; "0%"; "10" ]
    | "procs" -> [ "1"; "4" ]
    | "mem" -> [ "1.5"; "0.5" ]
    | "algo" -> [ "greedy"; "booking"; "split" ]
    | "steps" | "cap" -> [ "2"; "3" ]
    | "tol" -> [ "0.01"; "0" ]
    | _ -> [ "7" ]
  in
  let value key =
    frequency [ (3, oneofl (valid key)); (1, oneofl ("bogus" :: numbers)) ]
  in
  let kv keys = oneofl keys >>= fun k -> map (fun v -> k ^ "=" ^ v) (value k) in
  let kvs keys = map (String.concat " ") (list_size (int_bound 2) (kv keys)) in
  let source =
    frequency
      [ ( 4,
          map3
            (fun k size kv -> "gen " ^ k ^ " size=" ^ size ^ " " ^ kv)
            (oneofl
               [ "grid2d"; "grid9"; "grid3d"; "banded"; "random"; "arrow";
                 "powerlaw"; "tridiagonal"; "warp"; "" ])
            (value "size")
            (kvs [ "seed"; "ordering"; "amalgamation"; "bogus" ]) );
        ( 1,
          map2
            (fun p kv -> "file " ^ p ^ " " ^ kv)
            (oneof
               [ oneofl [ "/nonexistent/m.mtx"; "."; "/dev/null"; "" ];
                 map (fun () -> Lazy.force not_mm) unit ])
            (kvs [ "ordering"; "amalgamation"; "size" ]) );
        ( 2,
          map
            (fun t -> "tree " ^ t)
            (oneofl
               [ "\"3 -1:1:1 0:2:1 0:1:1\""; "3 -1:4:2 0:2:1 0:1:1";
                 "\"2 1:1:1 0:1:1\""; "\"1 -1:-4:0\""; "\"99999999999 -1:1:1\"";
                 "\"x\""; "\""; "" ]) );
        (1, oneofl [ "bogus 1"; ""; "gen"; "file"; "tree" ])
      ]
  in
  let job =
    oneof
      [ oneofl [ "minmem"; "liu"; "postorder"; "minmem-approx"; "fly"; "" ];
        map (fun kv -> "minio " ^ kv) (kvs [ "policy"; "budget" ]);
        map (fun kv -> "schedule " ^ kv) (kvs [ "procs"; "mem" ]);
        map (fun kv -> "par-schedule " ^ kv) (kvs [ "algo"; "procs"; "mem" ]);
        map (fun kv -> "pareto " ^ kv) (kvs [ "procs"; "steps" ]);
        map (fun kv -> "minmem-approx " ^ kv) (kvs [ "cap"; "tol" ])
      ]
  in
  map3
    (fun src sep jobs -> src ^ sep ^ String.concat "; " jobs)
    source
    (frequency [ (6, return " :: "); (1, return "::"); (1, return " : "); (1, return "") ])
    (list_size (frequency [ (1, return 0); (4, int_range 1 2) ]) job)

let arb_manifest =
  let gen =
    QCheck.Gen.(map (String.concat "\n") (list_size (int_range 1 2) gen_line))
  in
  QCheck.make ~print:Fun.id gen

let prop_manifest_never_raises =
  H.qcheck ~count:400 "Manifest.parse returns Ok or Error" arb_manifest
    (fun text ->
      match M.parse text with Ok _ | Error _ -> true)

let prop_manifest_cached_agrees =
  let sources = Tt_engine.Source_cache.create ~max_nodes:5_000 () in
  let ids = function
    | Ok jobs -> Ok (List.map Tt_engine.Job.id jobs)
    | Error e -> Error e
  in
  H.qcheck ~count:200 "cached and uncached parses agree" arb_manifest
    (fun text -> ids (M.parse ~sources text) = ids (M.parse text))

(* ------------------------------------------------------------ protocol *)

let gen_string = QCheck.Gen.(string_size ~gen:char (int_bound 24))

let gen_op =
  let open QCheck.Gen in
  let opt g = oneof [ return None; map Option.some g ] in
  oneof
    [ oneofl [ P.Ping; P.Stats; P.Health; P.Shutdown ];
      map (fun key -> P.Peek { key }) gen_string;
      map4
        (fun entry timeout_s idem priority ->
          P.Solve { entry; timeout_s; idem; priority })
        gen_string
        (opt (map (fun k -> float_of_int k /. 16.) (int_bound 100_000)))
        (opt gen_string)
        (oneofl [ P.Interactive; P.Batch ])
    ]

let gen_request = QCheck.Gen.map2 (fun id op -> { P.id; op }) gen_string gen_op

let prop_request_round_trip =
  H.qcheck ~count:500 "decode_request (encode_request r) = Ok r"
    (QCheck.make ~print:P.encode_request gen_request)
    (fun r -> P.decode_request (P.encode_request r) = Ok r)

let decodes frame =
  match P.decode_request frame with Ok _ | Error _ -> true

let prop_decode_random_bytes =
  H.qcheck ~count:1000 "decode_request on random bytes"
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:char (int_bound 64)))
    decodes

(* Valid frames with one edit: a byte replaced, a cut, or a splice. *)
let prop_decode_mutated_frames =
  let gen =
    let open QCheck.Gen in
    gen_request >>= fun r ->
    let frame = P.encode_request r in
    let n = String.length frame in
    int_bound (max 0 (n - 1)) >>= fun i ->
    char >>= fun c ->
    oneofl
      [ String.mapi (fun j x -> if j = i then c else x) frame;
        String.sub frame 0 i;
        String.sub frame 0 i ^ String.make 1 c ^ String.sub frame i (n - i);
        String.sub frame 0 i ^ "{\"v\":1" ^ String.sub frame i (n - i)
      ]
  in
  H.qcheck ~count:1000 "decode_request on mutated valid frames"
    (QCheck.make ~print:String.escaped gen)
    decodes

let () =
  H.run "fuzz"
    [ ("manifest", [ prop_manifest_never_raises; prop_manifest_cached_agrees ]);
      ( "protocol",
        [ prop_request_round_trip;
          prop_decode_random_bytes;
          prop_decode_mutated_frames
        ] )
    ]
