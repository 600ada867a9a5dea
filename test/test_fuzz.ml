(* Fuzz tests for the untrusted parsers: manifest entries and v1 request
   frames must map to Ok/Error on any input and never raise; Matrix
   Market text must parse or raise [Parse_error], nothing else. *)

module M = Tt_engine.Manifest
module P = Tt_server.Protocol
module MM = Tt_sparse.Matrix_market
module Csr = Tt_sparse.Csr
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

(* ------------------------------------------------------- matrix market *)

let parses_or_parse_error text =
  match MM.parse_string text with
  | _ -> true
  | exception MM.Parse_error _ -> true

(* Token soup: a banner assembled from real and bogus header words, a
   size line and a few data lines, all drawn from MM keywords next to
   numbers at every edge (overflowing, non-finite, not numbers). *)
let gen_mm_soup =
  let open QCheck.Gen in
  let slot words = frequency [ (4, oneofl words); (1, oneofl ("bogus" :: numbers)) ] in
  let token =
    oneofl
      ([ "%"; "%%MatrixMarket"; "matrix"; "array"; "real"; "pattern"; "nan"; "inf";
         "-inf"; "1.5"; "-2e3"; "1e400"; "0.0" ]
      @ numbers)
  in
  let banner =
    map
      (String.concat " ")
      (flatten_l
         [ slot [ "%%MatrixMarket" ];
           slot [ "matrix" ];
           slot [ "coordinate"; "array" ];
           slot [ "real"; "integer"; "complex"; "pattern" ];
           slot [ "general"; "symmetric"; "skew-symmetric"; "hermitian" ]
         ])
  in
  let line = map (String.concat " ") (list_size (int_bound 4) token) in
  let size = map (String.concat " ") (list_size (int_range 1 4) (slot [ "1"; "2"; "3" ])) in
  map3
    (fun b s ls -> String.concat "\n" (b :: s :: ls))
    banner size
    (list_size (int_bound 8) line)

let prop_mm_soup =
  H.qcheck ~count:1000 "parse_string on token soup"
    (QCheck.make ~print:String.escaped gen_mm_soup)
    parses_or_parse_error

(* A random sparse pattern in the given field, square and mirrored when
   [symmetric]. Values are nonzero and exactly representable in the
   field, so a written file must read back to the same CSR. *)
let gen_csr field ~symmetric =
  let open QCheck.Gen in
  int_range 1 10 >>= fun nrows ->
  (if symmetric then return nrows else int_range 1 10) >>= fun ncols ->
  let value =
    match field with
    | MM.Pattern -> return 1.
    | MM.Integer -> map (fun k -> float_of_int (if k = 0 then 7 else k)) (int_range (-50) 50)
    | MM.Real | MM.Complex ->
        map (fun k -> float_of_int (if k = 0 then 3 else k) /. 7.) (int_range (-999) 999)
  in
  array_size (return (nrows * ncols)) (pair (float_bound_inclusive 1.) value)
  >|= fun cells ->
  let d = Array.make_matrix nrows ncols 0. in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      let keep, v = cells.((i * ncols) + j) in
      if keep < 0.3 && ((not symmetric) || j <= i) then begin
        d.(i).(j) <- v;
        if symmetric then d.(j).(i) <- v
      end
    done
  done;
  Csr.of_dense d

let gen_mm_case =
  let open QCheck.Gen in
  oneofl [ MM.Real; MM.Integer; MM.Complex; MM.Pattern ] >>= fun field ->
  oneofl [ MM.General; MM.Symmetric ] >>= fun symmetry ->
  map (fun a -> (field, symmetry, a)) (gen_csr field ~symmetric:(symmetry = MM.Symmetric))

let print_mm_case (field, symmetry, a) = MM.to_string ~field ~symmetry a

let prop_mm_round_trip =
  H.qcheck ~count:500 "to_string then parse_string round-trips"
    (QCheck.make ~print:print_mm_case gen_mm_case)
    (fun (field, symmetry, a) ->
      let _, t = MM.parse_string (MM.to_string ~field ~symmetry a) in
      Csr.of_triplet t = a)

(* Valid files (written ones, and the array format) with one edit: a
   byte replaced, a cut, a splice of a token, or a line dropped or
   doubled. *)
let prop_mm_mutated =
  let gen =
    let open QCheck.Gen in
    frequency
      [ (3, map print_mm_case gen_mm_case);
        ( 1,
          oneofl
            [ "%%MatrixMarket matrix array real general\n2 2\n1\n0\n3\n4\n";
              "%%MatrixMarket matrix array integer symmetric\n2 2\n5\n2\n6\n";
              "%%MatrixMarket matrix array real skew-symmetric\n3 3\n1\n2\n3\n"
            ] )
      ]
    >>= fun text ->
    let n = String.length text in
    int_bound (max 0 (n - 1)) >>= fun i ->
    char >>= fun c ->
    oneofl [ "9"; "-1"; "0"; " "; "\n"; "%"; "1e999"; "99999999999999999999" ] >>= fun tok ->
    let lines = String.split_on_char '\n' text in
    int_bound (List.length lines - 1) >>= fun l ->
    oneofl
      [ String.mapi (fun j x -> if j = i then c else x) text;
        String.sub text 0 i;
        String.sub text 0 i ^ tok ^ String.sub text i (n - i);
        String.concat "\n" (List.filteri (fun k _ -> k <> l) lines);
        String.concat "\n" (List.concat (List.mapi (fun k x -> if k = l then [ x; x ] else [ x ]) lines))
      ]
  in
  H.qcheck ~count:1000 "parse_string on mutated valid files"
    (QCheck.make ~print:String.escaped gen)
    parses_or_parse_error

let () =
  H.run "fuzz"
    [ ("manifest", [ prop_manifest_never_raises; prop_manifest_cached_agrees ]);
      ( "protocol",
        [ prop_request_round_trip;
          prop_decode_random_bytes;
          prop_decode_mutated_frames
        ] );
      ("matrix", [ prop_mm_soup; prop_mm_mutated; prop_mm_round_trip ])
    ]
