module S = Tt_sparse

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* --------------------------------------------------------- small lexing *)

let tokens s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* [key=value] pairs after the leading keyword(s). *)
let kv_pairs toks =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> bad "expected key=value, got %S" tok)
    toks

let lookup ?default pairs key =
  match List.assoc_opt key pairs with
  | Some v -> v
  | None -> (
      match default with Some d -> d | None -> bad "missing %s=..." key)

let check_keys pairs allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        bad "unknown key %S (expected one of: %s)" k (String.concat ", " allowed))
    pairs

let int_of ~what s =
  match int_of_string_opt s with Some v -> v | None -> bad "bad %s: %S" what s

let float_of ~what s =
  match float_of_string_opt s with Some v -> v | None -> bad "bad %s: %S" what s

(* ------------------------------------------------------------- sources *)

module Pipeline = Tt_workloads.Pipeline

(* Admission caps, checked before anything is allocated: a manifest
   entry is untrusted input, and one huge source must not take the
   process down. *)
let max_dim = 1_000_000
let max_nnz = 4_000_000
let max_file_bytes = 16 * 1024 * 1024

type source =
  | Gen of {
      kind : string;
      size : int;
      seed : int;
      ordering : Pipeline.ordering;
      amalgamation : int;
    }
  | File of { path : string; ordering : Pipeline.ordering; amalgamation : int }
  | Literal of string

let ordering_of = function
  | "natural" -> Pipeline.Natural
  | "rcm" -> Pipeline.Rcm
  | "mindeg" -> Pipeline.Min_degree
  | "nd" -> Pipeline.Nested_dissection
  | s -> bad "unknown ordering %S" s

(* Saturating arithmetic for the size estimates: a hostile [size] must
   yield "too big", never an overflowed small number. *)
let ( *! ) a b = if a <> 0 && b > max_int / a then max_int else a * b
let ( +! ) a b = if a > max_int - b then max_int else a + b

type generator = {
  shape : int -> int * int;
      (* [(dimension, upper estimate of stored entries)] for [size >= 1] *)
  build : Tt_util.Rng.t -> int -> S.Csr.t;
}

let gen_kinds =
  let square k = k *! k in
  let band n = max 2 (n / 50) and border n = max 2 (n / 40) in
  [ ( "grid2d",
      { shape = (fun k -> (square k, 5 *! square k));
        build = (fun _ k -> S.Spgen.grid2d k) } );
    ( "grid9",
      { shape = (fun k -> (square k, 9 *! square k));
        build = (fun _ k -> S.Spgen.grid2d_9pt k) } );
    ( "grid3d",
      { shape = (fun k -> (square k *! k, 7 *! (square k *! k)));
        build = (fun _ k -> S.Spgen.grid3d k) } );
    ( "banded",
      { shape = (fun n -> (n, n *! ((2 * band n) + 1)));
        build = (fun rng n -> S.Spgen.banded ~rng ~n ~bandwidth:(band n) ~fill:0.4) } );
    ( "random",
      { shape = (fun n -> (n, 6 *! n));
        build = (fun rng n -> S.Spgen.random_sym ~rng ~n ~nnz_per_row:3.0) } );
    ( "arrow",
      { shape = (fun n -> (n, (5 *! n) +! (2 *! border n *! n)));
        build = (fun _ n -> S.Spgen.block_arrow ~n ~blocks:8 ~border:(border n)) } );
    ( "powerlaw",
      { shape = (fun n -> (n, 5 *! n));
        build = (fun rng n -> S.Spgen.power_law ~rng ~n ~edges_per_node:2) } );
    ( "tridiagonal",
      { shape = (fun n -> (n, 3 *! n)); build = (fun _ n -> S.Spgen.tridiagonal n) } )
  ]

let check_shape ~what ~dim ~nnz =
  if dim > max_dim then
    bad "%s: dimension %d exceeds the cap of %d" what dim max_dim;
  if nnz > max_nnz then
    bad "%s: %d stored entries (estimated) exceed the cap of %d" what nnz max_nnz

let pipeline_args pairs =
  let ordering = ordering_of (lookup ~default:"mindeg" pairs "ordering") in
  let amalgamation = int_of ~what:"amalgamation" (lookup ~default:"4" pairs "amalgamation") in
  if amalgamation < 1 then bad "amalgamation must be >= 1, got %d" amalgamation;
  (ordering, amalgamation)

(* Syntax, defaults and caps only — cheap, no matrix is built. *)
let source_of_text text =
  match tokens text with
  | "file" :: path :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "ordering"; "amalgamation" ];
      let ordering, amalgamation = pipeline_args pairs in
      File { path; ordering; amalgamation }
  | "gen" :: kind :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "size"; "seed"; "ordering"; "amalgamation" ];
      let size = int_of ~what:"size" (lookup ~default:"20" pairs "size") in
      let seed = int_of ~what:"seed" (lookup ~default:"42" pairs "seed") in
      let ordering, amalgamation = pipeline_args pairs in
      let g =
        match List.assoc_opt kind gen_kinds with
        | Some g -> g
        | None -> bad "unknown matrix kind %S" kind
      in
      if size < 1 then bad "size must be >= 1, got %d" size;
      let dim, nnz = g.shape size in
      check_shape ~what:(Printf.sprintf "gen %s size=%d" kind size) ~dim ~nnz;
      Gen { kind; size; seed; ordering; amalgamation }
  | "tree" :: rest ->
      let text = String.trim (String.concat " " rest) in
      let n = String.length text in
      Literal
        (if n >= 2 && text.[0] = '"' && text.[n - 1] = '"' then String.sub text 1 (n - 2)
         else text)
  | kw :: _ -> bad "unknown source %S (expected file, gen or tree)" kw
  | [] -> bad "empty source"

(* The materialization of a matrix source: build the matrix, then the
   assembly tree, polling [cancel] before and throughout. *)
let pipeline ~cancel ~ordering ~amalgamation label matrix () =
  Tt_util.Cancel.check cancel;
  let m = matrix () in
  (label, (Pipeline.assembly_tree ~cancel ~ordering ~amalgamation m).Tt_etree.Assembly.tree)

(* A bounded read of a regular file: FIFOs and devices could block or
   never end, so they are refused before opening. *)
let read_source_file path =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) ->
      bad "cannot read %s: %s" path (Unix.error_message e)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
      if st_size > max_file_bytes then
        bad "file %s: %d bytes exceed the cap of %d" path st_size max_file_bytes;
      (match In_channel.with_open_bin path In_channel.input_all with
      | content -> content
      | exception Sys_error e -> bad "cannot read %s: %s" path e)
  | _ -> bad "cannot read %s: not a regular file" path

let matrix_of_file path content =
  match S.Matrix_market.parse_string content with
  | exception S.Matrix_market.Parse_error { line; message } ->
      bad "%s: line %d: %s" path line message
  | header, t ->
      check_shape ~what:path
        ~dim:(max header.S.Matrix_market.nrows header.S.Matrix_market.ncols)
        ~nnz:(S.Triplet.nnz t);
      S.Csr.of_triplet t

(* [(cache key, materialize)] of a source. The key is canonical — every
   default filled in, a file named by its content digest — so two
   spellings of one source share a {!Source_cache} entry, and a
   rewritten file gets a new one. Reading a [file] happens here (its
   digest is part of the key); the matrix pipeline runs only in
   [materialize]. *)
let plan ~cancel = function
  | Gen { kind; size; seed; ordering; amalgamation } ->
      ( Printf.sprintf "gen %s size=%d seed=%d ordering=%s amalgamation=%d" kind size
          seed (Pipeline.ordering_name ordering) amalgamation,
        pipeline ~cancel ~ordering ~amalgamation
          (Printf.sprintf "%s-%d" kind size)
          (fun () -> (List.assoc kind gen_kinds).build (Tt_util.Rng.create seed) size) )
  | File { path; ordering; amalgamation } ->
      let content = read_source_file path in
      ( Printf.sprintf "file %s md5=%s ordering=%s amalgamation=%d" path
          (Digest.to_hex (Digest.string content))
          (Pipeline.ordering_name ordering) amalgamation,
        pipeline ~cancel ~ordering ~amalgamation
          (Filename.remove_extension (Filename.basename path))
          (fun () -> matrix_of_file path content) )
  | Literal text ->
      ( "tree " ^ text,
        fun () ->
          let tree =
            try Tt_core.Tree.of_string text
            with Invalid_argument e -> bad "bad tree literal: %s" e
          in
          ("tree-" ^ String.sub (Job.tree_digest tree) 0 8, tree) )

(* Returns [(short_label, tree)]. *)
let materialize ?sources ~cancel source =
  let key, make = plan ~cancel source in
  match sources with
  | None -> make ()
  | Some cache -> Source_cache.find_or_add cache ~key make

(* ---------------------------------------------------------------- jobs *)

let policy_of = function
  | "lsnf" -> Tt_core.Minio.Lsnf
  | "first-fit" -> Tt_core.Minio.First_fit
  | "best-fit" -> Tt_core.Minio.Best_fit
  | "first-fill" -> Tt_core.Minio.First_fill
  | "best-fill" -> Tt_core.Minio.Best_fill
  | s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> Tt_core.Minio.Best_k k
      | _ -> bad "unknown policy %S" s)

let budget_of s =
  let n = String.length s in
  if n > 1 && s.[n - 1] = '%' then
    Job.Fraction (float_of ~what:"budget" (String.sub s 0 (n - 1)) /. 100.)
  else Job.Words (int_of ~what:"budget" s)

let parse_job_spec text =
  match tokens text with
  | [ "minmem" ] -> Job.Min_memory Job.Minmem
  | [ "liu" ] -> Job.Min_memory Job.Liu
  | [ "postorder" ] -> Job.Min_memory Job.Postorder
  | "minio" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "policy"; "budget" ];
      Job.Min_io
        { policy = policy_of (lookup ~default:"first-fit" pairs "policy");
          budget = budget_of (lookup ~default:"50%" pairs "budget")
        }
  | "schedule" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "procs"; "mem" ];
      Job.Schedule
        { procs = int_of ~what:"procs" (lookup pairs "procs");
          mem_factor = float_of ~what:"mem" (lookup ~default:"1.5" pairs "mem")
        }
  | "par-schedule" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "algo"; "procs"; "mem" ];
      let algo =
        let name = lookup ~default:"booking" pairs "algo" in
        match Job.par_algo_of_string name with
        | Some a -> a
        | None -> bad "unknown algo %S (expected greedy, booking or split)" name
      in
      Job.Par_schedule
        { algo;
          procs = int_of ~what:"procs" (lookup pairs "procs");
          mem_factor = float_of ~what:"mem" (lookup ~default:"1.5" pairs "mem")
        }
  | "pareto" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "procs"; "steps" ];
      Job.Pareto_sweep
        { procs = int_of ~what:"procs" (lookup pairs "procs");
          steps = int_of ~what:"steps" (lookup ~default:"8" pairs "steps")
        }
  | "minmem-approx" :: rest ->
      let pairs = kv_pairs rest in
      check_keys pairs [ "cap"; "tol" ];
      let seg_cap = int_of ~what:"cap" (lookup ~default:"8" pairs "cap") in
      if seg_cap < 2 then bad "cap must be >= 2, got %d" seg_cap;
      let tol = float_of ~what:"tol" (lookup ~default:"0.01" pairs "tol") in
      if tol < 0. then bad "tol must be >= 0, got %g" tol;
      Job.Approx_memory { seg_cap; tol }
  | kw :: _ ->
      bad
        "unknown job %S (expected minmem, liu, postorder, minio, schedule, \
         par-schedule, pareto or minmem-approx)"
        kw
  | [] -> bad "empty job spec"

(* ---------------------------------------------------------------- lines *)

let split_on_sep ~sep line =
  (* split on the first occurrence of [sep] *)
  let n = String.length line and m = String.length sep in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub line 0 i, String.sub line (i + m) (n - i - m))

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Syntax first (source, then jobs), so a malformed line never pays
   for materializing its source. *)
let parse_line ?sources ~cancel line =
  match split_on_sep ~sep:"::" line with
  | None -> bad "expected '<source> :: <job> [; <job>]*'"
  | Some (source, jobs) ->
      let source = source_of_text source in
      let specs =
        String.split_on_char ';' jobs
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map parse_job_spec
      in
      if specs = [] then bad "no jobs after '::'";
      let name, tree = materialize ?sources ~cancel source in
      List.map
        (fun spec ->
          Job.make ~label:(name ^ " " ^ Job.spec_to_string spec) tree spec)
        specs

(* All malformed lines are reported at once — fixing a manifest should
   take one round trip, not one per bad line. *)
let parse ?sources ?(cancel = Tt_util.Cancel.never) text =
  let lines = String.split_on_char '\n' text in
  let rec go acc errs lineno = function
    | [] -> (
        match List.rev errs with
        | [] -> Ok (List.concat (List.rev acc))
        | errs -> Error (String.concat "\n" errs))
    | line :: rest -> (
        let line = String.trim (strip_comment line) in
        if line = "" then go acc errs (lineno + 1) rest
        else
          let error msg =
            go acc (Printf.sprintf "line %d: %s" lineno msg :: errs) (lineno + 1) rest
          in
          match parse_line ?sources ~cancel line with
          | jobs -> go (jobs :: acc) errs (lineno + 1) rest
          | exception Bad msg -> error msg
          | exception (Tt_util.Cancel.Cancelled as e) -> raise e
          | exception e ->
              (* A pipeline stage rejecting its input: still the line's
                 error, never the caller's exception. *)
              error (Printexc.to_string e))
  in
  go [] [] 1 lines

let route_key ?sources ?cancel entry =
  match parse ?sources ?cancel entry with
  | Error e -> Error e
  | Ok [] -> Error "entry resolves to no jobs"
  | Ok (job :: _) -> Ok (Job.id job)

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> parse (In_channel.input_all ic))
