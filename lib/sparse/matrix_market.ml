type format = Coordinate | Array_format
type field = Real | Integer | Complex | Pattern
type symmetry = General | Symmetric | Skew_symmetric | Hermitian

type header = {
  format : format;
  field : field;
  symmetry : symmetry;
  nrows : int;
  ncols : int;
  nnz : int;
}

exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

let split_ws s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun x -> x <> "")

let parse_header lineno line =
  match split_ws (String.lowercase_ascii line) with
  | banner :: "matrix" :: fmt :: fld :: sym :: [] ->
      if banner <> "%%matrixmarket" then fail lineno "missing %%MatrixMarket banner";
      let format =
        match fmt with
        | "coordinate" -> Coordinate
        | "array" -> Array_format
        | other -> fail lineno ("unknown format: " ^ other)
      in
      let field =
        match fld with
        | "real" -> Real
        | "integer" -> Integer
        | "complex" -> Complex
        | "pattern" -> Pattern
        | other -> fail lineno ("unknown field: " ^ other)
      in
      let symmetry =
        match sym with
        | "general" -> General
        | "symmetric" -> Symmetric
        | "skew-symmetric" -> Skew_symmetric
        | "hermitian" -> Hermitian
        | other -> fail lineno ("unknown symmetry: " ^ other)
      in
      (format, field, symmetry)
  | _ -> fail lineno "malformed banner line"

let int_of lineno s =
  match int_of_string_opt s with
  | Some v -> v
  | None ->
      (* Distinguish overflow from garbage: "99999999999999999999" is
         all digits yet unrepresentable, and deserves a precise message. *)
      let digits =
        let body =
          if String.length s > 0 && (s.[0] = '-' || s.[0] = '+') then
            String.sub s 1 (String.length s - 1)
          else s
        in
        body <> "" && String.for_all (fun c -> c >= '0' && c <= '9') body
      in
      if digits then fail lineno ("integer overflows: " ^ s)
      else fail lineno ("not an integer: " ^ s)

let float_of lineno s =
  match float_of_string_opt s with
  | None -> fail lineno ("not a number: " ^ s)
  | Some v ->
      if Float.is_finite v then v
      else fail lineno ("non-finite value: " ^ s)

(* Number of numeric tokens per data line after the indices. *)
let value_arity = function Pattern -> 0 | Real | Integer -> 1 | Complex -> 2

let symmetry_name = function
  | General -> "general"
  | Symmetric -> "symmetric"
  | Skew_symmetric -> "skew-symmetric"
  | Hermitian -> "hermitian"

let parse_string ?(expand_symmetry = true) text =
  let lines = String.split_on_char '\n' text in
  let lines = Array.of_list lines in
  let n_lines = Array.length lines in
  let pos = ref 0 in
  let next_content () =
    (* skip comments (after the banner) and blank lines *)
    let rec go () =
      if !pos >= n_lines then None
      else begin
        let l = String.trim lines.(!pos) in
        incr pos;
        if l = "" || (String.length l > 0 && l.[0] = '%') then go ()
        else Some (!pos, l)
      end
    in
    go ()
  in
  if n_lines = 0 then fail 1 "empty input";
  let banner_line = String.trim lines.(0) in
  pos := 1;
  let format, field, symmetry = parse_header 1 banner_line in
  let size =
    match next_content () with
    | None -> fail n_lines "missing size line"
    | Some (ln, l) -> (ln, split_ws l)
  in
  let size_ln = fst size in
  let nrows, ncols, stated_nnz =
    match (format, size) with
    | Coordinate, (ln, [ r; c; z ]) -> (int_of ln r, int_of ln c, int_of ln z)
    | Array_format, (ln, [ r; c ]) ->
        let r = int_of ln r and c = int_of ln c in
        (r, c, r * c)
    | _, (ln, _) -> fail ln "malformed size line"
  in
  if nrows <= 0 || ncols <= 0 then
    fail size_ln
      (Printf.sprintf "non-positive dimensions: %d x %d" nrows ncols);
  if stated_nnz < 0 then
    fail size_ln (Printf.sprintf "negative entry count: %d" stated_nnz);
  (* mirrored storage of a non-square shape would place entries outside
     it (and an array listing of it could loop over empty columns) *)
  if symmetry <> General && nrows <> ncols then
    fail size_ln
      (Printf.sprintf "%s storage of a non-square %d x %d matrix"
         (symmetry_name symmetry) nrows ncols);
  let header = { format; field; symmetry; nrows; ncols; nnz = stated_nnz } in
  let t = Triplet.create ~nrows ~ncols in
  let mirror i j v =
    if expand_symmetry && i <> j then
      match symmetry with
      | General -> ()
      | Symmetric | Hermitian -> Triplet.add t j i v
      | Skew_symmetric -> Triplet.add t j i (-.v)
  in
  (match format with
  | Coordinate ->
      let arity = value_arity field in
      for _ = 1 to stated_nnz do
        match next_content () with
        | None -> fail n_lines "unexpected end of file in entry list"
        | Some (ln, l) -> begin
            match split_ws l with
            | i :: j :: rest when List.length rest = arity ->
                let i = int_of ln i - 1 and j = int_of ln j - 1 in
                if i < 0 || i >= nrows || j < 0 || j >= ncols then
                  fail ln
                    (Printf.sprintf
                       "entry (%d, %d) outside the declared %d x %d shape \
                        (indices are 1-based)"
                       (i + 1) (j + 1) nrows ncols);
                let v =
                  match (field, rest) with
                  | Pattern, [] -> 1.
                  | (Real | Integer), [ x ] -> float_of ln x
                  | Complex, [ re; _im ] -> float_of ln re
                  | _ -> fail ln "wrong number of values"
                in
                Triplet.add t i j v;
                mirror i j v
            | _ -> fail ln "malformed entry line"
          end
      done
  | Array_format ->
      if field = Pattern then fail 1 "array format cannot be pattern";
      let arity = value_arity field in
      (* column-major dense listing; symmetric and hermitian files list
         the lower triangle of each column only, skew-symmetric files the
         strictly lower one (their diagonal is zero) *)
      let start_row j =
        match symmetry with
        | General -> 0
        | Symmetric | Hermitian -> j
        | Skew_symmetric -> j + 1
      in
      for j = 0 to ncols - 1 do
        for i = start_row j to nrows - 1 do
          match next_content () with
          | None -> fail n_lines "unexpected end of file in array data"
          | Some (ln, l) -> begin
              match split_ws l with
              | vals when List.length vals = arity ->
                  let v =
                    match (field, vals) with
                    | (Real | Integer), [ x ] -> float_of ln x
                    | Complex, [ re; _im ] -> float_of ln re
                    | _ -> fail ln "wrong number of values"
                  in
                  if v <> 0. then begin
                    Triplet.add t i j v;
                    mirror i j v
                  end
              | _ -> fail ln "malformed array value line"
            end
        done
      done);
  (header, t)

let read_file ?expand_symmetry path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse_string ?expand_symmetry content

let field_name = function
  | Real -> "real"
  | Integer -> "integer"
  | Complex -> "complex"
  | Pattern -> "pattern"

let to_string ?(field = Real) ?(symmetry = General) (a : Csr.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%%%%MatrixMarket matrix coordinate %s %s\n" (field_name field)
       (symmetry_name symmetry));
  let emit = Tt_util.Dynarray_compat.create () in
  for i = 0 to a.Csr.nrows - 1 do
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      let j = a.Csr.col_idx.(k) in
      let keep = match symmetry with General -> true | _ -> j <= i in
      if keep then
        Tt_util.Dynarray_compat.add_last emit (i, j, a.Csr.values.(k))
    done
  done;
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d\n" a.Csr.nrows a.Csr.ncols
       (Tt_util.Dynarray_compat.length emit));
  Tt_util.Dynarray_compat.iter
    (fun (i, j, v) ->
      match field with
      | Pattern -> Buffer.add_string buf (Printf.sprintf "%d %d\n" (i + 1) (j + 1))
      | Integer ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %d\n" (i + 1) (j + 1) (int_of_float v))
      | Real ->
          Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" (i + 1) (j + 1) v)
      | Complex ->
          Buffer.add_string buf (Printf.sprintf "%d %d %.17g 0\n" (i + 1) (j + 1) v))
    emit;
  Buffer.contents buf

let write_file ?field ?symmetry path a =
  let oc = open_out path in
  output_string oc (to_string ?field ?symmetry a);
  close_out oc
