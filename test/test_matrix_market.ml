(* Tests for the hand-written Matrix Market parser and writer. *)

module MM = Tt_sparse.Matrix_market
module S = Tt_sparse
module H = Helpers

let parse ?expand_symmetry s = MM.parse_string ?expand_symmetry s

let test_coordinate_real_general () =
  let text =
    "%%MatrixMarket matrix coordinate real general\n\
     % a comment\n\
     \n\
     3 3 4\n\
     1 1 2.0\n\
     2 1 -1.5\n\
     3 3 4\n\
     1 3 1e-2\n"
  in
  let header, t = parse text in
  Alcotest.(check int) "nrows" 3 header.MM.nrows;
  Alcotest.(check int) "nnz" 4 header.MM.nnz;
  Alcotest.(check bool) "format" true (header.MM.format = MM.Coordinate);
  let a = S.Csr.of_triplet t in
  Alcotest.(check (float 1e-12)) "entry" (-1.5) (S.Csr.get a 1 0);
  Alcotest.(check (float 1e-12)) "scientific" 0.01 (S.Csr.get a 0 2)

let test_coordinate_pattern () =
  let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n" in
  let header, t = parse text in
  Alcotest.(check bool) "field" true (header.MM.field = MM.Pattern);
  let a = S.Csr.of_triplet t in
  Alcotest.(check (float 0.)) "pattern value" 1. (S.Csr.get a 0 1)

let test_coordinate_symmetric_expansion () =
  let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 5\n2 1 2\n3 2 7\n" in
  let _, t = parse text in
  let a = S.Csr.of_triplet t in
  Alcotest.(check int) "expanded nnz" 5 (S.Csr.nnz a);
  Alcotest.(check (float 0.)) "mirrored" 2. (S.Csr.get a 0 1);
  Alcotest.(check bool) "is symmetric" true (S.Csr.is_symmetric a);
  (* without expansion: only the stored triangle *)
  let _, raw = parse ~expand_symmetry:false text in
  Alcotest.(check int) "raw nnz" 3 (S.Triplet.nnz raw)

let test_skew_expansion () =
  let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n" in
  let _, t = parse text in
  let a = S.Csr.of_triplet t in
  Alcotest.(check (float 0.)) "lower" 3. (S.Csr.get a 1 0);
  Alcotest.(check (float 0.)) "negated mirror" (-3.) (S.Csr.get a 0 1)

let test_complex_real_part () =
  let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.5 -1\n" in
  let _, t = parse text in
  let a = S.Csr.of_triplet t in
  Alcotest.(check (float 0.)) "real part" 2.5 (S.Csr.get a 0 0)

let test_integer_field () =
  let text = "%%MatrixMarket matrix coordinate integer general\n1 2 1\n1 2 7\n" in
  let _, t = parse text in
  Alcotest.(check (float 0.)) "integer" 7. (S.Csr.get (S.Csr.of_triplet t) 0 1)

let test_array_format () =
  let text = "%%MatrixMarket matrix array real general\n2 2\n1\n0\n3\n4\n" in
  let header, t = parse text in
  Alcotest.(check bool) "format" true (header.MM.format = MM.Array_format);
  let a = S.Csr.of_triplet t in
  (* column-major listing; zero dropped *)
  Alcotest.(check int) "nnz" 3 (S.Csr.nnz a);
  Alcotest.(check (float 0.)) "a(0,0)" 1. (S.Csr.get a 0 0);
  Alcotest.(check (float 0.)) "a(0,1)" 3. (S.Csr.get a 0 1);
  Alcotest.(check (float 0.)) "a(1,1)" 4. (S.Csr.get a 1 1)

let test_array_symmetric () =
  (* lower triangle per column: col 1 = (1,1),(2,1); col 2 = (2,2) *)
  let text = "%%MatrixMarket matrix array real symmetric\n2 2\n5\n2\n6\n" in
  let _, t = parse text in
  let a = S.Csr.of_triplet t in
  Alcotest.(check (float 0.)) "diag" 5. (S.Csr.get a 0 0);
  Alcotest.(check (float 0.)) "mirror" 2. (S.Csr.get a 0 1);
  Alcotest.(check (float 0.)) "lower" 2. (S.Csr.get a 1 0);
  Alcotest.(check (float 0.)) "second diag" 6. (S.Csr.get a 1 1)

let test_array_skew () =
  (* strictly lower triangle per column, no diagonal: col 1 = (2,1),(3,1);
     col 2 = (3,2); col 3 stores nothing *)
  let text = "%%MatrixMarket matrix array real skew-symmetric\n3 3\n1\n2\n3\n" in
  let _, t = parse text in
  let a = S.Csr.of_triplet t in
  Alcotest.(check int) "nnz" 6 (S.Csr.nnz a);
  Alcotest.(check (float 0.)) "a(1,0)" 1. (S.Csr.get a 1 0);
  Alcotest.(check (float 0.)) "a(2,0)" 2. (S.Csr.get a 2 0);
  Alcotest.(check (float 0.)) "a(2,1)" 3. (S.Csr.get a 2 1);
  Alcotest.(check (float 0.)) "a(0,2)" (-2.) (S.Csr.get a 0 2);
  Alcotest.(check (float 0.)) "a(1,2)" (-3.) (S.Csr.get a 1 2);
  Alcotest.(check (float 0.)) "zero diagonal" 0. (S.Csr.get a 1 1)

let expect_error ~line text =
  match parse text with
  | exception MM.Parse_error { line = l; _ } ->
      Alcotest.(check int) "error line" line l
  | _ -> Alcotest.failf "accepted %S" text

let test_errors () =
  expect_error ~line:1 "%%NotMM matrix coordinate real general\n1 1 1\n1 1 1\n";
  expect_error ~line:1 "%%MatrixMarket matrix funny real general\n1 1 1\n1 1 1\n";
  expect_error ~line:1 "%%MatrixMarket matrix coordinate real sometimes\n1 1 0\n";
  expect_error ~line:2 "%%MatrixMarket matrix coordinate real general\nnot a size\n";
  expect_error ~line:3 "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n";
  expect_error ~line:3 "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
  expect_error ~line:3 "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n";
  (* truncated entry list: reported at the (empty) final line *)
  expect_error ~line:4 "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"

let expect_message ~line ~fragment text =
  match parse text with
  | exception MM.Parse_error { line = l; message } ->
      Alcotest.(check int) "error line" line l;
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" message fragment)
        true (H.contains message fragment)
  | _ -> Alcotest.failf "accepted %S" text

let test_hardened_rejections () =
  let banner = "%%MatrixMarket matrix coordinate real general\n" in
  (* non-finite values would silently poison every downstream weight *)
  expect_message ~line:3 ~fragment:"non-finite" (banner ^ "1 1 1\n1 1 nan\n");
  expect_message ~line:3 ~fragment:"non-finite" (banner ^ "1 1 1\n1 1 inf\n");
  expect_message ~line:3 ~fragment:"non-finite" (banner ^ "1 1 1\n1 1 -infinity\n");
  (* dimensions must be positive, the entry count non-negative *)
  expect_message ~line:2 ~fragment:"non-positive" (banner ^ "0 3 0\n");
  expect_message ~line:2 ~fragment:"non-positive" (banner ^ "3 0 0\n");
  expect_message ~line:2 ~fragment:"non-positive" (banner ^ "-2 3 1\n1 1 1\n");
  expect_message ~line:2 ~fragment:"negative entry count" (banner ^ "2 2 -1\n");
  (* mirrored storage needs a square shape: the mirror of (2,1) in a
     2 x 1 matrix is outside it *)
  expect_message ~line:2 ~fragment:"non-square"
    "%%MatrixMarket matrix coordinate real symmetric\n2 1 1\n2 1 1.0\n";
  expect_message ~line:2 ~fragment:"non-square"
    "%%MatrixMarket matrix array real skew-symmetric\n3 1\n1\n2\n";
  (* 1-based indices outside the declared shape, including zero *)
  expect_message ~line:3 ~fragment:"outside" (banner ^ "2 2 1\n0 1 1.0\n");
  expect_message ~line:3 ~fragment:"outside" (banner ^ "2 2 1\n1 3 1.0\n");
  (* unrepresentable integers are overflow, not garbage *)
  expect_message ~line:2 ~fragment:"overflows"
    (banner ^ "99999999999999999999 1 1\n1 1 1\n");
  expect_message ~line:3 ~fragment:"overflows"
    (banner ^ "2 2 1\n1 99999999999999999999 1.0\n");
  expect_message ~line:3 ~fragment:"not an integer" (banner ^ "2 2 1\nx 1 1.0\n")

let test_write_read_round_trip () =
  let a = S.Spgen.grid2d 6 in
  let text = MM.to_string a in
  let header, t = parse text in
  Alcotest.(check bool) "general" true (header.MM.symmetry = MM.General);
  let b = S.Csr.of_triplet t in
  Alcotest.(check bool) "pattern" true (S.Csr.equal_pattern a b);
  Alcotest.(check bool) "values" true (a.S.Csr.values = b.S.Csr.values)

let test_write_symmetric_round_trip () =
  let a = S.Spgen.grid2d_9pt 5 in
  let text = MM.to_string ~symmetry:MM.Symmetric a in
  let _, t = parse text in
  let b = S.Csr.of_triplet t in
  Alcotest.(check bool) "pattern restored via expansion" true (S.Csr.equal_pattern a b)

let test_write_file_round_trip () =
  let a = S.Spgen.tridiagonal 10 in
  let path = Filename.temp_file "tt_mm" ".mtx" in
  MM.write_file path a;
  let _, t = MM.read_file path in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true
    (S.Csr.equal_pattern a (S.Csr.of_triplet t))

let prop_round_trip =
  H.qcheck ~count:100 "write -> parse round trip on random matrices"
    (QCheck.map
       (fun seed ->
         let rng = Tt_util.Rng.create seed in
         S.Spgen.random_sym ~rng ~n:(Tt_util.Rng.int_incl rng 1 20) ~nnz_per_row:2.0)
       QCheck.(int_bound 1_000_000))
    (fun a ->
      let _, t = parse (MM.to_string a) in
      let b = S.Csr.of_triplet t in
      S.Csr.equal_pattern a b
      && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-12) a.S.Csr.values
           b.S.Csr.values)

let () =
  H.run "matrix_market"
    [ ( "parsing",
        [ H.case "coordinate real" test_coordinate_real_general;
          H.case "pattern" test_coordinate_pattern;
          H.case "symmetric expansion" test_coordinate_symmetric_expansion;
          H.case "skew expansion" test_skew_expansion;
          H.case "complex" test_complex_real_part;
          H.case "integer" test_integer_field;
          H.case "array" test_array_format;
          H.case "array symmetric" test_array_symmetric;
          H.case "array skew-symmetric" test_array_skew
        ] );
      ( "errors",
        [ H.case "malformed inputs" test_errors;
          H.case "hardened rejections" test_hardened_rejections
        ] );
      ( "round trips",
        [ H.case "general" test_write_read_round_trip;
          H.case "symmetric" test_write_symmetric_round_trip;
          H.case "file" test_write_file_round_trip;
          prop_round_trip
        ] )
    ]
