(* The huge-tree tier: the flat [Tree.t] layout must validate and
   round-trip, its kernels must match the reference transcriptions of
   [Parity_ref] bit for bit, the certified Minmem_approx bounds must
   really sandwich the exact optimum (gap 0 wherever the exact answer is
   affordable), the segment truncations must preserve the canonical
   invariants, and the streaming generators must be deterministic across
   runs and domain counts. *)

module T = Tt_core.Tree
module Ma = Tt_core.Minmem_approx
module Seg = Tt_core.Segments
module Traversal = Tt_core.Traversal
module Liu = Tt_core.Liu_exact
module Huge = Tt_workloads.Huge
module H = Helpers
open Parity_ref

(* --- construction ---------------------------------------------------------- *)

(* of_arrays takes its arrays over, so feed it copies *)
let of_copies t =
  T.of_arrays ~parent:(Array.copy t.T.parent) ~f:(Array.copy t.T.f)
    ~n:(Array.copy t.T.n)

let test_roundtrip () =
  List.iter
    (fun (name, tree) ->
      let p = T.size tree in
      let rebuilt = of_copies tree in
      Alcotest.(check bool) (name ^ " of_arrays roundtrip") true (T.equal tree rebuilt);
      Alcotest.(check string) (name ^ " digest") (T.digest tree) (T.digest rebuilt);
      Alcotest.(check bool)
        (name ^ " string roundtrip")
        true
        (T.equal tree (T.of_string (T.to_string tree)));
      (* the CSR slices list exactly the nodes whose parent is i, in
         increasing order *)
      Alcotest.(check int) (name ^ " offsets") (p - 1) tree.T.child_off.(p);
      for i = 0 to p - 1 do
        let expect = List.filter (fun j -> tree.T.parent.(j) = i) (List.init p Fun.id) in
        Alcotest.(check (list int))
          (Printf.sprintf "%s children %d" name i)
          expect
          (Array.to_list (T.children tree i));
        Alcotest.(check int) (Printf.sprintf "%s degree %d" name i)
          (List.length expect) (T.degree tree i)
      done)
    family_instances

let test_of_arrays_validation () =
  let expect msg parent f n =
    Alcotest.check_raises msg (Invalid_argument ("Tree.of_arrays: " ^ msg)) (fun () ->
        ignore (T.of_arrays ~parent ~f ~n))
  in
  expect "empty tree" [||] [||] [||];
  expect "array length mismatch" [| -1 |] [| 1; 2 |] [| 0 |];
  expect "f.(0) < 0" [| -1 |] [| -3 |] [| 0 |];
  expect "several roots" [| -1; -1 |] [| 1; 1 |] [| 0; 0 |];
  expect "no root" [| 1; 0 |] [| 1; 1 |] [| 0; 0 |];
  expect "parent out of range" [| -1; 7 |] [| 1; 1 |] [| 0; 0 |];
  expect "self-loop" [| -1; 1 |] [| 1; 1 |] [| 0; 0 |];
  expect "cycle in parent pointers" [| -1; 2; 3; 1 |] [| 1; 1; 1; 1 |] [| 0; 0; 0; 0 |];
  let t = T.of_arrays ~parent:[| -1; 0; 1 |] ~f:[| 0; 2; 3 |] ~n:[| 1; 0; 2 |] in
  Alcotest.(check int) "valid chain size" 3 (T.size t);
  Alcotest.(check int) "valid chain root" 0 t.T.root

(* --- kernel parity -------------------------------------------------------- *)

let test_kernel_parity_families () =
  List.iter
    (fun (name, tree) ->
      let em, eo = ref_postorder_run tree in
      let gm, go = Tt_core.Postorder_opt.run tree in
      Alcotest.(check int) (name ^ " postorder mem") em gm;
      Alcotest.(check (array int)) (name ^ " postorder order") eo go;
      let lm, lo = Ref_seg.liu_run tree in
      let fm, fo = Liu.run tree in
      Alcotest.(check int) (name ^ " liu mem") lm fm;
      Alcotest.(check (array int)) (name ^ " liu order") lo fo;
      Alcotest.(check int) (name ^ " liu peak") (ref_peak tree fo) (Traversal.peak tree fo))
    family_instances

let prop_kernel_parity_random =
  H.qcheck ~count:300 "flat kernels bit-identical to Tree.t kernels"
    (H.arb_tree ~size_max:60 ())
    (fun tree ->
      ref_postorder_run tree = Tt_core.Postorder_opt.run tree
      && Ref_seg.liu_run tree = Liu.run tree
      && T.equal tree (of_copies tree))

let prop_peak_parity =
  H.qcheck ~count:200 "flat peak simulation matches Traversal.peak"
    (H.arb_tree_with_order ~size_max:40 ())
    (fun (tree, order) -> ref_peak tree order = Traversal.peak tree order)

(* --- segment truncation --------------------------------------------------- *)

(* Liu subtree profiles of random trees are a rich source of canonical
   profiles; truncating them at aggressive caps must preserve the
   canonical invariants, the final valley (the subtree's output size),
   the node coverage, and bracket the original peak from the right
   sides. *)
let prop_truncate_invariants =
  H.qcheck ~count:300 "truncations stay canonical and bracket the peak"
    (QCheck.pair (H.arb_tree ~size_max:40 ()) QCheck.(2 -- 5))
    (fun (tree, cap) ->
      let profiles = Liu.profiles tree in
      Array.for_all
        (fun prof ->
          let tl = Seg.truncate_lower prof ~cap in
          let tu = Seg.truncate_upper prof ~cap in
          Seg.check_canonical tl && Seg.check_canonical tu
          && Seg.length tl <= cap
          && Seg.length tu <= cap
          && Seg.peak tl <= Seg.peak prof
          && Seg.peak tu = Seg.peak prof
          && Seg.final_valley tl = Seg.final_valley prof
          && Seg.final_valley tu = Seg.final_valley prof
          && Seg.nodes tu = Seg.nodes prof
          && List.sort compare (Seg.nodes tl) = List.sort compare (Seg.nodes prof))
        profiles)

let test_truncate_cap_errors () =
  let prof = Seg.singleton ~hill:5 ~valley:2 ~node:0 in
  Alcotest.check_raises "lower cap<2" (Invalid_argument "Segments.truncate: cap < 2")
    (fun () -> ignore (Seg.truncate_lower prof ~cap:1));
  Alcotest.check_raises "upper cap<2" (Invalid_argument "Segments.truncate: cap < 2")
    (fun () -> ignore (Seg.truncate_upper prof ~cap:1))

(* --- certified bounds ----------------------------------------------------- *)

let test_bounds_exact_small () =
  List.iter
    (fun (name, tree) ->
      let b = Ma.run tree in
      let opt = Liu.min_memory tree in
      Alcotest.(check int) (name ^ " lower") opt b.Ma.lower;
      Alcotest.(check int) (name ^ " upper") opt b.Ma.upper;
      Alcotest.(check bool) (name ^ " exact") true b.Ma.exact;
      Alcotest.(check (float 0.)) (name ^ " gap") 0. (Ma.gap b);
      H.check_valid_traversal tree b.Ma.order;
      Alcotest.(check int) (name ^ " order peak") opt (Traversal.peak tree b.Ma.order))
    family_instances

let prop_bounds_exact_small =
  H.qcheck ~count:200 "gap 0 wherever the exact answer is affordable"
    (H.arb_tree ~size_max:50 ())
    (fun tree ->
      let b = Ma.run tree in
      let opt = Liu.min_memory tree in
      b.Ma.lower = opt && b.Ma.upper = opt && b.Ma.exact && Ma.gap b = 0.)

(* force the approximate path with brutal caps: the sandwich must hold
   no matter how hard the profiles are truncated *)
let prop_bounds_sandwich =
  H.qcheck ~count:300 "lower <= Minmem.min_memory <= upper under truncation"
    (QCheck.pair (H.arb_tree ~size_max:45 ()) QCheck.(2 -- 6))
    (fun (tree, cap) ->
      let opt = Liu.min_memory tree in
      let b =
        Ma.run ~exact_threshold:0 ~seg_cap:cap ~tol:0. ~max_rounds:2 tree
      in
      b.Ma.lower <= opt && opt <= b.Ma.upper
      && Traversal.is_valid_order tree b.Ma.order
      && Traversal.peak tree b.Ma.order = b.Ma.upper
      && ((not b.Ma.exact) || b.Ma.lower = b.Ma.upper))

(* with a cap no profile reaches, the relaxation is vacuous: the numeric
   lower-bound pass must reproduce Liu's exact optimum bit for bit —
   this pins the number-only transcription of the segment calculus *)
let prop_lb_exact_when_uncapped =
  H.qcheck ~count:300 "uncapped numeric lower bound equals Liu exactly"
    (H.arb_tree ~size_max:60 ())
    (fun tree ->
      let b =
        Ma.run ~exact_threshold:0 ~seg_cap:1_000_000 ~tol:0. ~max_rounds:0 tree
      in
      b.Ma.lower = Liu.min_memory tree)

(* --- generator determinism ------------------------------------------------ *)

let generators =
  [ ("caterpillar", fun ~domains ~p ~seed -> Huge.caterpillar ~domains ~p ~seed ());
    ("binary", fun ~domains ~p ~seed -> Huge.binary ~domains ~p ~seed ());
    ("random", fun ~domains ~p ~seed -> Huge.random_attach ~domains ~p ~seed ())
  ]

let test_generator_determinism () =
  List.iter
    (fun (name, build) ->
      (* same seed, two runs: identical digests *)
      let a = T.digest (build ~domains:1 ~p:200_000 ~seed:11) in
      let b = T.digest (build ~domains:1 ~p:200_000 ~seed:11) in
      Alcotest.(check string) (name ^ " rerun") a b;
      (* 1 vs N domains: identical instance *)
      let par = T.digest (build ~domains:4 ~p:200_000 ~seed:11) in
      Alcotest.(check string) (name ^ " 1-vs-4 domains") a par;
      (* a different seed changes the instance *)
      let other = T.digest (build ~domains:1 ~p:200_000 ~seed:12) in
      Alcotest.(check bool) (name ^ " seed sensitivity") true (a <> other))
    generators

let test_generator_shapes () =
  List.iter
    (fun (name, build) ->
      let t = build ~domains:2 ~p:50_000 ~seed:3 in
      Alcotest.(check int) (name ^ " size") 50_000 (T.size t);
      (* of_arrays validated the structure; cross-check via Tree.make *)
      let copy = T.make ~parent:t.T.parent ~f:t.T.f ~n:t.T.n in
      Alcotest.(check bool) (name ^ " roundtrip") true (T.equal t copy);
      Alcotest.(check string) (name ^ " digest") (T.digest t) (T.digest copy))
    generators

let test_digest_ints () =
  let a = T.digest_ints (Array.init 100_000 (fun i -> i * 7)) in
  let b = T.digest_ints (Array.init 100_000 (fun i -> i * 7)) in
  Alcotest.(check string) "stable" a b;
  let c = T.digest_ints (Array.init 100_000 (fun i -> i * 7 + (if i = 99_999 then 1 else 0))) in
  Alcotest.(check bool) "last-entry sensitivity" true (a <> c);
  (* chunked chaining must not collide length-prefix boundaries *)
  Alcotest.(check bool) "length sensitivity" true
    (T.digest_ints [| 1; 2 |] <> T.digest_ints [| 1; 2; 0 |])

(* --- stack safety at depth ------------------------------------------------ *)

(* p = 5M deep caterpillar (~1.7M levels): every path (validation climb,
   BFS, counting sort, postorder emission, bounded Liu, peak simulation)
   must run without growing the OCaml stack. This is the smoke test the
   recursive implementations could not survive. *)
let test_deep_caterpillar_5m () =
  let p = 5_000_000 in
  let t = Huge.caterpillar ~p ~seed:5 () in
  Alcotest.(check int) "size" p (T.size t);
  Alcotest.(check bool) "deep" true (T.height t > 1_000_000);
  let b = Ma.run t in
  Alcotest.(check bool) "bounds ordered" true (b.Ma.lower <= b.Ma.upper);
  Alcotest.(check bool) "certified gap within pinned threshold" true
    (Ma.gap b <= 0.05);
  Alcotest.(check int) "upper is the order's simulated peak" b.Ma.upper
    (Traversal.peak t b.Ma.order)

(* Validation climbs from every node to the first validated ancestor.
   With parents above their children, the climb from node 0 walks the
   whole 2M-node chain: it must be a loop, not a recursion or a list. *)
let test_deep_make () =
  let p = 2_000_000 in
  let parent = Array.init p (fun i -> if i = p - 1 then -1 else i + 1) in
  let t = T.make ~parent ~f:(Array.make p 1) ~n:(Array.make p 0) in
  Alcotest.(check int) "root" (p - 1) t.T.root;
  Alcotest.(check int) "height" (p - 1) (T.height t);
  parent.(0) <- 0;
  Alcotest.(check int) "make copied its input" 1 t.T.parent.(0)

(* Deep chains through the two paths the audit rewrote iteratively:
   Tree.pp's preorder walk and Amalgamation's head resolution (a fully
   merged chain makes its compression path O(n) long). Both previously
   recursed once per level and overflowed well below this size. *)
let test_deep_pp () =
  let p = 2_000_000 in
  let parent = Array.init p (fun i -> i - 1) in
  let t = T.make ~parent ~f:(Array.make p 1) ~n:(Array.make p 0) in
  let sink = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  T.pp sink t;
  Format.pp_print_flush sink ()

let test_deep_amalgamation () =
  let n = 2_000_000 in
  (* etree convention: parents have larger indices; strictly decreasing
     col counts towards the root make every merge "perfect", collapsing
     the whole chain into one group *)
  let parent = Array.init n (fun i -> if i = n - 1 then -1 else i + 1) in
  let col_counts = Array.init n (fun i -> n - i) in
  let a = Tt_etree.Amalgamation.run ~parent ~col_counts ~limit:max_int in
  Alcotest.(check int) "one group" 1 (Array.length a.Tt_etree.Amalgamation.groups);
  Alcotest.(check int) "group_of covers every vertex" 0
    (Array.fold_left max 0 a.Tt_etree.Amalgamation.group_of)

let () =
  H.run "flat"
    [ ( "conversion",
        [ H.case "family roundtrips" test_roundtrip;
          H.case "of_arrays validation" test_of_arrays_validation
        ] );
      ( "parity",
        [ H.case "family instances" test_kernel_parity_families;
          prop_kernel_parity_random;
          prop_peak_parity
        ] );
      ( "truncation",
        [ prop_truncate_invariants; H.case "cap errors" test_truncate_cap_errors ] );
      ( "bounds",
        [ H.case "exact on families" test_bounds_exact_small;
          prop_bounds_exact_small;
          prop_bounds_sandwich;
          prop_lb_exact_when_uncapped
        ] );
      ( "generators",
        [ H.case "determinism across runs and domains" test_generator_determinism;
          H.case "shapes validate" test_generator_shapes;
          H.case "digest_ints" test_digest_ints
        ] );
      ( "deep",
        [ H.case "caterpillar p=5M end to end" test_deep_caterpillar_5m;
          H.case "Tree.make on a 2M chain" test_deep_make;
          H.case "pp on a 2M chain" test_deep_pp;
          H.case "amalgamation head on a 2M chain" test_deep_amalgamation
        ] )
    ]
