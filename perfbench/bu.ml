(* Shared pieces of the benchmark: clock, calibration op, percentiles with
   a sample guard, stratified seeded draws, process memory. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------ calibration *)

(* The calibration op: heap-sort a fixed 1 MiB int array in place. It
   allocates nothing, depends on no code of the program, and its random
   access pattern over a working set half the size of one core's L2 makes
   it slow down under cache contention much as the workloads do. Every
   time-valued metric is divided by the run's median calibration time and
   multiplied by [calib_ref_ms], the median measured on the reference
   machine. *)
let calib_len = 1 lsl 17

let calib_ref_ms = 30.0

let calib_src =
  let a = Array.make calib_len 0 in
  let x = ref 0x2545F491 in
  for i = 0 to calib_len - 1 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    a.(i) <- !x
  done;
  a

let calib_work = Array.make calib_len 0

(* Top-level, so that sorting allocates no closure. *)
let rec sift (a : int array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    let ai = a.(i) and ac = a.(c) in
    if ac > ai then begin
      a.(i) <- ac;
      a.(c) <- ai;
      sift a c n
    end
  end

let heapsort (a : int array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for e = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(e);
    a.(e) <- t;
    sift a 0 e
  done

(* One calibration op; returns its wall time in seconds. *)
let calib_op () =
  let t0 = now () in
  Array.blit calib_src 0 calib_work 0 calib_len;
  heapsort calib_work;
  let dt = now () -. t0 in
  if calib_work.(0) > calib_work.(calib_len - 1) then failwith "calibration sort is broken";
  dt

(* Interval between calibration ops inside a timed phase: one ~30 ms op
   every 0.4 s keeps its share near 7 %. *)
let calib_every_s = 0.4

(* ------------------------------------------------------------- statistics *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* Nearest-rank percentile, refused (None) unless at least ten samples lie
   beyond it. *)
let percentile a q =
  let n = Array.length a in
  let beyond = Float.of_int n *. (1. -. q) in
  if n = 0 || beyond < 10. then None
  else
    let s = sorted a in
    let k = int_of_float (Float.ceil (q *. Float.of_int n)) - 1 in
    Some s.(max 0 (min (n - 1) k))

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. Float.of_int n

(* ---------------------------------------------------------- seeded draws *)

(* An endless stream of indices in [0, n) built from rounds: each round
   is a fresh seeded permutation of all of them, so any prefix of the
   stream holds every index in nearly equal shares and the mix does not
   drift with the seed. *)
let rounds rng n =
  let cur = Array.init n Fun.id in
  let pos = ref n in
  fun () ->
    if !pos >= n then begin
      Tt_util.Rng.shuffle rng cur;
      pos := 0
    end;
    let x = cur.(!pos) in
    incr pos;
    x

(* The integer at quantile [u] of a log-uniform law on [lo, hi]. *)
let log_quantile lo hi u =
  let l = log (Float.of_int lo) and h = log (Float.of_int (hi + 1)) in
  max lo (min hi (int_of_float (exp (l +. (u *. (h -. l))))))

(* Quantiles for the successive draws of one stratum: a golden-ratio
   sequence from a seeded start, so that every prefix of the draws covers
   [0, 1) evenly and the mix of sizes, unlike the sizes themselves, does
   not change with the seed. *)
let even_quantiles rng =
  let u = ref (Tt_util.Rng.float rng 1.) in
  fun () ->
    let x = !u in
    u := Float.rem (!u +. 0.6180339887498949) 1.;
    x

(* ---------------------------------------------------------------- process *)

(* VmHWM of this process, in MiB. *)
let peak_mem_mb () =
  let ic = open_in "/proc/self/status" in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> nan
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> Float.of_int kb /. 1024.)
        else loop ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop
