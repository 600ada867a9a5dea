(* Timed phases and repeated set-up, with the calibration op interleaved
   through both. *)

type t = {
  lat : float array;  (** Raw wall seconds of every attempted op, in order. *)
  failed : int;
  failures : string list;  (** The first few failure messages. *)
  op_wall : float;  (** Phase wall minus check and calibration time. *)
  calib : float array;  (** Raw calibration op times, seconds. *)
  minor_words : float array;  (** Per-op [Gc.quick_stat] deltas, traced phases only. *)
  major_words : float array;
}

let attempted p = Array.length p.lat

(* Run ops [0, 1, ...] for [seconds] of wall. [op i] does the timed work
   and returns the check to run once the clock is stopped; an exception
   or an [Error] from either counts the op as failed. *)
let run ~seconds ~traced (op : int -> unit -> (unit, string) result) =
  let lat = ref [] and cal = ref [] and minor = ref [] and major = ref [] in
  let failed = ref 0 and failures = ref [] in
  let note e =
    incr failed;
    if List.length !failures < 5 then failures := e :: !failures
  in
  let t_start = Bu.now () in
  let deadline = t_start +. seconds in
  let excluded = ref 0. and next_cal = ref t_start and i = ref 0 in
  while Bu.now () < deadline do
    if Bu.now () >= !next_cal then begin
      let c = Bu.calib_op () in
      cal := c :: !cal;
      excluded := !excluded +. c;
      next_cal := Bu.now () +. Bu.calib_every_s
    end;
    let id = !i in
    incr i;
    Trace.enabled := traced;
    let g0 = if traced then Some (Gc.quick_stat ()) else None in
    let t0 = Bu.now () in
    let post =
      try Trace.with_op id (fun () -> Trace.span "op" (fun () -> op id))
      with e -> fun () -> Error (Printexc.to_string e)
    in
    let t1 = Bu.now () in
    (match g0 with
    | Some g0 ->
        let g1 = Gc.quick_stat () in
        minor := (g1.minor_words -. g0.minor_words) :: !minor;
        major := (g1.major_words -. g0.major_words) :: !major
    | None -> ());
    lat := (t1 -. t0) :: !lat;
    (match Trace.with_op id post with
    | Ok () -> ()
    | Error e -> note (Printf.sprintf "op %d: %s" id e)
    | exception e -> note (Printf.sprintf "op %d: %s" id (Printexc.to_string e)));
    Trace.enabled := false;
    excluded := !excluded +. (Bu.now () -. t1)
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    lat = arr !lat;
    failed = !failed;
    failures = List.rev !failures;
    op_wall = Bu.now () -. t_start -. !excluded;
    calib = arr !cal;
    minor_words = arr !minor;
    major_words = arr !major;
  }

(* Run [setup] [reps] times and tear each instance down, except that the
   first is handed to [body] before its teardown: the timed phases and the
   memory reading run after exactly one set-up, and the other set-ups,
   which only feed the set-up time, come after them. Returns [body]'s
   result, the raw set-up times and calibration samples taken around
   each set-up. *)
let with_setups ~reps (setup : unit -> 'a) (teardown : 'a -> unit) (body : 'a -> 'b) =
  let times = ref [] and cal = ref [] in
  let timed () =
    Gc.full_major ();
    cal := Bu.calib_op () :: !cal;
    let t0 = Bu.now () in
    let x = setup () in
    times := (Bu.now () -. t0) :: !times;
    cal := Bu.calib_op () :: !cal;
    x
  in
  let x = timed () in
  let r = body x in
  teardown x;
  for _ = 2 to reps do
    teardown (timed ())
  done;
  (r, Array.of_list (List.rev !times), Array.of_list !cal)
