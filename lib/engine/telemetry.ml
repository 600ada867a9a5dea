module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then
          (* %.17g round-trips but is noisy; %g loses precision on
             timings. 12 significant digits keeps microseconds exact. *)
          Buffer.add_string buf (Printf.sprintf "%.12g" f)
        else Buffer.add_string buf "null"
    | String s -> escape buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            write buf v)
          l;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            write buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 128 in
    write buf v;
    Buffer.contents buf

  (* Recursive-descent parser for the subset this module emits (which is
     all the journal ever needs to read back). *)
  exception Bad_json of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let m = String.length word in
      if !pos + m <= n && String.sub s !pos m = word then begin
        pos := !pos + m;
        v
      end
      else fail ("expected " ^ word)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let digits = String.sub s !pos 4 in
      (* strict: [int_of_string] alone would raise on non-hex input and
         accept '_' separators *)
      if
        not
          (String.for_all
             (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
             digits)
      then fail "bad \\u escape";
      let v = int_of_string ("0x" ^ digits) in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "truncated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; incr pos
               | '\\' -> Buffer.add_char buf '\\'; incr pos
               | '/' -> Buffer.add_char buf '/'; incr pos
               | 'n' -> Buffer.add_char buf '\n'; incr pos
               | 'r' -> Buffer.add_char buf '\r'; incr pos
               | 't' -> Buffer.add_char buf '\t'; incr pos
               | 'b' -> Buffer.add_char buf '\b'; incr pos
               | 'f' -> Buffer.add_char buf '\012'; incr pos
               | 'u' ->
                   incr pos;
                   let v = hex4 () in
                   (* the emitter only writes \u for control chars; wider
                      code points degrade to '?' rather than UTF-8 *)
                   Buffer.add_char buf (if v < 256 then Char.chr v else '?')
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c -> Buffer.add_char buf c; incr pos; go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do incr pos done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail ("bad number " ^ tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin incr pos; List [] end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while peek () = Some ',' do
              incr pos;
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            List (Stdlib.List.rev !items)
          end
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin incr pos; Obj [] end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let fields = ref [ field () ] in
            skip_ws ();
            while peek () = Some ',' do
              incr pos;
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Obj (Stdlib.List.rev !fields)
          end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad_json msg -> Error msg

  let member key = function
    | Obj fields -> Stdlib.List.assoc_opt key fields
    | _ -> None
end

type t = {
  oc : out_channel;
  owned : bool;  (* whether [close] should close [oc] *)
  mu : Mutex.t;
  mutable closed : bool;
}

let of_channel ~owned oc = { oc; owned; mu = Mutex.create (); closed = false }
let to_file path = of_channel ~owned:true (open_out path)

let append_file path =
  of_channel ~owned:true (open_out_gen [ Open_append; Open_creat ] 0o644 path)

let to_channel oc = of_channel ~owned:false oc

let emit t ~event fields =
  let line =
    Json.to_string
      (Json.Obj
         (("event", Json.String event)
         :: ("ts", Json.Float (Unix.gettimeofday ()))
         :: fields))
  in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if not t.closed then begin
        output_string t.oc line;
        output_char t.oc '\n';
        flush t.oc
      end)

let close t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        if t.owned then close_out t.oc else flush t.oc
      end)

let with_file path f =
  let t = to_file path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
