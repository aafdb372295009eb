(* Minimal deterministic JSON — just enough for the trace sinks and the
   on-disk snapshots, with byte-stable serialization: object fields keep
   their construction order and floats use the shortest decimal that
   round-trips, so a fixed-seed trace file is reproducible byte for
   byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal that reads back to exactly [f]; deterministic for a
   given value, unlike a fixed "%.17g" it avoids noise digits. *)
let float_repr f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  match try_prec 15 with
  | Some s -> s
  | None -> (
    match try_prec 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let escape_into buf s =
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
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* non-finite values are not JSON numbers; encode as strings *)
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else
      escape_into buf
        (if Float.is_nan f then "nan" else if f > 0.0 then "inf" else "-inf")
  | String s -> escape_into buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf key;
        Buffer.add_char buf ':';
        write buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* A small recursive-descent parser, used by the tests to check that
   every emitted trace line is well-formed JSON. *)

exception Bad of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub text !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail ("expected " ^ word)
  in
  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> begin
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub text (!pos + 1) 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with Failure _ -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          utf8_of_code buf code
        | _ -> fail "bad escape");
        advance ();
        go ()
      end
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail ("bad number " ^ s))
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
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (key, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (fields [])
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
  | exception Bad msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
