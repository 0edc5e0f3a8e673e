(* A minimal recursive-descent JSON parser, the validator the tests run
   every emitted JSON text through: it rejects trailing garbage, bad
   escapes and raw control bytes inside strings, and returns the value
   for the tests to inspect. *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else raise (Bad_json ("bad literal at " ^ string_of_int !pos))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad_json "unterminated string");
      match peek () with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 5 > n then raise (Bad_json "truncated \\u escape");
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* the emitters only escape control chars, all ASCII *)
              if code < 128 then Buffer.add_char b (Char.chr code)
              else raise (Bad_json "non-ASCII \\u escape")
          | c -> raise (Bad_json (Printf.sprintf "bad escape \\%c" c)));
          advance ();
          go ()
      | c when c < ' ' -> raise (Bad_json ("raw control byte at " ^ string_of_int !pos))
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let isnum c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while isnum (peek ()) do
      advance ()
    done;
    if !pos = start then
      raise (Bad_json ("expected a value at " ^ string_of_int start));
    JNum (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' -> parse_obj ()
    | '[' -> parse_arr ()
    | '"' -> JStr (parse_string ())
    | 't' -> literal "true" (JBool true)
    | 'f' -> literal "false" (JBool false)
    | 'n' -> literal "null" JNull
    | _ -> parse_number ()
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      advance ();
      JObj []
    end
    else
      let rec members acc =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ((k, v) :: acc)
        | '}' ->
            advance ();
            JObj (List.rev ((k, v) :: acc))
        | _ -> raise (Bad_json ("expected , or } at " ^ string_of_int !pos))
      in
      members []
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      advance ();
      JArr []
    end
    else
      let rec elems acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elems (v :: acc)
        | ']' ->
            advance ();
            JArr (List.rev (v :: acc))
        | _ -> raise (Bad_json ("expected , or ] at " ^ string_of_int !pos))
      in
      elems []
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let field name = function
  | JObj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.fail ("missing field " ^ name))
  | _ -> Alcotest.fail ("not an object (looking up " ^ name ^ ")")

let num = function JNum f -> f | _ -> Alcotest.fail "expected a number"
let str = function JStr s -> s | _ -> Alcotest.fail "expected a string"
