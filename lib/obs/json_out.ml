(* The runtime primitive Printf's float conversions end in; calling it
   directly skips parsing the format string on every number. *)
external format_float : string -> float -> string = "caml_format_float"

(* format strings for the precisions reports use, built once *)
let formats conv = Array.init 17 (fun p -> "%." ^ string_of_int p ^ conv)
let fixed_formats = formats "f"
let general_formats = formats "g"

let format table conv prec =
  if prec >= 0 && prec < Array.length table then table.(prec)
  else "%." ^ string_of_int prec ^ conv

(* runs of plain bytes are copied whole; only the specials are rewritten *)
let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c ->
          let hex d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d) in
          Buffer.add_string b "\\u00";
          Buffer.add_char b (hex (Char.code c lsr 4));
          Buffer.add_char b (hex (Char.code c land 15)));
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (n - !start);
  Buffer.add_char b '"'

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n) else add_digits b n

(* integers below 1e15 are exact in an [int], so their digits are written
   directly; [-0.] keeps the sign [%.0f] gives it *)
let add_float ~prec b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string b "-0"
    else add_int b (Float.to_int f)
  else Buffer.add_string b (format_float (format fixed_formats "f" prec) f)

let float_str ~prec f =
  let b = Buffer.create 24 in
  add_float ~prec b f;
  Buffer.contents b

let add_fixed ~prec b f =
  Buffer.add_string b (format_float (format fixed_formats "f" prec) f)

let add_general ~prec b f =
  Buffer.add_string b (format_float (format general_formats "g" prec) f)

let add_list b add xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add b x)
    xs

let add_float_object ~prec b kvs =
  Buffer.add_char b '{';
  add_list b
    (fun b (k, v) ->
      add_string b k;
      Buffer.add_string b ": ";
      add_float ~prec b v)
    kvs;
  Buffer.add_char b '}'
