(* The runtime primitive Printf's float conversions end in, called
   without parsing a format string: C's [%.<prec><conv>], for [%g] and
   for the floats [add_fixed_exact] does not write.  The [%g] strings
   are built once, since the design printers and the metrics write
   through [add_general]; a fixed-point one is built only by the rare
   fallback. *)
external format_float : string -> float -> string = "caml_format_float"

let general_formats = Array.init 17 (fun p -> "%." ^ string_of_int p ^ "g")

let format conv prec =
  if String.equal conv "g" && prec >= 0 && prec < 17 then
    general_formats.(prec)
  else "%." ^ string_of_int prec ^ conv

let c_format conv ~prec f = format_float (format conv prec) f

(* runs of plain bytes are copied whole; only the specials are rewritten *)
let add_string_body b s =
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
  Buffer.add_substring b s !start (n - !start)

let add_string b s =
  Buffer.add_char b '"';
  add_string_body b s;
  Buffer.add_char b '"'

(* "00", "01", ..., "99": two decimal digits per table lookup *)
let pairs =
  String.init 200 (fun i ->
      let v = i / 2 in
      Char.unsafe_chr (48 + if i land 1 = 0 then v / 10 else v mod 10))

(* Writes the decimal digits of [n >= 0] to the bytes ending just before
   [stop], zero-padded to at least [width] digits (one digit at least),
   and returns where they start.  [s] must have room: an [int] has 19
   digits at most. *)
let put_digits s stop n ~width =
  let pos = ref stop and n = ref n in
  while !n >= 100 do
    let q = !n / 100 in
    let r = 2 * (!n - (q * 100)) in
    pos := !pos - 2;
    Bytes.unsafe_set s !pos (String.unsafe_get pairs r);
    Bytes.unsafe_set s (!pos + 1) (String.unsafe_get pairs (r + 1));
    n := q
  done;
  if !n >= 10 then begin
    pos := !pos - 2;
    Bytes.unsafe_set s !pos (String.unsafe_get pairs (2 * !n));
    Bytes.unsafe_set s (!pos + 1) (String.unsafe_get pairs ((2 * !n) + 1))
  end
  else begin
    decr pos;
    Bytes.unsafe_set s !pos (Char.unsafe_chr (48 + !n))
  end;
  while stop - !pos < width do
    decr pos;
    Bytes.unsafe_set s !pos '0'
  done;
  !pos

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else if n < 10 then Buffer.add_char b (Char.unsafe_chr (48 + n))
  else begin
    let s = Bytes.create 20 in
    let pos = put_digits s 20 n ~width:1 in
    Buffer.add_subbytes b s pos (20 - pos)
  end

(* [k^p] for the precisions written exactly, [p <= 9] *)
let powers k =
  Array.init 10 (fun p -> List.fold_left ( * ) 1 (List.init p (fun _ -> k)))
let pow5 = powers 5
let pow10 = powers 10

(* [frac * 10^prec] rounded half to even, with [odd] the parity of the
   digit left of the point, which breaks a tie at [prec = 0].  A fraction
   [0 < frac < 1] is [mf / 2^k] with [mf < 2^53] and [k >= 53], so the
   scaled value is [mf * 5^prec / 2^s], [s = k - prec >= 44].  The
   product is below 2^74: it is held in two limbs, [hi * 2^32 + lo]. *)
let scaled_fraction frac ~prec ~odd =
  if frac = 0.0 then 0
  else
    let m, e = Float.frexp frac in
    let s = 53 - e - prec in
    (* the product is below 2^74 <= 2^(s-1): less than a half *)
    if s >= 75 then 0
    else
      let mf = Float.to_int (Float.ldexp m 53) in
      let p5 = pow5.(prec) in
      let lo = (mf land 0xFFFF_FFFF) * p5 in
      let hi = ((mf lsr 32) * p5) + (lo lsr 32) in
      let lo = lo land 0xFFFF_FFFF in
      (* quotient and remainder by 2^s, the remainder against 2^(s-1) *)
      let q = hi lsr (s - 32) in
      let rh = hi land ((1 lsl (s - 32)) - 1) in
      let half = 1 lsl (s - 33) in
      if rh > half || (rh = half && lo > 0) then q + 1
      else if rh = half && (if prec = 0 then odd else q land 1 = 1) then q + 1
      else q

(* [%.<prec>f] of a finite [f] with [|f| < 1e15] and [0 <= prec <= 9]:
   the integer part, a point, and the scaled fraction padded to [prec]
   digits; a fraction that rounds up to [10^prec] carries into the
   integer part.  [f - floor f] is exact, so is the whole text. *)
let add_fixed_exact ~prec b f =
  let a = Float.abs f in
  let i = Float.to_int a in
  let n = scaled_fraction (a -. Float.of_int i) ~prec ~odd:(i land 1 = 1) in
  let i, n = if n = pow10.(prec) then (i + 1, 0) else (i, n) in
  let s = Bytes.create 32 in
  let pos =
    if prec = 0 then 32
    else begin
      let pos = put_digits s 32 n ~width:prec - 1 in
      Bytes.unsafe_set s pos '.';
      pos
    end
  in
  let pos = put_digits s pos i ~width:1 in
  let pos =
    if Float.sign_bit f then begin
      Bytes.unsafe_set s (pos - 1) '-';
      pos - 1
    end
    else pos
  in
  Buffer.add_subbytes b s pos (32 - pos)

(* Non-finite values, |f| >= 1e15 and precisions outside 0-9 are left to
   C: the one fixed-point fallback. *)
let add_fixed ~prec b f =
  if Float.abs f < 1e15 && prec >= 0 && prec <= 9 then
    add_fixed_exact ~prec b f
  else Buffer.add_string b (c_format "f" ~prec f)

(* integers below 1e15 are exact in an [int], so their digits are written
   directly; [-0.] keeps the sign [%.0f] gives it *)
let add_float ~prec b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string b "-0"
    else add_int b (Float.to_int f)
  else add_fixed ~prec b f

let float_str ~prec f =
  let b = Buffer.create 24 in
  add_float ~prec b f;
  Buffer.contents b

let add_general ~prec b f =
  Buffer.add_string b (c_format "g" ~prec f)

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
