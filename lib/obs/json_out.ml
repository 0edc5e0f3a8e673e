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
   and returns where they start.  The caller has checked the room. *)
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

(* the number of decimal digits of [n >= 0], 19 at most: up to 8 by a
   search tree of independent compares, then one digit per step *)
let rec digits_from n k p = if k = 19 || n < p then k else digits_from n (k + 1) (p * 10)

let[@inline] digit_count n =
  if n < 10_000 then if n < 100 then if n < 10 then 1 else 2 else if n < 1000 then 3 else 4
  else if n < 100_000_000 then
    if n < 1_000_000 then if n < 100_000 then 5 else 6 else if n < 10_000_000 then 7 else 8
  else digits_from n 9 1_000_000_000

let int_room = 20

let[@inline] check_room s pos room =
  if pos < 0 || Bytes.length s - pos < room then invalid_arg "Json_out: no room"

(* [s] from [pos] on holds [text] *)
let put_text s pos text =
  let n = String.length text in
  check_room s pos n;
  Bytes.blit_string text 0 s pos n;
  pos + n

let put_int s pos n =
  check_room s pos int_room;
  if n < 0 then put_text s pos (string_of_int n)
  else begin
    let stop = pos + digit_count n in
    ignore (put_digits s stop n ~width:1);
    stop
  end

(* [k^p] for the precisions written exactly, [p <= 9] *)
let powers k =
  Array.init 10 (fun p -> List.fold_left ( * ) 1 (List.init p (fun _ -> k)))
let pow5 = powers 5
let pow10 = powers 10

(* [frac * 10^prec] rounded half to even, with [odd] the parity of the
   digit left of the point, which breaks a tie at [prec = 0].  A normal
   fraction [0 < frac < 1] with biased exponent [be] is [mf / 2^k], with
   [mf] its 53-bit significand and [k = 1075 - be >= 53], so the scaled
   value is [mf * 5^prec / 2^s], [s = k - prec >= 44]; a subnormal one is
   far below half a unit.  The product is below 2^74: it is held in two
   limbs, [hi * 2^32 + lo]. *)
let scaled_fraction frac ~prec ~odd =
  if frac = 0.0 then 0
  else
    let bits = Int64.to_int (Int64.bits_of_float frac) in
    let be = bits lsr 52 in
    let s = 1075 - be - prec in
    (* the product is below 2^74 <= 2^(s-1): less than a half *)
    if be = 0 || s >= 75 then 0
    else
      let mf = bits land ((1 lsl 52) - 1) lor (1 lsl 52) in
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

(* the most bytes [put_fixed_exact] writes: a sign, 16 integer digits
   (a carry can reach 1e15), a point and 9 fraction digits *)
let exact_room = 27

(* [%.<prec>f] of a finite [f] with [|f| < 1e15] and [0 <= prec <= 9]:
   the integer part, a point, and the scaled fraction padded to [prec]
   digits; a fraction that rounds up to [10^prec] carries into the
   integer part.  [f - floor f] is exact, so is the whole text. *)
let put_fixed_exact ~prec s pos f =
  check_room s pos exact_room;
  let a = Float.abs f in
  let i = Float.to_int a in
  let n = scaled_fraction (a -. Float.of_int i) ~prec ~odd:(i land 1 = 1) in
  let carry = n = pow10.(prec) in
  let i = if carry then i + 1 else i and n = if carry then 0 else n in
  let pos =
    if Float.sign_bit f then begin
      Bytes.unsafe_set s pos '-';
      pos + 1
    end
    else pos
  in
  let pos = pos + digit_count i in
  ignore (put_digits s pos i ~width:1);
  if prec = 0 then pos
  else begin
    Bytes.unsafe_set s pos '.';
    let stop = pos + 1 + prec in
    ignore (put_digits s stop n ~width:prec);
    stop
  end

(* Non-finite values, |f| >= 1e15 and precisions outside 0-9 are left to
   C: the one fixed-point fallback. *)
let fixed_is_exact ~prec f = Float.abs f < 1e15 && prec >= 0 && prec <= 9
let fixed_fallback ~prec f = c_format "f" ~prec f

(* integers below 1e15 are exact in an [int], so their text is their
   digits; [-0.] keeps the sign [%.0f] gives it *)
let[@inline] is_digits f =
  Float.is_integer f && Float.abs f < 1e15 && not (f = 0.0 && Float.sign_bit f)

(* A finite double has at most 309 integer digits; C's text adds a sign,
   a point and [prec] digits.  Everything else is shorter. *)
let float_room ~prec = 311 + Int.max 0 prec

(* every float whose text is not its digits: [-0.], then fixed-point
   text *)
let put_other ~prec s pos f =
  if f = 0.0 then put_text s pos "-0"
  else if fixed_is_exact ~prec f then put_fixed_exact ~prec s pos f
  else put_text s pos (fixed_fallback ~prec f)

let put_float ~prec s pos f =
  if is_digits f then put_int s pos (Float.to_int f) else put_other ~prec s pos f

(* right-aligned in its bytes, so without counting the digits first *)
let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else if n < 10 then Buffer.add_char b (Char.unsafe_chr (48 + n))
  else begin
    let s = Bytes.create int_room in
    let pos = put_digits s int_room n ~width:1 in
    Buffer.add_subbytes b s pos (int_room - pos)
  end

let add_fixed ~prec b f =
  if fixed_is_exact ~prec f then begin
    let s = Bytes.create exact_room in
    Buffer.add_subbytes b s 0 (put_fixed_exact ~prec s 0 f)
  end
  else Buffer.add_string b (fixed_fallback ~prec f)

(* {!put_float}, through bytes just long enough for the text *)
let add_float ~prec b f =
  if is_digits f then add_int b (Float.to_int f)
  else begin
    let s = Bytes.create (if fixed_is_exact ~prec f then exact_room else float_room ~prec) in
    Buffer.add_subbytes b s 0 (put_other ~prec s 0 f)
  end

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
