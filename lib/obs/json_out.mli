(** The one JSON text writer behind every report.

    Each [add_] function appends to a caller's [Buffer.t], so a whole
    report is built in one pass over one buffer; {!put_int} and
    {!put_float} write the same number text into [Bytes] in place.  The profile, simulation report,
    diagnostics, metrics and trace emitters all write through it, so they
    share one string escaping rule and one float text:

    - strings: the double quote and the backslash are backslash-escaped;
      newline, tab and carriage return use the short forms [\n], [\t],
      [\r]; every other byte below 0x20 becomes [\u00XX] (lowercase hex).
      Everything else, including 0x7f and multi-byte UTF-8, passes through
      unchanged.
    - floats ({!add_float}): integral values below 1e15 print as their
      digits, [-0.] as [-0], and anything else (fractions, nan, ±inf,
      huge values) as C's [%.<prec>f].

    The [%.<prec>f] text of a finite float below 1e15 in magnitude, at a
    [prec] from 0 to 9, is computed here in integers, exactly: the
    integer part, a point, and the fraction times [10^prec] rounded half
    to even (at [prec = 0] a tie goes to the even integer part), the
    result C's [printf] gives.  Non-finite values, magnitudes of 1e15 and
    more, and precisions above 9 are formatted by C, as is {!add_general}. *)

val add_string : Buffer.t -> string -> unit
(** A quoted, escaped JSON string. *)

val add_string_body : Buffer.t -> string -> unit
(** {!add_string} without the quotes, for a string written in pieces:
    escaping is per byte, so the bodies of [a] and [b] are the body of
    [a ^ b]. *)

val add_int : Buffer.t -> int -> unit
(** Decimal digits, with a leading [-] when negative. *)

val add_float : prec:int -> Buffer.t -> float -> unit
(** Canonical float text: digits for an integral value below 1e15,
    {!add_fixed} otherwise. *)

val float_str : prec:int -> float -> string
(** {!add_float} as a string. *)

val add_fixed : prec:int -> Buffer.t -> float -> unit
(** Always [%.<prec>f], integral or not (e.g. ["1.000000"]). *)

val add_general : prec:int -> Buffer.t -> float -> unit
(** C's [%.<prec>g]: shortest of fixed and exponent form. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** The items, separated by [", "] (the caller writes the brackets). *)

val add_float_object : prec:int -> Buffer.t -> (string * float) list -> unit
(** [{"key": float, ...}] in list order, floats as {!add_float}. *)

(** {2 Number text in place}

    The routines integer and fixed-point text comes from: {!add_int},
    {!add_float}, {!add_fixed} and the trace writer all write through
    them, so the digit table and the rounding rule live here alone.
    Each writes into [s] from [pos] on and returns the position after
    the text.  It checks for its room first and raises
    [Invalid_argument] without writing when [s] has less. *)

val int_room : int
(** 20: the most bytes {!put_int} writes ([min_int]'s text). *)

val put_int : Bytes.t -> int -> int -> int
(** [put_int s pos n] writes {!add_int}'s text of [n]; it needs
    {!int_room} bytes of room. *)

val float_room : prec:int -> int
(** [311 + prec] for [prec >= 0]: the most bytes {!put_float} writes, a
    sign, the 309 integer digits of the largest double, a point and
    [prec] digits. *)

val put_float : prec:int -> Bytes.t -> int -> float -> int
(** [put_float ~prec s pos f] writes {!add_float}'s text of [f].  It
    needs {!float_room} bytes of room, except for an integral [f] below
    1e15, which needs {!int_room}, and a finite [f] below 1e15 at [prec]
    0 to 9, which needs 27. *)
