(** Affine analysis of index expressions.

    An index expression is affine when it is [sum_i c_i * s_i + c0] for
    integer constants [c_i] and symbols [s_i].  Strip mining's tile-copy
    inference (Section 4, second pass) classifies every array access
    through this analysis; non-affine accesses (data-dependent indices
    like k-means' [minDistIndex]) return [None] and are later served by
    caches/CAMs rather than tile buffers — the key generality claim over
    polyhedral tooling. *)

type t = {
  terms : (Sym.t * int) list;  (** nonzero coefficients, sorted by symbol *)
  const : int;
}

val of_exp : Ir.exp -> t option
(** [None] if the expression is not affine (any [Read], [If], [Div], ...). *)

val to_exp : t -> Ir.exp
(** Canonical expression form: terms in symbol order, then the constant;
    omits zero coefficients and a zero constant. *)

val const : int -> t
val var : Sym.t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val syms : t -> Sym.Set.t
val coeff : t -> Sym.t -> int
val is_const : t -> bool

val partition : t -> (Sym.t -> bool) -> t * t
(** [partition a p] splits [a] into [(inside, outside)]: terms whose symbol
    satisfies [p] (with const 0) and the rest (carrying the constant). *)

val equal : t -> t -> bool
