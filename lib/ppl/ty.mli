(** Types of PPL values.

    The paper (Section 3) restricts element types to scalars or structures
    of scalars, and collections to multidimensional arrays — no nested
    arrays.  {!well_formed} enforces that restriction. *)

type scalar = Float | Int | Bool

type t =
  | Scalar of scalar
  | Tuple of t list  (** structure of values; may mix scalars and arrays *)
  | Array of t * int  (** element type and rank; element must be array-free *)
  | Assoc of t * t  (** key/value result of GroupByFold, 1-D by construction *)

val float_ : t
val int_ : t
val bool_ : t
val array : t -> int -> t

val array_free : t -> bool
(** Neither an array nor an assoc anywhere inside: a scalar or a
    structure of scalars, the paper's element type. *)

val well_formed : t -> bool
(** Array elements must not themselves contain arrays or assocs. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
