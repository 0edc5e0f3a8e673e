(** Unique symbols (variables, indices, size parameters) of the PPL IR. *)

type t

val fresh : string -> t
(** [fresh base] is a new symbol whose printed name starts with [base].
    Every call returns a distinct symbol, even for equal base names. *)

val name : t -> string
(** Printable name, unique per symbol (base + numeric suffix). *)

val base : t -> string
(** The base name passed to {!fresh}. *)

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
