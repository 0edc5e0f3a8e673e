(** Runtime values of the PPL reference interpreter. *)

type t =
  | F of float
  | I of int
  | B of bool
  | Tup of t list
  | Arr of t Ndarray.t
  | Assoc of (t * t) list
      (** GroupByFold result; keys in first-appearance order *)

val deep_copy : t -> t
(** Structure-preserving copy; fresh storage for every array. *)

val equal : ?eps:float -> t -> t -> bool
(** Structural equality; floats compared within [eps] (default 1e-9,
    relative for large magnitudes). *)

val to_string : t -> string

(** {1 Conversions} *)

val of_float_list : float list -> t
val of_int_list : int list -> t

val to_int : t -> int
val to_bool : t -> bool
val to_arr : t -> t Ndarray.t
