(** Dense multidimensional arrays in row-major order.

    This is the storage substrate for the PPL reference interpreter and the
    workload generators: the paper's [V{^R}] tensors (Section 3) are
    represented as values of type ['a t].  Shapes are immutable; the element
    store is mutable so accumulator patterns (MultiFold) can update slices in
    place. *)

type 'a t

exception Shape_error of string
(** Raised on rank or bounds violations.  The payload describes the
    offending operation. *)

(** {1 Construction} *)

val create : int list -> 'a -> 'a t
(** [create shape x] is a fresh array of the given shape filled with [x].
    @raise Shape_error if any dimension is negative. *)

val init : int list -> (int list -> 'a) -> 'a t
(** [init shape f] fills each cell with [f index]. *)

val scalar : 'a -> 'a t
(** Rank-0 array holding a single element. *)

val of_list : 'a list -> 'a t
(** 1-D array from a list. *)

val of_list2 : 'a list list -> 'a t
(** 2-D array from a rectangular list of rows.
    @raise Shape_error if rows have unequal lengths. *)

(** {1 Shape} *)

val shape : 'a t -> int list
val rank : 'a t -> int
val size : 'a t -> int
(** Total number of elements. *)

val dim : 'a t -> int -> int
(** [dim a i] is the size of dimension [i].
    @raise Shape_error if [i] is out of range. *)

(** {1 Access} *)

val get : 'a t -> int list -> 'a
val set : 'a t -> int list -> 'a -> unit

val get1 : 'a t -> int -> 'a
val get2 : 'a t -> int -> int -> 'a
val set1 : 'a t -> int -> 'a -> unit
val set2 : 'a t -> int -> int -> 'a -> unit

val get_scalar : 'a t -> 'a
(** The single element of a rank-0 (or size-1) array.
    @raise Shape_error otherwise. *)

(** {1 Views and regions}

    A slice takes, per dimension, either a fixed index (reducing rank) or an
    [offset, length] interval.  [copy_region] materializes such a region —
    the interpreter uses it for the paper's [copy] tile operator, [slice_view]
    for the (non-materializing) [slice] operator. *)

type dim_spec =
  | Fix of int          (** select one index; the dimension disappears *)
  | Range of int * int  (** [Range (offset, len)]: keep [len] indices *)

val copy_region : 'a t -> dim_spec list -> 'a t
(** Materialize the selected region as a fresh array. *)

val slice_view : 'a t -> dim_spec list -> 'a t
(** Like {!copy_region} but shares storage with the source: writes through
    the view are visible in the source and vice versa. *)

val blit_region : src:'a t -> dst:'a t -> int list -> unit
(** [blit_region ~src ~dst offset] writes all of [src] into [dst] starting
    at [offset].  [src] must have the same rank as [dst] and fit. *)

(** {1 Bulk operations} *)

val copy : 'a t -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** @raise Shape_error if shapes differ. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val for_all : ('a -> bool) -> 'a t -> bool

val concat1 : 'a t list -> 'a t
(** Concatenate 1-D arrays (used by FlatMap semantics).
    @raise Shape_error if any argument is not 1-D. *)

val reshape : 'a t -> int list -> 'a t
(** Same data, new shape of equal total size (fresh storage when the source
    is a strided view). *)

val transpose2 : 'a t -> 'a t
(** Transpose of a 2-D array. *)

val to_list : 'a t -> 'a list
(** Elements in row-major order. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Shape and element-wise equality. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** Nested-bracket rendering, e.g. [[1; 2]; [3; 4]]. *)

(** {1 Index arithmetic} *)

val indices : int list -> int list list
(** All indices of a shape in row-major order.  [indices [] = [[]]]. *)

val linearize : int list -> int list -> int
(** [linearize shape idx] is the row-major flat offset.
    @raise Shape_error on rank mismatch or out-of-bounds. *)

val delinearize : int list -> int -> int list
(** Inverse of {!linearize}. *)
