(** Smart constructors for building PPL programs.

    This plays the role of the paper's "high-level translation layer from
    user code to PPL": OCaml functions receive the freshly bound index
    variables as expressions, so programs read like the paper's figures.
    All binders are generated with {!Sym.fresh}, keeping the global
    uniqueness invariant that {!Ir.subst} relies on. *)

open Ir

(** {1 Scalars and operators} *)

val f : float -> exp
val i : int -> exp
val b : bool -> exp
val ( +! ) : exp -> exp -> exp
val ( -! ) : exp -> exp -> exp
val ( *! ) : exp -> exp -> exp
val ( /! ) : exp -> exp -> exp
val ( %! ) : exp -> exp -> exp
val ( <! ) : exp -> exp -> exp
val ( <=! ) : exp -> exp -> exp
val ( >! ) : exp -> exp -> exp
val ( >=! ) : exp -> exp -> exp
val ( =! ) : exp -> exp -> exp
val ( &&! ) : exp -> exp -> exp
val neg : exp -> exp
val min_ : exp -> exp -> exp
val max_ : exp -> exp -> exp
val abs_ : exp -> exp
val sqrt_ : exp -> exp
val square : exp -> exp
val to_float : exp -> exp
val to_int : exp -> exp
val if_ : exp -> exp -> exp -> exp
val let_ : ?name:string -> exp -> (exp -> exp) -> exp

(** {1 Tuples} *)

val tup : exp list -> exp
val pair : exp -> exp -> exp
val fst_ : exp -> exp
val snd_ : exp -> exp

(** {1 Arrays} *)

val read : exp -> exp list -> exp
val slice_row : exp -> exp -> exp
(** [slice_row a i] is the paper's [a.slice(i, * )]. *)

val slice : exp -> slice_arg list -> exp
val len : exp -> int -> exp
val zeros : Ty.scalar -> exp list -> exp
val arr : exp list -> exp
val empty : Ty.t -> exp

(** {1 Domains} *)

val dfull : exp -> dom
val dtiles : total:exp -> tile:int -> dom

(** {1 Patterns} *)

val map1 : dom -> (exp -> exp) -> exp
val map2d : dom -> dom -> (exp -> exp -> exp) -> exp

val fold :
  dom list -> init:exp -> comb:(exp -> exp -> exp) -> (exp list -> exp -> exp) -> exp
(** [fold dims ~init ~comb upd]: [upd idxs acc] is the new whole
    accumulator. *)

val fold1 :
  dom -> init:exp -> comb:(exp -> exp -> exp) -> (exp -> exp -> exp) -> exp

type out_spec = {
  range : exp list;  (** full shape of this accumulator component *)
  region : (exp * exp * int option) list;  (** (offset, len, static bound) *)
  upd : exp -> exp;  (** current region contents -> new contents *)
}

val point : exp list -> (exp * exp * int option) list
(** Unit region at the given offsets (a scalar update). *)

val multifold :
  dom list ->
  init:exp ->
  ?comb:(exp -> exp -> exp) ->
  (exp list -> out_spec list) ->
  exp
(** [multifold dims ~init ?comb outs]: [outs idxs] gives one {!out_spec}
    per accumulator component.  [?comb] omitted means each location is
    written exactly once (the paper's underscore). *)

val multifold_lets :
  dom list ->
  init:exp ->
  ?comb:(exp -> exp -> exp) ->
  (exp list -> (string * exp) list * (exp list -> out_spec list)) ->
  exp
(** Like {!multifold} but with shared per-iteration bindings: the body
    receives the index expressions and returns named bindings plus a
    function from the bound values to the output specs.  Used when several
    accumulator components depend on one computation (k-means'
    [minDistIndex]). *)

val flatmap : dom -> (exp -> exp) -> exp
val filter : dom -> (exp -> exp) -> (exp -> exp) -> exp
(** [filter d pred elt] is the FlatMap encoding of a filter. *)

val groupbyfold :
  dom -> init:exp -> comb:(exp -> exp -> exp) -> (exp -> exp * (exp -> exp)) -> exp
(** [groupbyfold d ~init ~comb f]: [f idx] returns the key and the
    per-bucket accumulator update. *)

(** {1 Programs} *)

val size : string -> Sym.t

val program :
  name:string ->
  sizes:Sym.t list ->
  ?max_sizes:(Sym.t * int) list ->
  inputs:input list ->
  exp ->
  program

val input : string -> Ty.t -> exp list -> input
val in_var : input -> exp
