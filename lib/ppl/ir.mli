(** The parallel pattern IR (Figure 2 of the paper).

    Four patterns: [Map] and [MultiFold] are multidimensional with
    fixed output size; [FlatMap] and [GroupByFold] are one-dimensional with
    dynamic output size.  [Fold] is kept as a distinct constructor for the
    MultiFold special case in which every iteration updates the entire
    accumulator — the pattern-interchange rules of Section 4 match on it.

    Every pattern binds explicit index symbols.  Bodies are plain
    expressions in the scope of those symbols; no first-class functions
    appear in the IR. *)

type prim =
  | Add | Sub | Mul | Div | Mod | Neg
  | Min | Max | Abs | Sqrt | Exp | Log
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or | Not
  | ToFloat | ToInt

(** Iteration domains.  Strip mining replaces a [Dfull] domain with a
    [Dtiles] loop over tiles whose body iterates a [Dtail] domain; pattern
    interchange distinguishes strided ([Dtiles]) from unstrided
    ([Dfull]/[Dtail]) domains, as in Section 4. *)
type dom =
  | Dfull of exp  (** unstrided domain of the given size *)
  | Dtiles of { total : exp; tile : int }
      (** strided tile loop: the index ranges over [ceil(total/tile)] tiles *)
  | Dtail of { total : exp; tile : int; outer : Sym.t }
      (** one tile: [min (tile, total - outer*tile)] iterations *)

and exp =
  | Var of Sym.t
  | Cf of float
  | Ci of int
  | Cb of bool
  | Tup of exp list
  | Proj of exp * int
  | Prim of prim * exp list
  | Let of Sym.t * exp * exp
  | If of exp * exp * exp
  | Len of exp * int  (** size of dimension [i] of an array expression *)
  | Read of exp * exp list  (** array element access *)
  | Slice of exp * slice_arg list  (** non-materializing view, e.g. row *)
  | Copy of copy  (** explicit tile copy introduced by strip mining *)
  | Zeros of Ty.t * exp list
      (** identity accumulator of given shape; the element type must be
          array-free (a scalar or tuple of scalars) *)
  | ArrLit of exp list  (** small 1-D array literal (FlatMap bodies) *)
  | EmptyArr of Ty.t  (** [] of the given element type (FlatMap bodies) *)
  | Map of map_node
  | Fold of fold_node
  | MultiFold of multifold_node
  | FlatMap of flatmap_node
  | GroupByFold of groupbyfold_node

and slice_arg = SFix of exp | SAll

and copy = {
  csrc : exp;  (** source array *)
  cdims : copy_dim list;  (** one per source dimension *)
  creuse : int;  (** reuse factor for overlapping tiles (sliding windows) *)
}

and copy_dim =
  | Coffset of { off : exp; len : exp; max_len : int option }
      (** the interval [off, off+len); [max_len] is the static bound used
          for buffer sizing when [len] is not a constant *)
  | Call  (** the whole dimension *)
  | Cfix of exp  (** a single index; the dimension disappears *)

and map_node = {
  mdims : dom list;
  midxs : Sym.t list;
  mbody : exp;
  mprov : Prov.t;  (** metadata only; never semantics *)
}

and fold_node = {
  fdims : dom list;
  fidxs : Sym.t list;
  finit : exp;
  facc : Sym.t;  (** bound to the whole current accumulator in [fupd] *)
  fupd : exp;
  fcomb : comb;
  fprov : Prov.t;
}

and multifold_node = {
  odims : dom list;
  oidxs : Sym.t list;
  oinit : exp;  (** whole-accumulator identity; a [Tup] for multi-component *)
  olets : (Sym.t * exp) list;
      (** per-iteration bindings shared by all outputs (the paper's [f]
          computes values like k-means' [minDistIndex] once and uses them
          in several (location, value-function) pairs); each binding is in
          scope of the indices and of the previous bindings *)
  oouts : mf_out list;  (** one per accumulator component *)
  ocomb : comb option;  (** [None] when each location is written once *)
  oprov : Prov.t;
}

and mf_out = {
  orange : exp list;  (** full shape of this accumulator component *)
  oregion : (exp * exp * int option) list;
      (** per dimension: (offset, length, static length bound); the update
          region of this iteration.  All-unit regions are scalar updates. *)
  oacc : Sym.t;  (** bound to the current region contents in [oupd] *)
  oupd : exp;  (** new region contents *)
}

and flatmap_node = {
  fmdim : dom;
  fmidx : Sym.t;
  fmbody : exp;
  fmprov : Prov.t;
}

and groupbyfold_node = {
  gdims : dom list;
      (** user programs are one-dimensional (Section 3); strip mining
          produces the flattened tiled form [Dtiles; Dtail] *)
  gidxs : Sym.t list;
  ginit : exp;  (** per-bucket identity *)
  glets : (Sym.t * exp) list;  (** per-iteration bindings shared by key/update *)
  gkey : exp;
  gacc : Sym.t;
  gupd : exp;
  gcomb : comb;
  gprov : Prov.t;
}

and comb = { ca : Sym.t; cb : Sym.t; cbody : exp }

type input = { iname : Sym.t; ielt : Ty.t; ishape : exp list }
(** A program input: a runtime array of element type [ielt] whose shape is
    given by expressions over the program's size parameters.  A scalar
    input has [ishape = []]. *)

type program = {
  pname : string;
  size_params : Sym.t list;  (** runtime size symbols (n, k, d, ...) *)
  max_sizes : (Sym.t * int) list;
      (** static upper bounds for size parameters, used to size on-chip
          buffers when a tiled dimension's extent is a runtime value *)
  inputs : input list;
  body : exp;
}

(** {1 Helpers} *)

val dom_size : dom -> exp
(** Number of iterations of a domain, as an expression ([Dtiles] yields
    [ceil(total/tile)], encoded with integer arithmetic). *)

val is_strided : dom -> bool
(** [true] exactly for [Dtiles]. *)

val comb_apply : comb -> exp -> exp -> exp
(** [comb_apply c a b] is [c]'s body with its parameters Let-bound to
    [a] and [b]. *)

(** {1 Scoping}

    The scoping rule of the IR, written once: which binders each child of
    a node sees.
    - A [Let] body sees its binder; its bound expression does not.
    - Pattern domain [i] sees the pattern's indices before [i] (the
      flattened tiled form [[Dtiles; Dtail {outer = ii}]] reads its own
      tile index [ii]).
    - A body, key or update sees every index, then the shared bindings in
      order, then its accumulator; shared binding [k] sees the indices and
      the bindings before [k].
    - A MultiFold's [orange] sees only the outer scope; its [oregion]
      sees the indices and the shared bindings.
    - An [init] sees only the outer scope, and a combine function only
      [ca] and [cb].
    - [Dtail.outer] is a use, not a binder.

    [free_vars], [subst] and [rename_binders] are instances of the two
    walks below, so none of them restates the rule. *)

val map_scoped :
  bind:('env -> Sym.t -> 'env) ->
  use:('env -> Sym.t -> Sym.t) ->
  ('env -> exp -> exp) ->
  'env ->
  exp ->
  exp
(** [map_scoped ~bind ~use f env e] rebuilds one node: each child [c]
    becomes [f env' c], where [env'] is [env] extended through [bind] by
    every binder [c] sees.  [use] maps a [Dtail.outer], and each binder
    [s], in the environment [bind] gives once [s] is bound.  A leaf is
    returned as it is, and [f] is never applied to [e] itself.

    Children are visited in [Rewrite.map_children]'s order, and each
    binder is bound before the children in its scope. *)

val iter_scoped :
  bind:('env -> Sym.t -> 'env) ->
  use:('env -> Sym.t -> unit) ->
  ('env -> exp -> unit) ->
  'env ->
  exp ->
  unit
(** [iter_scoped ~bind ~use f env e] is the visit of {!map_scoped},
    with no rebuild: [f] gets the same children, in the same order, each
    in the environment [map_scoped] would give it. *)

val free_vars : exp -> Sym.Set.t
(** Free (unbound) symbols of an expression. *)

val subst : exp Sym.Map.t -> exp -> exp
(** Capture-avoiding substitution (binders in the IR are globally fresh
    symbols, so plain traversal is safe; bound symbols shadow).  A
    [Dtail.outer] in the map's domain is replaced too; it must map to a
    [Var], or [Invalid_argument] is raised. *)

val refresh : ?renamed:(Sym.t -> Sym.t -> unit) -> Sym.t -> Sym.t
(** A fresh symbol of the same base name; [renamed s s'] is told of it. *)

val rename_binders : ?renamed:(Sym.t -> Sym.t -> unit) -> exp -> exp
(** Refresh every binder in the expression (used when a transformation
    duplicates a subterm), in the order {!map_scoped} binds them. *)

val max_sizes_bound : program -> Sym.t -> int option
(** Static upper bound declared for a size parameter, if any. *)

val size_bound : program -> exp -> int option
(** Static bound of a size expression for the tiling passes: a constant
    is its own bound, a size parameter has its declared {!max_sizes_bound},
    and anything else has none. *)
