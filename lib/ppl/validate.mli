(** Type and well-formedness checking for PPL programs.

    Beyond ordinary typing, this enforces the restrictions of Section 3:
    no nested arrays, one-dimensional domains for FlatMap and GroupByFold,
    MultiFold update values of the same arity as the accumulator, and
    combine functions of type [(V, V) -> V].  Every binder is a fresh
    symbol: a program that binds one symbol twice is rejected. *)

exception Type_error of string

val infer : Ty.t Sym.Map.t -> Ir.exp -> Ty.t
(** Infer the type of an expression under the given environment.
    @raise Type_error on any violation. *)

type table
(** The type of every binder of a checked program: its size parameters
    and inputs ({!initial_env}), every [Let], every pattern's indices,
    shared bindings and accumulators, and every combine function's
    parameters.  The check fills it as it binds each binder; one table
    serves the whole program because no binder is bound twice. *)

type checked
(** A program that has passed {!check_program}, and its {!table}.  The
    tiling passes and [Lower] take one and do not check it again. *)

val check_program : Ir.program -> checked
(** Size parameters are bound at type [Int], inputs at their declared
    array types.  @raise Type_error on any violation. *)

val program : checked -> Ir.program
val table : checked -> table
val result : checked -> Ty.t

val stamped : checked -> bool
(** Whether no pattern's provenance is [Prov.none]: the check visits
    every pattern, so this costs no walk. *)

val type_of : table -> Ir.exp -> Ty.t
(** The type of an expression of a checked program (or one whose binders
    and free symbols all are in the table), without re-checking it: a
    [Fold] or [MultiFold] gives its init's type, a [Map] gives
    [Array (body, rank)], a [Read] its array's element type, a [Copy] an
    array of its source's elements over the dimensions it keeps, and a
    [Let] follows its body; any other form is {!infer}red.  On an
    expression that does not check, the result is a type or
    {!Type_error}. *)

val binder_type : table -> Sym.t -> Ty.t
(** @raise Not_found on a symbol the table does not hold. *)

val add_binder : table -> Sym.t -> Ty.t -> unit
(** Extend the table, in place, by a binder a pass mints. *)

val initial_env : Ir.program -> Ty.t Sym.Map.t
(** The environment binding a program's size parameters and inputs. *)
