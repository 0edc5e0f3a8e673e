(** Type and well-formedness checking for PPL programs.

    Beyond ordinary typing, this enforces the restrictions of Section 3:
    no nested arrays, one-dimensional domains for FlatMap and GroupByFold,
    MultiFold update values of the same arity as the accumulator, and
    combine functions of type [(V, V) -> V]. *)

exception Type_error of string

val infer : Ty.t Sym.Map.t -> Ir.exp -> Ty.t
(** Infer the type of an expression under the given environment.
    @raise Type_error on any violation. *)

val type_of : Ty.t Sym.Map.t -> Ir.exp -> Ty.t
(** [type_of env e] is [infer env e] for an expression [e] that already
    type-checks under [env], without re-checking it: a [Fold] or
    [MultiFold] gives its init's type, a [Map] gives [Array (body, rank)],
    a [Read] its array's element type, a [Copy] an array of its source's
    elements over the dimensions it keeps, and a [Let] follows its body,
    so a pattern's update, domains and combine function and an access's
    indices are never walked.  Any other form is {!infer}red.
    [env] may be a program's {!binder_types}, for any subexpression of
    it.  On an expression that does not check, the result is
    unspecified: a type, or {!Type_error}. *)

val binder_types : Ir.program -> Ty.t Sym.Map.t
(** The type of every binder of a checked program, in one map: its size
    parameters and inputs ({!initial_env}), every [Let], every pattern's
    indices, shared bindings and accumulators, and every combine
    function's parameters, each with the type {!infer} gives it.  One map
    serves the whole program because no binder is bound twice (every
    binder is a fresh symbol); the binders' expressions are synthesized
    with {!type_of}, not re-checked. *)

val check_program : Ir.program -> Ty.t
(** Validate a whole program and return its result type.  Size parameters
    are bound at type [Int], inputs at their declared array types. *)

val initial_env : Ir.program -> Ty.t Sym.Map.t
(** The environment binding a program's size parameters and inputs. *)
