(** Algebraic simplification: constant folding and identity elimination.

    Run after the tiling transformations to keep generated index arithmetic
    (e.g. [ii*b + 0], [min(b, n - ii*b)] with constant [n]) in canonical
    form; the affine analysis and the hardware lowering both consume
    simplified expressions. *)

val rule : Ir.exp -> Ir.exp
(** One rewrite at the root of the term.  Returns its argument itself
    (physically) when no rule applies, and a different term whenever one
    does; {!exp} relies on this to detect each node's fixpoint. *)

val exp : Ir.exp -> Ir.exp
(** Bottom-up simplification; preserves semantics exactly (integer
    arithmetic only is folded — float folding is limited to
    literal-on-literal operations, which cannot change rounding). *)

val program : Ir.program -> Ir.program
