(** Loop-invariant code motion.

    Let-bindings (and MultiFold/GroupByFold shared bindings) whose value
    does not reference any index bound by the enclosing pattern are moved
    out of that pattern.  Applied repeatedly, a binding floats to the
    outermost position where it is still well-scoped — in particular, tile
    copies hoist as far as their offsets allow after pattern interchange,
    as Section 4 assumes. *)

val step : Ir.exp -> Ir.exp
(** One motion at the root: hoist the invariant leading bindings of a
    pattern node around it.  Returns its argument itself (physically)
    when nothing moves; {!exp} stops when no node moved. *)

val exp : Ir.exp -> Ir.exp
val program : Ir.program -> Ir.program
