(** Generic traversal and rewriting over the PPL IR.

    All transformation passes are built on these: [map_children] applies a
    function to every direct child expression (including expressions inside
    domains, regions, shared bindings and combine functions), [bottom_up]
    rewrites post-order.

    These walks are binder-blind: a child is visited without the binders
    it sees.  The scoping rule is written once, in [Ir.map_scoped] and
    [Ir.iter_scoped], which visit the same children in the same order
    (test_linear_passes pins the two lists together).  The walks here are
    kept apart from those and specialized by hand because they are the
    hot path of every pass.  Routed through the scoped walks with a unit
    environment, [iter_exp] took 1.37x and an identity [bottom_up] 1.22x
    as long over the 60 suite bodies (12 programs x 5 tiling stages, 2
    vCPUs, best of 7 x 200 passes), and perfbench's [compile] workload
    fell from a median 2,652 to 2,418 programs/s (4 pairs of 20 s runs,
    every pair slower). *)

val map_children : (Ir.exp -> Ir.exp) -> Ir.exp -> Ir.exp

val bottom_up : (Ir.exp -> Ir.exp) -> Ir.exp -> Ir.exp
(** [bottom_up f e] rebuilds [e] with children rewritten first, then
    applies [f] to each resulting node. *)

val iter_children : (Ir.exp -> unit) -> Ir.exp -> unit
(** [iter_children f e] applies [f] to every direct child of [e], without
    rebuilding [e], in exactly the order in which [map_children] calls its
    function: constructor arguments and record fields right to left, list
    elements left to right.  So a [Let] visits its body before its bound
    expression, a [Read] its indices before its array, and a pattern its
    body (and combine function) before its domains. *)

val iter_exp : (Ir.exp -> unit) -> Ir.exp -> unit
(** Pre-order visit of every node; children are visited in
    [iter_children] order.  Allocates nothing per node. *)

val exists_exp : (Ir.exp -> bool) -> Ir.exp -> bool
val node_count : Ir.exp -> int
