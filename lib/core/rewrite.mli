(** Generic traversal and rewriting over the PPL IR.

    All transformation passes are built on these: [map_children] applies a
    function to every direct child expression (including expressions inside
    domains, regions, shared bindings and combine functions), [bottom_up]
    rewrites post-order. *)

val map_children : (Ir.exp -> Ir.exp) -> Ir.exp -> Ir.exp
val map_dom : (Ir.exp -> Ir.exp) -> Ir.dom -> Ir.dom

val bottom_up : (Ir.exp -> Ir.exp) -> Ir.exp -> Ir.exp
(** [bottom_up f e] rebuilds [e] with children rewritten first, then
    applies [f] to each resulting node. *)

val top_down_ctx :
  'ctx -> enter:('ctx -> Ir.exp -> 'ctx) -> ('ctx -> Ir.exp -> Ir.exp option) -> Ir.exp -> Ir.exp
(** [top_down_ctx ctx ~enter f e]: at each node, [f ctx e] may replace the
    node (the replacement is re-visited); otherwise recursion proceeds into
    children with [enter ctx e] as the new context. *)

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
