(** Analysis and reconstruction of combine functions.

    Strip mining needs two operations on a pattern's combine function:
    duplicate it (each nesting level gets its own copy, keeping the
    global-freshness invariant on binders), and — for the accumulator
    localization of Table 2's sumrows — re-instantiate an {e elementwise}
    combine at tile extents instead of full-range extents. *)

val rename : ?renamed:(Sym.t -> Sym.t -> unit) -> Ir.comb -> Ir.comb
(** A copy with all binders (parameters and internal) refreshed
    ({!Ir.refresh}). *)

val elementwise :
  ?renamed:(Sym.t -> Sym.t -> unit) -> Ir.comb -> (Ir.exp list -> Ir.exp -> Ir.exp -> Ir.exp) option
(** If the combine function is an elementwise map —
    [{(a,b) => map(dims){ i => g(a(i), b(i)) }}] with both parameters used
    only as reads at exactly the map indices — return a builder
    [build extents x y] producing that map re-instantiated over new
    domain extents and applied to arrays [x] and [y], its binders
    refreshed ({!Ir.refresh}).  [None] otherwise. *)
