(** Deterministic work pool over OCaml 5 domains.

    Design-space sweeps evaluate many independent points — each a
    [Tiling.tiled] → [Lower.program] → [Simulate.run] → [Area_model]
    chain — so the harness fans them out across domains.  The pool is
    deliberately boring: items are claimed from a shared atomic counter,
    each result lands in the slot of its *input index*, and the output
    list is rebuilt in input order.  A parallel [map] therefore returns
    exactly what [List.map] returns (same order, same values), which the
    DSE determinism tests assert. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the bound used when [?domains]
    is omitted. *)

type tally = { mutable per_domain : int array }
(** Per-worker completed-item counters, filled in by {!map} when passed:
    [per_domain.(w)] is the number of items worker [w] completed (worker
    0 is the calling domain; the array length is the worker count the
    call actually used).  Purely observational — the result list is
    bit-identical with or without a tally — and the slot sums always
    equal the item count.  Feeds the {!Metrics} registry in the sweep
    harnesses. *)

val tally : unit -> tally
(** An empty tally (replaced wholesale by the next {!map} it is passed
    to). *)

val map : ?domains:int -> ?tally:tally -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f items] is [List.map f items], evaluated on up to
    [domains] domains (default {!default_domains}; values [<= 1] run
    sequentially on the calling domain, with no spawns).  If any [f item]
    raises, the exception of the smallest-index failing item is re-raised
    (with its backtrace) after all domains have joined. *)

val mapi : ?domains:int -> ?tally:tally -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing each item's index. *)
