(** Deterministic work pool over OCaml 5 domains.

    Design-space sweeps evaluate many independent points — each a
    [Tiling.tiled] → [Lower.program] → [Simulate.run] → [Area_model]
    chain — so the harness fans them out across domains, and [Eval]'s
    [Parallel] mode fans out the chunks of a reduction.  The pool is
    deliberately boring: items are claimed from a shared atomic counter,
    each result lands in the slot of its *input index*, and the output
    list is rebuilt in input order.  A parallel [map] therefore returns
    exactly what [List.map] returns (same order, same values), which the
    DSE determinism tests assert.

    Helper domains persist across maps.  The first parallel map spawns
    them; each later map hands its work to the parked ones (spawning only
    the shortfall), so a burst of sweeps pays for its domains once.  A
    helper that sees no map for {!linger} seconds exits, and the next map
    spawns a fresh one.  Idle helpers never keep the process alive.

    Two rules keep every call safe:
    - {b Inline rule.} A map started while the pool is serving another
      one — from inside a job, or from a second domain — runs
      sequentially on its calling domain, as if [domains] were 1.
    - {b Domain limit.} A map that asks for more domains than the runtime
      can run uses the helpers it could get instead of raising. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the bound used when [?domains]
    is omitted. *)

val linger : float
(** Seconds an idle helper waits for the next map before it exits. *)

type tally = { mutable per_domain : int array }
(** Per-worker completed-item counters, filled in by {!map} when passed:
    [per_domain.(w)] is the number of items worker [w] completed (worker
    0 is the calling domain; the array length is the worker count the
    call actually used, which is 1 under the inline rule).  Purely
    observational — the result list is bit-identical with or without a
    tally — and the slot sums always equal the item count.  Feeds the
    {!Metrics} registry in the sweep harnesses. *)

val tally : unit -> tally
(** An empty tally (replaced wholesale by the next {!map} it is passed
    to). *)

val map : ?domains:int -> ?tally:tally -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f items] is [List.map f items], evaluated on up to
    [domains] domains: the calling one and [domains - 1] helpers (default
    {!default_domains}; values [<= 1] run sequentially on the calling
    domain, with no helpers).  If any [f item] raises, the exception of
    the smallest-index failing item is re-raised (with its backtrace)
    after every helper has finished with the map. *)

val mapi : ?domains:int -> ?tally:tally -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing each item's index. *)
