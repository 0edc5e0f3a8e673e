(** Process-wide registry of named counters, gauges and timers.

    Counters are atomic (safe to bump from pool domains), gauges and
    timers are mutex-protected.  Recording is always on and cheap; the
    CLI prints or dumps the registry only under [--metrics].  Names are
    dotted paths ([dse.points.evaluated], [pass.fusion], ...); the
    catalog lives in [doc/OBSERVABILITY.md].

    A name is bound to one kind on first use; later uses with a
    different kind are ignored rather than raising, so instrumentation
    can never crash the pipeline. *)

type value =
  | Counter of int
  | Gauge of float
  | Timer of { seconds : float; count : int }

val incr : ?by:int -> string -> unit
(** Bump a counter (created at 0 on first use). *)

val set_gauge : string -> float -> unit
(** Set a gauge to the given value. *)

val time : string -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its wall-clock duration and a call count
    into the named timer, and the minor-heap words it allocates (on the
    calling domain) into the counter [<name>.words] of {!snapshot}. *)

val snapshot : unit -> (string * value) list
(** All entries, sorted by name. *)

val diff :
  base:(string * value) list -> (string * value) list -> (string * value) list
(** [diff ~base cur] is the per-invocation delta between two snapshots:
    counters and timers subtract (entries unchanged since [base] are
    dropped), gauges keep their current value.  Entries new since
    [base] pass through verbatim.  The registry is process-global, so
    CLI subcommands report [diff ~base:(snapshot at entry)] rather than
    lifetime totals. *)

val to_json : unit -> string
(** [{"counters": {...}, "gauges": {...}, "timers": {name: {"seconds":
    s, "count": n}}}], keys sorted. *)

val values_to_json : (string * value) list -> string
(** Same JSON shape over an explicit snapshot (or {!diff} result). *)

val pp_values : Format.formatter -> (string * value) list -> unit
(** Aligned text dump of an explicit snapshot (or {!diff} result). *)

val reset : unit -> unit
(** Drop every entry (used by tests). *)
