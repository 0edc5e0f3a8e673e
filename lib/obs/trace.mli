(** Span-based tracing, serialized as Chrome trace-event JSON.

    The collector is a process-wide, mutex-protected event buffer that
    every layer of the stack writes into when tracing is enabled (it is
    off by default and costs one atomic load per instrumentation point
    when off).  Two clocks coexist, kept apart by the trace-event [pid]:

    - {b wall clock} ([pid] {!wall_pid}): compiler passes, recorded as
      complete ("X") events whose [ts]/[dur] are microseconds since
      {!enable}.  One track per OCaml domain, so passes running inside a
      {!Pool} sweep nest correctly.  Wall events are the only
      nondeterministic part of a trace; golden tests strip them by
      filtering on the pid.
    - {b virtual clock} ([pid] {!virtual_pid}): simulator timelines,
      recorded as begin/end ("B"/"E") pairs whose timestamps are virtual
      cycles.  One track per metapipeline stage (plus a DRAM-busy
      track); spans on a track never overlap, so the B/E stack is always
      balanced.  Virtual events are bit-deterministic across runs and
      domain counts.

    The serialized form ({!to_json}) is the Chrome trace-event
    JSON array format: load it at [ui.perfetto.dev] or
    [chrome://tracing].  One event per line, events ordered virtual
    first then wall, each track's events in record order — so stripping
    wall lines yields a byte-stable golden form. *)

type arg = Int of int | Float of float | Str of string
(** Argument values attached to a span (rendered under ["args"]). *)

val wall_pid : int
(** The trace-event pid carrying wall-clock (nondeterministic) events. *)

val virtual_pid : int
(** The trace-event pid carrying virtual-cycle (deterministic) events. *)

val enable : unit -> unit
(** Start collecting; resets the wall-clock epoch to now. *)

val disable : unit -> unit
(** Stop collecting (already-recorded events are kept until {!clear}). *)

val clear : unit -> unit
(** Drop all recorded events. *)

val enabled : unit -> bool

val with_span :
  ?cat:string -> ?args:(unit -> (string * arg) list) -> string ->
  (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a wall-clock span.  When
    tracing is disabled this is just [f ()].  [args] is evaluated {e
    after} [f] returns, so it can report results (e.g. after-pass IR
    stats stashed in a ref by [f]).  The span is recorded even when [f]
    raises. *)

val pass : string -> args:('a -> (string * arg) list) -> (unit -> 'a) -> 'a
(** [pass name ~args f] runs one compiler pass [f ()]: always timed as
    the [pass.<name>] metric ({!Metrics.time}), and when tracing is on
    recorded as a ["pass"] span [name] carrying [args] of the pass's
    result (no args when [f] raises).  When tracing is off [f] is called
    directly. *)

val virtual_span :
  ?cat:string -> track:string -> name:string -> start:float ->
  finish:float -> ?args:(string * arg) list -> unit -> unit
(** Record one virtual-cycle span as a B/E pair on [track].  Spans on
    the same track must be recorded in start order and must not overlap
    (the simulator's per-stage schedules guarantee both). *)

val to_json : unit -> string
(** Serialize the collected events as Chrome trace-event JSON.  The
    text is written into one buffer the collector keeps across calls
    (it retains the capacity of the largest trace written so far) while
    the collector's lock is held, so concurrent calls and recording wait
    for each other; the result is a fresh string. *)

type tracks
(** Per-track occupancy of virtual spans, accumulated in place: span
    count, summed span cycles, earliest start and latest finish. *)

val tracks : unit -> tracks
(** An empty accumulator. *)

val add_track_span :
  tracks -> track:string -> start:float -> finish:float -> unit
(** Count one span on [track]. *)

val iter_tracks :
  tracks -> makespan:float ->
  (string -> spans:int -> busy:float -> util:float -> stall:float -> unit) ->
  unit
(** Visit every track in name order with its span count, busy cycles,
    utilization [busy /. makespan] (0 when [makespan] is not positive)
    and stall [last -. first -. busy] (clamped at 0). *)

val summary : unit -> string
(** Human-readable digest: per-virtual-track span counts, busy cycles,
    utilization and stall against the overall makespan, and the top
    wall-clock spans aggregated by name. *)
