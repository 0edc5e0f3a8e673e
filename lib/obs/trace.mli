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
      written as begin/end ("B"/"E") pairs whose timestamps are virtual
      cycles.  A simulator run registers its whole timeline in one call
      ({!virtual_run}); {!virtual_span} records a single span.  One track per metapipeline stage (plus a DRAM-busy
      track); spans on a track never overlap, so the B/E stack is always
      balanced.  Virtual events are bit-deterministic across runs and
      domain counts.

    The serialized form ({!to_json}) is the Chrome trace-event
    JSON array format: load it at [ui.perfetto.dev] or
    [chrome://tracing].  One event per line, events ordered virtual
    first then wall, each track's events in record order (a run's spans
    in index order, at the point the run was registered) — so stripping
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
    (the simulator's per-stage schedules guarantee both).  This is the
    one-span producer; {!virtual_run} records a simulator's whole
    timeline at once. *)

(** {2 Recorded runs}

    A simulator run's timeline is registered once, as columns, and
    {!to_json} and {!summary} read those columns in place: no record per
    span is made between the simulator and the writer. *)

type run_track = {
  track : string;  (** the track's name *)
  label : string;  (** a span's name, or its prefix when [numbered] *)
  numbered : bool;  (** a span's name is [label] then its instance's digits *)
  key : string;  (** a span's one arg: [key] is its instance *)
}

type columns = {
  tracks : run_track array;  (** indexed by track id *)
  len : int;  (** the spans are [0 .. len-1]; the arrays may be longer *)
  track_id : int array;  (** a span's index into [tracks] *)
  start : float array;  (** virtual cycles *)
  finish : float array;
  instance : int array;
}
(** A recorded run by columns.  Span [i] lies on track
    [tracks.(track_id.(i)).track] from [start.(i)] to [finish.(i)]; it is
    named [label], followed by the digits of [instance.(i)] when
    [numbered], and carries the one arg [key = instance.(i)].  Tracks
    may share a name: the spans on one name, in index order, must obey
    {!virtual_span}'s start-order rule. *)

val virtual_run :
  columns -> track:string -> name:string -> (float * float) list -> unit
(** [virtual_run c ~track ~name intervals] registers one recorded run,
    under one lock: it records what {!virtual_span} ([~cat:"sim"])
    would for every span of [c] in index order, and then for every
    interval as a span [name] on [track] with no args.  The collector
    keeps [c] by reference, so its arrays must not change afterwards. *)

val to_json : unit -> string
(** Serialize the collected events as Chrome trace-event JSON.  The
    text is written into one buffer the collector keeps across calls
    (it retains the capacity of the largest trace written so far) while
    the collector's lock is held, so concurrent calls and recording wait
    for each other; the result is a fresh string.  A recorded run's
    columns are read in place: each of its track labels and arg keys is
    escaped once, and instance numbers are written as digits. *)

type tracks
(** Per-track occupancy of virtual spans, accumulated in place: span
    count, summed span cycles, earliest start and latest finish. *)

val tracks : unit -> tracks
(** An empty accumulator. *)

val add_track_span :
  tracks -> track:string -> start:float -> finish:float -> unit
(** Count one span on [track]. *)

val add_run :
  tracks -> columns -> track:string -> (float * float) list -> unit
(** [add_run acc c ~track intervals] counts every span of [c] and then
    every interval on [track], in the order {!virtual_run} records them,
    in one pass over the columns. *)

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
    wall-clock spans aggregated by name.  Recorded runs are read in
    place, through {!add_run}. *)
