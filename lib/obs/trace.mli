(** Span-based tracing, serialized as Chrome trace-event JSON.

    The collector is a process-wide, mutex-protected store that every
    layer of the stack writes into when tracing is enabled (it is off by
    default and costs one atomic load per instrumentation point when
    off).  It holds one event form: a {e block} of spans stored by
    {!columns}, all of one pid and category.  {!with_span} and
    {!virtual_span} record a block of one span, {!virtual_run} a
    simulator run's columns by reference.  Two clocks coexist, kept apart
    by the trace-event [pid]:

    - {b wall clock} ([pid] 0): compiler passes, written as
      complete ("X") events whose [ts]/[dur] are microseconds since
      {!enable}.  One track per OCaml domain, so passes running inside a
      {!Pool} sweep nest correctly.  Wall events are the only
      nondeterministic part of a trace; golden tests strip them by
      filtering on the pid.
    - {b virtual clock} ([pid] {!virtual_pid} = 1): simulator timelines,
      written as begin/end ("B"/"E") pairs whose timestamps are virtual
      cycles.  One track per metapipeline stage (plus a DRAM-busy
      track); spans on a track never overlap, so the B/E stack is always
      balanced.  Virtual events are bit-deterministic across runs and
      domain counts.

    The serialized form ({!output}, {!to_json}) is the Chrome trace-event
    JSON array format: load it at [ui.perfetto.dev] or
    [chrome://tracing].  One event per line, events ordered virtual
    first then wall, each track's events in record order (a block's
    spans in index order, at the point the block was recorded) — so
    stripping wall lines yields a byte-stable golden form. *)

type arg = Int of int | Float of float | Str of string
(** Argument values attached to a span (rendered under ["args"]). *)

val virtual_pid : int
(** The trace-event pid carrying virtual-cycle (deterministic) events. *)

val enable : unit -> unit
(** Start collecting; resets the wall-clock epoch to now. *)

val disable : unit -> unit
(** Stop collecting (already-recorded events are kept until {!clear}). *)

val clear : unit -> unit
(** Drop all recorded events. *)

val with_span :
  ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a wall-clock span of category
    ["pass"].  When tracing is disabled this is just [f ()].  [args] is
    evaluated {e after} [f] returns, so it can report results (e.g.
    after-pass IR stats stashed in a ref by [f]).  The span is recorded
    even when [f] raises. *)

val pass : string -> args:('a -> (string * arg) list) -> (unit -> 'a) -> 'a
(** [pass name ~args f] runs one compiler pass [f ()]: always timed as
    the [pass.<name>] metric ({!Metrics.time}, which also counts its
    words as [pass.<name>.words]), and when tracing is on
    recorded as a ["pass"] span [name] carrying [args] of the pass's
    result (no args when [f] raises).  When tracing is off [f] is called
    directly.  [pass name] alone builds the metric name: bind it once,
    not per call. *)

val virtual_span :
  ?cat:string -> track:string -> name:string -> start:float ->
  finish:float -> ?args:(string * arg) list -> unit -> unit
(** Record one virtual-cycle span as a B/E pair on [track].  Spans on
    the same track must be recorded in start order and must not overlap
    (the simulator's per-stage schedules guarantee both).  This is the
    one-span producer; {!virtual_run} records a block of spans at once. *)

(** {2 Recorded runs}

    A simulator run's timeline is registered as columns, and {!to_json}
    and {!summary} read those columns in place: no record per span is
    made between the simulator and the writer. *)

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
(** A block of spans by columns: a recorded run, or the collector's
    form of any span.  Span [i] lies on track
    [tracks.(track_id.(i)).track] from [start.(i)] to [finish.(i)]; it is
    named [label], followed by the digits of [instance.(i)] when
    [numbered], and carries the one arg [key = instance.(i)] unless the
    block has args of its own.  Tracks may share a name: the spans on one
    name, in index order, must obey {!virtual_span}'s start-order rule. *)

val virtual_run : ?args:(string * arg) list -> columns -> unit
(** [virtual_run c] records what {!virtual_span} ([~cat:"sim"]) would
    for every span of [c], in index order, under one lock.  Each span
    carries [args] when given, and otherwise its track's one arg [key =
    instance].  The collector keeps [c] by reference, so its arrays must
    not change afterwards. *)

val output : out_channel -> unit
(** Write the collected events as Chrome trace-event JSON to the
    channel, while the collector's lock is held, so concurrent calls and
    recording wait for each other.  Every block is read in place,
    grouped by track with one stable counting sort: each of its track
    labels and arg keys is escaped once, and one loop writes a wall
    span's X line and a virtual span's B/E pair.  The text goes through
    one chunk of 64 KiB the collector keeps: instance digits and
    timestamps are written into it in place ({!Json_out.put_int},
    {!Json_out.put_float}), and each full chunk goes to the channel, so
    no trace-sized string is built.  A piece longer than the chunk, such
    as a huge label, is written whole across chunks. *)

val to_json : unit -> string
(** {!output} into a buffer the collector keeps across calls (it retains
    the capacity of the largest trace written so far), then one copy of
    it: the same bytes, as a fresh string.  Only in-process callers (the
    tests and the benchmark) use it; the CLI writes through {!output}. *)

type tracks
(** Per-track occupancy of virtual spans, accumulated in place: span
    count, summed span cycles, earliest start and latest finish. *)

val tracks : unit -> tracks
(** An empty accumulator. *)

val add_track_span :
  tracks -> track:string -> start:float -> finish:float -> unit
(** Count one span on [track]. *)

val add_run : tracks -> columns -> unit
(** [add_run acc c] counts every span of [c] in index order, as
    {!virtual_run} records them, in one pass over the columns. *)

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
    wall-clock spans aggregated by name.  Virtual blocks are read in
    place, through {!add_run}. *)
