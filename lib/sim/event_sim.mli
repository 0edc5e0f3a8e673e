(** Event-level simulation of a hardware design.

    Where {!Simulate} composes closed-form cycle counts, this engine
    schedules every controller {e instance} (each loop iteration of each
    stage) on a virtual timeline with two structural constraints the
    analytic model only approximates:

    - {b double buffering}: stage [s] of metapipeline iteration [i] starts
      only once stage [s-1] has finished iteration [i] {e and} stage [s]
      itself has finished iteration [i-1];
    - {b DRAM serialization}: all tile load/store units and direct-access
      streams contend for one memory interface.  Each transfer is granted
      the earliest idle time at or after its request, so it can back-fill
      a gap left before transfers booked earlier.

    Agreement between the two engines (checked in the test suite) validates
    the analytic metapipeline formula [fill + (trips-1) * max(slowest
    stage, sum of memory stages)] that Fig. 7 rests on.

    Designs whose loop structure exceeds {!val:max_events} controller
    instances fall back to the analytic engine for the offending subtree
    (reported in {!result}); none of the paper's designs do. *)

(** {1 Timeline}

    With [~record:true], {!run} additionally captures its virtual
    schedule as a Gantt timeline: one track per metapipeline stage
    (track [loop.stage], one span per iteration instance), one track
    per top-level controller, and the DRAM busy calendar.  The timeline
    is a pure function of (sizes, design) on {!Machine.default} —
    bit-identical across runs — and is what [ppl-fpga timeline] and
    [--trace] export
    as Perfetto JSON (see {!Sim_trace}).

    The engine records the schedule as columns ({!Trace.columns}): each
    span it finishes is appended as its track id, start, finish and
    instance number to growable int and float arrays, and a per-run
    track table holds each track's name, its span label (the
    ["<stage>#"] prefix of a stage's instances, or a top-level
    controller's name) and its arg key ([iteration] or [top-level]).
    Recording allocates no record and no string per span; the trace
    writer reads the columns in place. *)

type timeline = {
  tl_columns : Trace.columns;
      (** the spans in schedule order: a span is appended when its
          instance finishes, so a top-level controller's span follows
          every stage span inside it; per-track starts ascend *)
  tl_dram : Trace.columns;
      (** the merged DRAM busy intervals, ascending: spans named
          ["busy"] on track ["DRAM"], whose start and finish columns are
          the calendar's own arrays; they carry no arg ([key] is
          empty) *)
  tl_makespan : float;  (** = [report.cycles] *)
}

val tl_dram_busy : timeline -> (float * float) list
(** [tl_dram]'s intervals as a list, for tests; the trace path reads the
    columns. *)

type span = {
  sp_track : string;  (** e.g. ["loop_3.stage_load_4"] *)
  sp_name : string;  (** instance label, e.g. ["stage_load_4#17"] *)
  sp_start : float;  (** virtual cycles *)
  sp_finish : float;
  sp_args : (string * float) list;  (** e.g. the iteration index *)
}

val spans : timeline -> span list
(** The timeline's spans one record each, in column (schedule) order:
    a stage instance is named ["<stage>#<i>"] with args
    [[("iteration", i)]], a top-level controller by its name with
    [[("top-level", 1.)]].  For tests and tools; the trace path reads
    the columns. *)

type result = {
  report : Simulate.report;
  events : int;  (** controller instances scheduled *)
  fallbacks : int;  (** subtrees beyond the event budget, analytic *)
  coalesced : int;
      (** times the DRAM calendar passed 2048 busy spans and its oldest
          half was folded into one busy span; each such fold can only
          delay later transfers that would have back-filled those gaps *)
  timeline : timeline option;  (** present iff [~record:true] *)
}

val max_events : int

(** The shared DRAM interface: a calendar of busy intervals.  A request
    for [dur] cycles at time [t] consumes the calendar's idle gaps in time
    order from [max t 0] on (the interface time-multiplexes transfers at
    burst granularity, so a request need not fit one contiguous slot).
    A request at or after the last span's start extends that span or
    appends one after it: O(1) amortized, with no allocation beyond the
    arrays' doubling.  Any other request costs an O(log n) search in the
    calendar's span count n, the walk over the idle gaps it consumes,
    and one shift of at most 2,049 spans. *)
module Dram_calendar : sig
  type t
  (** mutable; one calendar belongs to one run *)

  val create : unit -> t
  (** an empty calendar *)

  val acquire : t -> float -> float -> float
  (** [acquire c t dur] books [dur] cycles of [c] no earlier than [t] and
      returns the completion time.  [dur <= 0] books nothing and
      completes at [t]. *)

  val spans : t -> (float * float) list
  (** the busy intervals, ascending, disjoint and non-touching *)

  val coalesced : t -> int
  (** how many times the calendar has passed 2048 spans and folded its
      oldest half into one span *)
end

val run : ?record:bool -> Hw.design -> sizes:(Sym.t * int) list -> result
