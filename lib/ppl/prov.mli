(** Source-to-hardware provenance.

    A provenance value names the source pattern a node originated from
    (a stable preorder id like ["gemm/map#2"]) plus the trail of
    transformations that produced the node from it (e.g.
    [["strip_mine"; "metapipe.stage1"]]).  Provenance is metadata: no
    pass, check or equivalence may branch on it.  Everything here is
    deterministic — no gensym counters, no timestamps — so provenance
    strings are byte-stable across runs and domain counts. *)

type t = { origin : string; trail : string list }

val none : t
(** The empty provenance carried by freshly constructed nodes before the
    stamping pass runs. *)

val is_none : t -> bool

val root : string -> t
(** [root id] is provenance originating at source pattern [id] with an
    empty trail. *)

val push : t -> string -> t
(** [push p frame] appends [frame] to the transformation trail.  Pushing
    onto {!none} makes [frame] the origin instead, so defensively stamped
    nodes still read sensibly. *)

val frames : t -> string list
(** Origin followed by the trail — the full stack, outermost first. *)

val to_string : t -> string
(** Frames joined with [" -> "]; ["<none>"] for {!none}. *)

val add_text : (Buffer.t -> string -> unit) -> Buffer.t -> t -> unit
(** [add_text add_frame b p] appends {!to_string}[ p] to [b], each frame
    written by [add_frame] (e.g. an escaping writer); the separators and
    ["<none>"] are appended as they are. *)

val folded : t -> string
(** Frames joined with [';'] — one flamegraph stack; in each frame [';'],
    whitespace and control characters become ['_']. *)
