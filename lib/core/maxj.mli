(** MaxJ-like hardware generation language emission.

    The paper's compiler emits MaxJ, a Java-based HGL whose programs
    instantiate parameterizable templates (Section 5, Table 4).  The
    Maxeler toolchain is not available here, so this emitter produces
    faithful MaxJ-{e like} text — a Kernel class instantiating the same
    template vocabulary with the same parameters — so generated designs
    are inspectable and diffable. *)

val emit : Hw.design -> string
(** The full kernel text for a design, written in one walk into one
    buffer.  Trip counts are {!Hw.add_trip}'s text and float constants
    in the dataflow comments are C's [%g]. *)
