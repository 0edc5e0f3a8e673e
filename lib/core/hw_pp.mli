(** Human-readable rendering of hardware designs: an indented controller
    tree plus the memory table (used by the CLI and in tests). *)

val design_to_string : Hw.design -> string
(** The whole listing, written into one buffer; trip counts are
    {!Hw.add_trip}'s text. *)

val mem_kind_name : Hw.mem_kind -> string
val template_name : Hw.pipe_template -> string
