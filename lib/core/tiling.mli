(** The tiling pipeline driver (Figure 1, "Pattern Transformations").

    Sequencing: fusion and cleanup passes first (the paper assumes they
    have already been run, Section 4), then strip mining, then pattern
    interchange, then tile-copy inference with CSE and code motion to
    deduplicate and hoist the copies.

    Intermediate programs are retained so the evaluation can report them
    separately — Fig. 5c compares main-memory traffic of the {e fused},
    {e strip-mined} and {e interchanged} forms of k-means.

    This module is where programs are type-checked
    ({!Validate.check_program}), each once, where it is made: the
    provenance-stamped source and the fused form in {!front}, the
    strip-mined and the final form in each {!tiled} call, and the
    reporting form in {!run}.  Each check hands its {!Validate.checked}
    on: the fused form's to {!Strip_mine} (once per sweep), the
    strip-mined form's to {!Interchange}, and the final form's to
    {!Lower.shape}, none of which checks or types the program again. *)

type result = {
  fused : Ir.program;  (** after fusion, CSE, code motion, simplification *)
  stripped : Ir.program;  (** after strip mining (no copies yet) *)
  stripped_with_copies : Ir.program;
      (** strip-mined form with tile copies — Fig. 5a with copies *)
  tiled : Ir.program;
      (** final: interchanged, copies inserted, cleaned — Fig. 5b *)
  fused_check : Validate.checked;  (** [fused]'s check *)
  stripped_check : Validate.checked;  (** [stripped]'s; [Interchange] extends its table *)
  tiled_check : Validate.checked;  (** [tiled]'s check *)
}

val run :
  ?fuse_filters:bool ->
  tiles:(Sym.t * int) list ->
  Ir.program ->
  result
(** [run ~tiles p] is {!front} followed by {!tiled}, plus the
    [stripped_with_copies] reporting form, which only [run] builds.
    [p] may be ill-typed.  Every stage it returns has passed
    {!Validate.check_program}, so each may be lowered as is.

    @raise Invalid_argument on a tile size below 1 or a tile on a name
    that is not a size parameter of [p].
    @raise Validate.Type_error if the input program is ill-typed. *)

(** {1 Staged tiling}

    Only strip mining, interchange and copy insertion depend on the tile
    sizes.  A sweep over many tile configurations of one program runs
    {!front} once and {!tiled} once per configuration, and never builds
    the [stripped_with_copies] form it would not read. *)

type front
(** A program after the tile-independent stages. *)

val front : Ir.program -> front
(** Provenance stamping, validation of the input, {!canonicalize_lens},
    fusion and cleanup (CSE, code motion, simplification), and
    validation of the fused form: the two checks a sweep makes once.
    The input may be ill-typed.  Never raises {!Validate.Type_error}:
    an ill-typed input is held and re-raised by {!fused} and {!tiled}. *)

val fused : front -> Validate.checked
(** The fused form's check; its program is {!Alpha.equal} to
    [(run ~tiles p).fused].
    @raise Validate.Type_error if the input program is ill-typed. *)

val tiled : front -> tiles:(Sym.t * int) list -> Validate.checked
(** The tile checks, strip mining + simplification (validated), then
    interchange + copy insertion + cleanup (validated): the final form's
    check, whose program is {!Alpha.equal} to [(run ~tiles p).tiled].
    The two validations are the only typing walks a tile point makes.
    A rejected tile configuration takes precedence over an ill-typed
    input, as in {!run}.
    @raise Invalid_argument on a rejected tile configuration.
    @raise Validate.Type_error if the input program is ill-typed or a
    stage fails to re-validate at these tiles. *)

val canonicalize_lens : Ir.program -> Ir.program
(** Replace [Len] of a program input by the input's declared shape
    expression, so domain sizes are visible to the tile configuration. *)
