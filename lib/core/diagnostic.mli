(** Structured compiler diagnostics.

    Every analyzer finding — from the structural validator
    ({!Hw_check}), the design linter ({!Hw_lint}), the source-level
    pattern linter ({!Ppl_lint}) or the bounds checker ({!Bounds}) — is
    a value of {!t}: a stable code (["HW101"], ["PPL201"]), a severity,
    the path from the root to the offending node (controller path for
    designs, pattern path for the IR), the memory/controller/array the
    finding is about, and a human message.  Codes are documented in
    [doc/LINTS.md] and are part of the tool's interface: scripts may
    match on them, so existing codes keep their meaning across
    releases. *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable identifier, e.g. ["HW101"] *)
  severity : severity;
  path : string list;
      (** controller path from the design root to the finding, outermost
          first; [[]] for design- or memory-table-level findings *)
  where : string;  (** the memory or controller the finding is about *)
  message : string;
}

val make :
  ?path:string list ->
  code:string ->
  severity:severity ->
  where:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [make ~code ~severity ~where fmt ...] builds a diagnostic with a
    printf-formatted message. *)

val severity_name : severity -> string

val compare_codes : string -> string -> int
(** Numeric-aware code order: alphabetic family first ([HW] before
    [PPL]), then the numeric part as a number — ["HW90"] sorts before
    ["HW101"], which plain string comparison gets wrong. *)

val compare : t -> t -> int
(** Orders errors before warnings before infos, then by
    {!compare_codes} on the code, then by location — the order
    renderers present lists in. *)

val errors : t list -> t list
(** The error-severity subset. *)

val has_errors : t list -> bool

val summary : t list -> string
(** e.g. ["2 errors, 1 warning, 4 infos"]; ["clean"] for the empty
    list. *)

val pp : Format.formatter -> t -> unit
(** One line: [CODE severity [path]: where: message]. *)

val pp_list : Format.formatter -> t list -> unit
(** Sorted with {!compare}, one per line. *)

val list_to_json : t list -> string
(** A JSON array, sorted with {!compare}, of one object per diagnostic
    with [code], [severity], [path], [where] and [message] fields. *)
