(** Stamp stable source-pattern provenance ids onto a pattern IR tree.

    Each pattern node (Map/Fold/MultiFold/FlatMap/GroupByFold) gets an
    origin of the form ["<pname>/<kind>#<n>"] where [n] is the node's
    preorder position among pattern nodes.  Nodes that already carry
    provenance are left untouched, so stamping is idempotent and safe to
    re-run defensively before lowering; the preorder counter still
    advances over stamped nodes, so ids are stable for a given tree. *)

val exp : pname:string -> Ir.exp -> Ir.exp

val program : Validate.checked -> Ir.program
(** The checked program, its body stamped.  One whose check saw every
    pattern stamped ({!Validate.stamped}) is returned as is (physically
    equal), without a walk. *)
