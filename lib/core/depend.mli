(** Dependence core: injectivity of affine write maps over iteration
    domains.

    A MultiFold output is updated at a region whose offsets are (when
    the program is analyzable at all) affine in the pattern's iteration
    indices.  Whether two distinct iterations can touch the same
    accumulator cell is exactly the question of whether that affine map
    is injective over the iteration box — the fact the paper's tiling
    story (Section 4) relies on to parallelize MultiFolds without
    hardware interlocks.  This module answers it with two decision
    procedures that need no polyhedral library:

    - a disproof: pairwise GCD/kernel test — for each pair of axes,
      the minimal integer kernel direction of the map restricted to the
      pair; if it fits inside the axes' extents, two iterations
      provably collide (plus the degenerate case of an axis the map
      never reads);
    - a proof: greedy dominant-stride peeling — repeatedly find an
      axis whose stride in some output dimension strictly dominates
      the maximal contribution of all other unpeeled axes
      (the mixed-radix argument), peel it, and recurse.

    Neither side is complete; the gap is reported as {!Unknown}. *)

type axis = {
  asym : Sym.t;  (** iteration index symbol, counting from 0 *)
  extent : int option;
      (** static trip-count upper bound ([Some]), or symbolic/unknown
          ([None]).  Extents are upper bounds: proofs treat them
          conservatively, disproofs mean "for sizes that reach the
          bound". *)
}

type verdict =
  | Injective  (** distinct iterations write distinct cells *)
  | Overlapping of { dims : Sym.t list; reason : string }
      (** provably non-injective; [dims] are the iteration axes whose
          variation produces the collision *)
  | Unknown of string  (** neither provable nor refutable here *)

val injectivity : axes:axis list -> Affine.t list -> verdict
(** [injectivity ~axes maps] decides whether the map
    [i ↦ (maps_0(i), …, maps_k(i))] is injective over the box
    [0 ≤ i_j < extent_j].  Symbols in [maps] that are not axes (size
    parameters) are constants of the map and cannot affect the
    verdict.  Axes with extent [0] or [1] are ignored. *)
