type t = { id : int; base : string }

(* atomic: symbols are minted from several domains when sweeps tile
   candidate points in parallel (Pool) *)
let counter = Atomic.make 0

let fresh base = { id = Atomic.fetch_and_add counter 1 + 1; base }

let base t = t.base
let name t = t.base ^ "_" ^ string_of_int t.id
let equal a b = a.id = b.id
let hash t = t.id
let compare a b = Int.compare a.id b.id
let pp fmt t = Format.pp_print_string fmt (name t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
