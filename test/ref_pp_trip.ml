(* Reference copy of the trip printer as it was when every trip went
   through [Format]: integral constants as [%.0f], everything else as
   [%g].  Test-only; [test_emitters] checks [Hw.add_trip] against it. *)

let rec pp_trip fmt = function
  | Hw.Tconst c ->
      if Float.is_integer c then Format.fprintf fmt "%.0f" c
      else Format.fprintf fmt "%g" c
  | Hw.Tsize s -> Sym.pp fmt s
  | Hw.Tceil_div (t, b) -> Format.fprintf fmt "ceil(%a/%d)" pp_trip t b
  | Hw.Tavg_tail { total; tile } ->
      Format.fprintf fmt "avg(%a@%d)" pp_trip total tile
  | Hw.Tmul (a, b) -> Format.fprintf fmt "%a*%a" pp_trip a pp_trip b
  | Hw.Tscale (f, t) -> Format.fprintf fmt "%g*%a" f pp_trip t
