type t =
  | F of float
  | I of int
  | B of bool
  | Tup of t list
  | Arr of t Ndarray.t
  | Assoc of (t * t) list

let rec deep_copy = function
  | (F _ | I _ | B _) as v -> v
  | Tup vs -> Tup (List.map deep_copy vs)
  | Arr a -> Arr (Ndarray.map deep_copy a)
  | Assoc kvs -> Assoc (List.map (fun (k, v) -> (deep_copy k, deep_copy v)) kvs)

let float_eq eps a b =
  if Float.is_nan a && Float.is_nan b then true
  else
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= eps *. scale

let rec equal ?(eps = 1e-9) v1 v2 =
  match (v1, v2) with
  | F a, F b -> float_eq eps a b
  | I a, I b -> a = b
  | B a, B b -> a = b
  | Tup a, Tup b ->
      List.length a = List.length b && List.for_all2 (equal ~eps) a b
  | Arr a, Arr b -> Ndarray.equal (equal ~eps) a b
  | Assoc a, Assoc b ->
      List.length a = List.length b
      && List.for_all2
           (fun (k1, x1) (k2, x2) -> equal ~eps k1 k2 && equal ~eps x1 x2)
           a b
  | _ -> false

let rec pp fmt = function
  | F x -> Format.fprintf fmt "%g" x
  | I x -> Format.pp_print_int fmt x
  | B x -> Format.pp_print_bool fmt x
  | Tup vs ->
      Format.fprintf fmt "(@[<hov>%a@])"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp)
        vs
  | Arr a -> Ndarray.pp pp fmt a
  | Assoc kvs ->
      Format.fprintf fmt "{@[<hov>%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
           (fun fmt (k, v) -> Format.fprintf fmt "%a -> %a" pp k pp v))
        kvs

let to_string v = Format.asprintf "%a" pp v

let of_float_list l = Arr (Ndarray.of_list (List.map (fun x -> F x) l))
let of_int_list l = Arr (Ndarray.of_list (List.map (fun x -> I x) l))

let to_int = function
  | I x -> x
  | v -> invalid_arg ("Value.to_int: " ^ to_string v)

let to_bool = function
  | B x -> x
  | v -> invalid_arg ("Value.to_bool: " ^ to_string v)

let to_arr = function
  | Arr a -> a
  | v -> invalid_arg ("Value.to_arr: " ^ to_string v)
