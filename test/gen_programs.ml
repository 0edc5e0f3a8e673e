(* Random parallel-pattern programs for whole-pipeline tests: random
   shapes from a template grammar with random scalar bodies.  Shared by
   [test_random_programs] and [test_linear_passes]. *)

module R = Workloads.Rng

(* ---------------- random scalar expressions ---------------- *)

(* a random float-valued expression over the given float-valued atoms *)
let rec gen_scalar rng depth atoms =
  let n_atoms = List.length atoms in
  if depth = 0 || R.int rng 4 = 0 then
    if n_atoms > 0 && R.int rng 4 > 0 then List.nth atoms (R.int rng n_atoms)
    else Ir.Cf (float_of_int (R.int rng 9) /. 2.0)
  else
    let a = gen_scalar rng (depth - 1) atoms in
    let b = gen_scalar rng (depth - 1) atoms in
    match R.int rng 6 with
    | 0 -> Ir.Prim (Ir.Add, [ a; b ])
    | 1 -> Ir.Prim (Ir.Sub, [ a; b ])
    | 2 -> Ir.Prim (Ir.Mul, [ a; b ])
    | 3 -> Ir.Prim (Ir.Min, [ a; b ])
    | 4 -> Ir.Prim (Ir.Max, [ a; b ])
    | _ -> Ir.If (Ir.Prim (Ir.Lt, [ a; Ir.Cf 0.5 ]), a, b)

(* ---------------- program templates ---------------- *)

type setup = {
  prog : Ir.program;
  n : Sym.t;
  m : Sym.t;
  x1 : Ir.input;  (* float vector of length n *)
  x2 : Ir.input;  (* float matrix n x m *)
}

(* With [~scalars:names] the body is wrapped in one scalar binding
   [name = 1.5] per name, outermost first, and every random scalar
   expression reads them all.  The default [[]] adds no binding and draws
   nothing more from [rng], so a seed's program is unchanged. *)
let make_setup ?(scalars = []) rng shape_id =
  let open Dsl in
  let n = size "n" and m = size "m" in
  let x1 = input "x1" Ty.float_ [ Ir.Var n ] in
  let x2 = input "x2" Ty.float_ [ Ir.Var n; Ir.Var m ] in
  let v1 i = read (in_var x1) [ i ] in
  let v2 i j = read (in_var x2) [ i; j ] in
  let shape sc =
    match shape_id with
    | 0 ->
        (* element-wise map *)
        map1 (dfull (Ir.Var n)) (fun i -> sc [ v1 i ])
    | 1 ->
        (* 2-D map *)
        map2d (dfull (Ir.Var n)) (dfull (Ir.Var m)) (fun i j ->
            sc [ v1 i; v2 i j ])
    | 2 ->
        (* scalar reduction *)
        fold1 (dfull (Ir.Var n)) ~init:(f 0.0)
          ~comb:(fun a b -> a +! b)
          (fun i acc -> acc +! sc [ v1 i ])
    | 3 ->
        (* producer-consumer: map feeding a fold (vertical fusion food) *)
        let_ ~name:"t"
          (map1 (dfull (Ir.Var n)) (fun i -> sc [ v1 i ]))
          (fun t ->
            fold1 (dfull (Ir.Var n)) ~init:(f 0.0)
              ~comb:(fun a b -> a +! b)
              (fun i acc -> acc +! read t [ i ]))
    | 4 ->
        (* map of folds: interchange rule 1 candidate *)
        map1 (dfull (Ir.Var n)) (fun i ->
            fold1 (dfull (Ir.Var m)) ~init:(f 0.0)
              ~comb:(fun a b -> a +! b)
              (fun j acc -> acc +! sc [ v1 i; v2 i j ]))
    | 5 ->
        (* row sums as MultiFold with unit regions (localization food) *)
        multifold
          [ dfull (Ir.Var n); dfull (Ir.Var m) ]
          ~init:(zeros Ty.Float [ Ir.Var n ])
          ~comb:(fun a b ->
            map1 (dfull (Ir.Var n)) (fun i -> read a [ i ] +! read b [ i ]))
          (fun idxs ->
            match idxs with
            | [ i; j ] ->
                [ { range = [ Ir.Var n ];
                    region = point [ i ];
                    upd = (fun acc -> acc +! sc [ v2 i j ]) } ]
            | _ -> assert false)
    | 6 ->
        (* filter then reduce over the dynamic result *)
        let_ ~name:"kept"
          (flatmap (dfull (Ir.Var n)) (fun i ->
               if_ (v1 i >! f 0.5) (arr [ sc [ v1 i ] ]) (empty Ty.float_)))
          (fun kept ->
            fold1 (dfull (len kept 0)) ~init:(f 0.0)
              ~comb:(fun a b -> a +! b)
              (fun j acc -> acc +! read kept [ j ]))
    | 7 ->
        (* group-by-fold with small integer keys *)
        groupbyfold (dfull (Ir.Var n)) ~init:(f 0.0)
          ~comb:(fun a b -> a +! b)
          (fun i ->
            ( to_int (v1 i *! f 4.0),
              fun acc -> acc +! sc [ v1 i ] ))
    | 8 ->
        (* column sums: fold of a map (interchange rule 2 candidate) *)
        fold1 (dfull (Ir.Var n))
          ~init:(zeros Ty.Float [ Ir.Var m ])
          ~comb:(fun a b ->
            map1 (dfull (Ir.Var m)) (fun j -> read a [ j ] +! read b [ j ]))
          (fun i acc ->
            map1 (dfull (Ir.Var m)) (fun j -> read acc [ j ] +! v2 i j))
    | _ ->
        (* two maps then a combining fold (horizontal fusion food) *)
        let_ ~name:"ta"
          (map1 (dfull (Ir.Var n)) (fun i -> sc [ v1 i ]))
          (fun ta ->
            let_ ~name:"tb"
              (map1 (dfull (Ir.Var n)) (fun i -> sc [ v1 i ]))
              (fun tb ->
                fold1 (dfull (Ir.Var n)) ~init:(f 0.0)
                  ~comb:(fun a b -> a +! b)
                  (fun i acc -> acc +! (read ta [ i ] *! read tb [ i ]))))
  in
  let rec bind vs = function
    | [] ->
        shape (fun atoms ->
            List.fold_left ( *! ) (gen_scalar rng 2 atoms) (List.rev vs))
    | name :: rest -> let_ ~name (f 1.5) (fun v -> bind (v :: vs) rest)
  in
  let body = bind [] scalars in
  let prog =
    program ~name:(Printf.sprintf "rand%d" shape_id) ~sizes:[ n; m ]
      ~max_sizes:[ (n, 1 lsl 16); (m, 1 lsl 16) ]
      ~inputs:[ x1; x2 ] body
  in
  { prog; n; m; x1; x2 }

let n_shapes = 10
