type counts = (Sym.t * int) list

let run (p : Ir.program) ~sizes ~inputs =
  let table = Hashtbl.create 8 in
  List.iter (fun (inp : Ir.input) -> Hashtbl.replace table inp.Ir.iname 0) p.Ir.inputs;
  let hook s w =
    match Hashtbl.find_opt table s with
    | Some c -> Hashtbl.replace table s (c + w)
    | None -> ()
  in
  let v =
    Eval.with_hook hook (fun () -> Eval.eval_program p ~sizes ~inputs)
  in
  let counts =
    List.map (fun (inp : Ir.input) ->
        (inp.Ir.iname, Hashtbl.find table inp.Ir.iname))
      p.Ir.inputs
  in
  (v, counts)

let words counts s =
  match List.find_opt (fun (k, _) -> Sym.equal k s) counts with
  | Some (_, w) -> w
  | None -> 0
