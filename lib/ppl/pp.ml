open Ir

let prim_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Neg -> "neg" | Min -> "min" | Max -> "max" | Abs -> "abs"
  | Sqrt -> "sqrt" | Exp -> "exp" | Log -> "log"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "&&" | Or -> "||" | Not -> "not"
  | ToFloat -> "toFloat" | ToInt -> "toInt"

let is_infix = function
  | Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> true
  | Neg | Min | Max | Abs | Sqrt | Exp | Log | Not | ToFloat | ToInt -> false

let pp_sep_comma fmt () = Format.fprintf fmt ",@ "

let pp_syms fmt = function
  | [ s ] -> Sym.pp fmt s
  | syms ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:pp_sep_comma Sym.pp)
        syms

let rec pp_dom fmt = function
  | Dfull e -> pp_exp fmt e
  | Dtiles { total; tile } -> Format.fprintf fmt "%a/%d" pp_exp total tile
  | Dtail { tile; total; outer } ->
      Format.fprintf fmt "%d@@%a[%a]" tile pp_exp total Sym.pp outer

and pp_doms fmt doms =
  Format.fprintf fmt "(%a)" (Format.pp_print_list ~pp_sep:pp_sep_comma pp_dom) doms

and pp_exp fmt = function
  | Var s -> Sym.pp fmt s
  | Cf f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Format.fprintf fmt "%.1f" f
      else
        (* shortest representation that parses back to the same float *)
        let s = Format.sprintf "%g" f in
        if float_of_string s = f then Format.pp_print_string fmt s
        else
          let s = Format.sprintf "%.12g" f in
          if float_of_string s = f then Format.pp_print_string fmt s
          else Format.fprintf fmt "%.17g" f
  | Ci i -> Format.pp_print_int fmt i
  | Cb b -> Format.pp_print_bool fmt b
  | Tup es ->
      Format.fprintf fmt "(@[<hov>%a@])"
        (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
        es
  | Proj (e, i) -> Format.fprintf fmt "%a._%d" pp_atom e (i + 1)
  | Prim (p, [ a; b ]) when is_infix p ->
      Format.fprintf fmt "@[<hov>%a %s %a@]" pp_atom a (prim_name p) pp_atom b
  | Prim (p, es) ->
      Format.fprintf fmt "%s(@[<hov>%a@])" (prim_name p)
        (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
        es
  | Let (s, e1, e2) ->
      Format.fprintf fmt "@[<v>%a = %a@,%a@]" Sym.pp s pp_exp e1 pp_exp e2
  | If (c, t, e) ->
      Format.fprintf fmt "@[<hov 2>if %a@ then %a@ else %a@]" pp_exp c pp_exp t
        pp_exp e
  | Len (e, i) -> Format.fprintf fmt "%a.dim(%d)" pp_atom e i
  | Read (a, idxs) ->
      Format.fprintf fmt "%a(@[<hov>%a@])" pp_atom a
        (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
        idxs
  | Slice (a, args) ->
      Format.fprintf fmt "%a.slice(@[<hov>%a@])" pp_atom a
        (Format.pp_print_list ~pp_sep:pp_sep_comma (fun fmt -> function
           | SFix e -> pp_exp fmt e
           | SAll -> Format.pp_print_char fmt '*'))
        args
  | Copy { csrc; cdims; creuse } ->
      Format.fprintf fmt "%a.copy(@[<hov>%a@])%s" pp_atom csrc
        (Format.pp_print_list ~pp_sep:pp_sep_comma (fun fmt -> function
           | Coffset { off; len; max_len } ->
               Format.fprintf fmt "%a+:%a%s" pp_atom off pp_atom len
                 (match max_len with
                 | Some m -> Printf.sprintf "~%d" m
                 | None -> "")
           | Call -> Format.pp_print_char fmt '*'
           | Cfix e -> Format.fprintf fmt "@@%a" pp_atom e))
        cdims
        (if creuse > 1 then Printf.sprintf "{reuse=%d}" creuse else "")
  | Zeros (elt, shape) ->
      Format.fprintf fmt "zeros%s(@[<hov>%a@])"
        (match elt with
        | Ty.Scalar Ty.Float -> ""
        | t -> "[" ^ Ty.to_string t ^ "]")
        (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
        shape
  | ArrLit es ->
      Format.fprintf fmt "[@[<hov>%a@]]"
        (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
        es
  | EmptyArr _ -> Format.pp_print_string fmt "[]"
  | Map { mdims; midxs; mbody; _ } ->
      Format.fprintf fmt "@[<v 2>map%a{ %a =>@ %a }@]" pp_doms mdims pp_syms
        midxs pp_exp mbody
  | Fold { fdims; fidxs; finit; facc; fupd; fcomb; _ } ->
      Format.fprintf fmt
        "@[<v 2>fold%a(%a){ %a =>@ @[<v 2>%a =>@ %a@] }%a@]" pp_doms fdims
        pp_exp finit pp_syms fidxs Sym.pp facc pp_exp fupd pp_comb fcomb
  | MultiFold { odims; oidxs; oinit; olets; oouts; ocomb; _ } ->
      Format.fprintf fmt "@[<v 2>multiFold%a(%a){ %a =>@ %a%a }%a@]" pp_doms
        odims pp_exp oinit pp_syms oidxs
        (fun fmt lets ->
          List.iter
            (fun (s, e) ->
              Format.fprintf fmt "%a = %a@ " Sym.pp s pp_exp e)
            lets)
        olets
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ ;@ ")
           pp_out)
        oouts
        (fun fmt -> function
          | None -> Format.pp_print_string fmt "(_)"
          | Some c -> pp_comb fmt c)
        ocomb
  | FlatMap { fmdim; fmidx; fmbody; _ } ->
      Format.fprintf fmt "@[<v 2>flatMap(%a){ %a =>@ %a }@]" pp_dom fmdim
        Sym.pp fmidx pp_exp fmbody
  | GroupByFold { gdims; gidxs; ginit; glets; gkey; gacc; gupd; gcomb; _ } ->
      Format.fprintf fmt
        "@[<v 2>groupByFold%a(%a){ %a =>@ %a(%a, @[<v 2>%a =>@ %a@]) }%a@]"
        pp_doms gdims pp_exp ginit pp_syms gidxs
        (fun fmt lets ->
          List.iter
            (fun (s, e) -> Format.fprintf fmt "%a = %a@ " Sym.pp s pp_exp e)
            lets)
        glets pp_exp gkey Sym.pp gacc pp_exp gupd pp_comb gcomb

and pp_out fmt { orange; oregion; oacc; oupd } =
  Format.fprintf fmt "(@[<hov><%a>@], @[<hov>%a@], @[<v 2>%a =>@ %a@])"
    (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
    orange
    (Format.pp_print_list ~pp_sep:pp_sep_comma (fun fmt (off, len, b) ->
         match (len, b) with
         | Ci 1, Some 1 -> pp_exp fmt off
         | _ ->
             Format.fprintf fmt "%a+:%a%s" pp_atom off pp_atom len
               (match b with Some m -> Printf.sprintf "~%d" m | None -> "")))
    oregion Sym.pp oacc pp_exp oupd

and pp_comb fmt { ca; cb; cbody } =
  Format.fprintf fmt "{ (%a,%a) =>@ %a }" Sym.pp ca Sym.pp cb pp_exp cbody

and pp_atom fmt e =
  match e with
  | Var _ | Ci _ | Cf _ | Cb _ | Tup _ | Read _ | Proj _ | EmptyArr _ ->
      pp_exp fmt e
  | _ -> Format.fprintf fmt "(%a)" pp_exp e

let pp_program fmt (p : program) =
  Format.fprintf fmt "@[<v>program %s@," p.pname;
  List.iter (fun s -> Format.fprintf fmt "size %a@," Sym.pp s) p.size_params;
  List.iter
    (fun (s, b) -> Format.fprintf fmt "maxsize %a %d@," Sym.pp s b)
    p.max_sizes;
  List.iter
    (fun { iname; ielt; ishape } ->
      Format.fprintf fmt "input %a : %a(%a)@," Sym.pp iname Ty.pp ielt
        (Format.pp_print_list ~pp_sep:pp_sep_comma pp_exp)
        ishape)
    p.inputs;
  Format.fprintf fmt "%a@]" pp_exp p.body

let exp_to_string e = Format.asprintf "%a" pp_exp e
let program_to_string p = Format.asprintf "%a" pp_program p
