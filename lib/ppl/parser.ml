exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | DOT | AT | TILDE | SLASH_ | ARROW | EQUALS | COLON
  | PLUSCOLON  (* +: *)
  | LT | LE | GT | GE | EQEQ | NEQ | ANDAND | OROR
  | PLUS | MINUS | STAR | PERCENT
  | EOF

let token_name = function
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | IDENT s -> Printf.sprintf "%S" s
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]" | COMMA -> "," | SEMI -> ";"
  | DOT -> "." | AT -> "@" | TILDE -> "~" | SLASH_ -> "/" | ARROW -> "=>"
  | COLON -> ":"
  | EQUALS -> "=" | PLUSCOLON -> "+:" | LT -> "<" | LE -> "<=" | GT -> ">"
  | GE -> ">=" | EQEQ -> "==" | NEQ -> "!=" | ANDAND -> "&&" | OROR -> "||"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | PERCENT -> "%" | EOF -> "<eof>"

type lexer = { src : string; mutable pos : int; mutable line : int }

let lex_error lx fmt =
  Format.kasprintf
    (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" lx.line m)))
    fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let is_digit c = c >= '0' && c <= '9'

let rec next_token lx =
  let n = String.length lx.src in
  if lx.pos >= n then EOF
  else
    let c = lx.src.[lx.pos] in
    if c = '\n' then begin
      lx.line <- lx.line + 1;
      lx.pos <- lx.pos + 1;
      next_token lx
    end
    else if c = ' ' || c = '\t' || c = '\r' then begin
      lx.pos <- lx.pos + 1;
      next_token lx
    end
    else if is_digit c then begin
      let start = lx.pos in
      while lx.pos < n && is_digit lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      let is_float = ref false in
      if
        lx.pos + 1 < n
        && lx.src.[lx.pos] = '.'
        && is_digit lx.src.[lx.pos + 1]
      then begin
        is_float := true;
        lx.pos <- lx.pos + 1;
        while lx.pos < n && is_digit lx.src.[lx.pos] do
          lx.pos <- lx.pos + 1
        done
      end;
      if lx.pos < n && (lx.src.[lx.pos] = 'e' || lx.src.[lx.pos] = 'E') then begin
        is_float := true;
        lx.pos <- lx.pos + 1;
        if lx.pos < n && (lx.src.[lx.pos] = '+' || lx.src.[lx.pos] = '-') then
          lx.pos <- lx.pos + 1;
        let digits = lx.pos in
        while lx.pos < n && is_digit lx.src.[lx.pos] do
          lx.pos <- lx.pos + 1
        done;
        if lx.pos = digits then
          lex_error lx "malformed number %s: its exponent has no digits"
            (String.sub lx.src start (lx.pos - start))
      end;
      let text = String.sub lx.src start (lx.pos - start) in
      if !is_float then FLOAT (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> INT i
        | None -> lex_error lx "integer %s out of range" text
    end
    else if is_ident_char c then begin
      let start = lx.pos in
      while lx.pos < n && is_ident_char lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      IDENT (String.sub lx.src start (lx.pos - start))
    end
    else begin
      let two =
        if lx.pos + 1 < n then String.sub lx.src lx.pos 2 else ""
      in
      let take2 t =
        lx.pos <- lx.pos + 2;
        t
      in
      let take1 t =
        lx.pos <- lx.pos + 1;
        t
      in
      match two with
      | "=>" -> take2 ARROW
      | "==" -> take2 EQEQ
      | "!=" -> take2 NEQ
      | "<=" -> take2 LE
      | ">=" -> take2 GE
      | "&&" -> take2 ANDAND
      | "||" -> take2 OROR
      | "+:" -> take2 PLUSCOLON
      | _ -> (
          match c with
          | '(' -> take1 LPAREN
          | ')' -> take1 RPAREN
          | '{' -> take1 LBRACE
          | '}' -> take1 RBRACE
          | '[' -> take1 LBRACKET
          | ']' -> take1 RBRACKET
          | ',' -> take1 COMMA
          | ';' -> take1 SEMI
          | '.' -> take1 DOT
          | '@' -> take1 AT
          | '~' -> take1 TILDE
          | '/' -> take1 SLASH_
          | '=' -> take1 EQUALS
          | ':' -> take1 COLON
          | '<' -> take1 LT
          | '>' -> take1 GT
          | '+' -> take1 PLUS
          | '-' -> take1 MINUS
          | '*' -> take1 STAR
          | '%' -> take1 PERCENT
          | c -> lex_error lx "unexpected character %C" c)
    end

(* ------------------------------------------------------------------ *)
(* Parser state: token stream with lookahead + lexical scope           *)
(* ------------------------------------------------------------------ *)

type state = {
  lx : lexer;
  mutable tok : token;
  mutable tok_line : int;  (* line the current token ends on *)
  mutable prev_line : int;  (* line of the last consumed token *)
  mutable ahead : (token * int) list;  (* pushed-back lookahead *)
  mutable scope : (string * Sym.t) list;
}

let advance st =
  st.prev_line <- st.tok_line;
  match st.ahead with
  | (t, l) :: rest ->
      st.tok <- t;
      st.tok_line <- l;
      st.ahead <- rest
  | [] ->
      st.tok <- next_token st.lx;
      st.tok_line <- st.lx.line

let peek2 st =
  match st.ahead with
  | (t, _) :: _ -> t
  | [] ->
      let t = next_token st.lx in
      st.ahead <- [ (t, st.lx.line) ];
      t

let perr st fmt =
  Format.kasprintf
    (fun m ->
      raise
        (Parse_error
           (Printf.sprintf "line %d: %s (at %s)" st.lx.line m
              (token_name st.tok))))
    fmt

let expect st t =
  if st.tok = t then advance st
  else perr st "expected %s" (token_name t)

let expect_ident st =
  match st.tok with
  | IDENT s ->
      advance st;
      s
  | _ -> perr st "expected identifier"

let expect_int st =
  match st.tok with
  | INT i ->
      advance st;
      i
  | _ -> perr st "expected integer"

(* fresh binder: strip the printer's numeric suffix to recover the base *)
let fresh_of name =
  let base =
    match String.rindex_opt name '_' with
    | Some i
      when i > 0
           && i < String.length name - 1
           && String.for_all is_digit
                (String.sub name (i + 1) (String.length name - i - 1)) ->
        String.sub name 0 i
    | _ -> name
  in
  Sym.fresh base

(* a use of [inf] or [nan] reads as the float constant, so a binder of
   that name could never be referenced *)
let check_binder st name =
  if name = "inf" || name = "nan" then
    perr st "%s is a float constant, not a name" name

let bind st name =
  check_binder st name;
  let s = fresh_of name in
  st.scope <- (name, s) :: st.scope;
  s

let lookup st name =
  match List.assoc_opt name st.scope with
  | Some s -> s
  | None -> perr st "unbound identifier %s" name

let scoped st f =
  let saved = st.scope in
  let r = f () in
  st.scope <- saved;
  r

(* ensure the lookahead buffer holds at least [n+1] tokens and return
   the [n]th (0 = the token after the current one) *)
let peek_at st n =
  while List.length st.ahead <= n do
    st.ahead <- st.ahead @ [ (next_token st.lx, st.lx.line) ]
  done;
  fst (List.nth st.ahead n)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_ty st =
  match st.tok with
  | IDENT "Float" ->
      advance st;
      Ty.float_
  | IDENT "Int" ->
      advance st;
      Ty.int_
  | IDENT "Bool" ->
      advance st;
      Ty.bool_
  | LPAREN ->
      advance st;
      let rec go acc =
        let t = parse_ty st in
        if st.tok = COMMA then begin
          advance st;
          go (t :: acc)
        end
        else begin
          expect st RPAREN;
          List.rev (t :: acc)
        end
      in
      Ty.Tuple (go [])
  | _ -> perr st "expected a type"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let prim_of_call = function
  | "min" -> Some Ir.Min
  | "max" -> Some Ir.Max
  | "abs" -> Some Ir.Abs
  | "sqrt" -> Some Ir.Sqrt
  | "exp" -> Some Ir.Exp
  | "log" -> Some Ir.Log
  | "neg" -> Some Ir.Neg
  | "not" -> Some Ir.Not
  | "toFloat" -> Some Ir.ToFloat
  | "toInt" -> Some Ir.ToInt
  | "mod" -> Some Ir.Mod
  | _ -> None

let rec parse_exp st : Ir.exp =
  (* Let chains: IDENT = e  body *)
  match st.tok with
  | IDENT name
    when peek2 st = EQUALS
         && not (List.mem name [ "reuse" ]) -> (
      (* IDENT '=' but not '==' (lexer would fuse '==') *)
      check_binder st name;
      advance st (* ident *);
      advance st (* '=' *);
      (* the right-hand side may itself be a let-chain (the printer
         renders nested bindings inline) *)
      let rhs = parse_exp st in
      let s = bind st name in
      let body = parse_exp st in
      st.scope <- List.remove_assoc name st.scope;
      Ir.Let (s, rhs, body))
  | _ -> parse_exp_nolet st

and parse_exp_nolet st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if st.tok = OROR then begin
    advance st;
    Ir.Prim (Ir.Or, [ lhs; parse_or st ])
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if st.tok = ANDAND then begin
    advance st;
    Ir.Prim (Ir.And, [ lhs; parse_and st ])
  end
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match st.tok with
    | LT -> Some Ir.Lt
    | LE -> Some Ir.Le
    | GT -> Some Ir.Gt
    | GE -> Some Ir.Ge
    | EQEQ -> Some Ir.Eq
    | NEQ -> Some Ir.Ne
    | _ -> None
  in
  match op with
  | Some p ->
      advance st;
      Ir.Prim (p, [ lhs; parse_add st ])
  | None -> lhs

and parse_add st =
  let lhs = parse_mul st in
  match st.tok with
  | PLUS ->
      advance st;
      parse_add_rest st (fun rhs -> Ir.Prim (Ir.Add, [ lhs; rhs ]))
  | MINUS ->
      advance st;
      parse_add_rest st (fun rhs -> Ir.Prim (Ir.Sub, [ lhs; rhs ]))
  | _ -> lhs

and parse_add_rest st k =
  let rhs = parse_mul st in
  let e = k rhs in
  match st.tok with
  | PLUS ->
      advance st;
      parse_add_rest st (fun r -> Ir.Prim (Ir.Add, [ e; r ]))
  | MINUS ->
      advance st;
      parse_add_rest st (fun r -> Ir.Prim (Ir.Sub, [ e; r ]))
  | _ -> e

and parse_mul st =
  let lhs = parse_postfix st in
  match st.tok with
  | STAR ->
      advance st;
      Ir.Prim (Ir.Mul, [ lhs; parse_mul st ])
  | SLASH_ ->
      advance st;
      Ir.Prim (Ir.Div, [ lhs; parse_mul st ])
  | PERCENT ->
      advance st;
      Ir.Prim (Ir.Mod, [ lhs; parse_mul st ])
  | _ -> lhs

and parse_postfix st =
  (* Suffixes ((args), .slice, .copy, .dim, ._k) attach only to the forms
     the printer leaves unparenthesized in operand position (variables,
     tuples/parens, literals, array literals).  A pattern followed by '('
     is NOT a read of the pattern — the printer always parenthesizes that
     case — it is e.g. a MultiFold's following output tuple. *)
  let e0, readable = parse_atom st in
  if not readable then e0
  else begin
  let e = ref e0 in
  let continue_ = ref true in
  (* the IR has no nested arrays, so an element read can never itself be
     read: after one '(...)' suffix a following '(' starts a new
     construct, not another read *)
  let read_done = ref false in
  while !continue_ do
    match st.tok with
    (* a read's '(' always sits on the same line as the array (the
       printer never splits them): a '(' on a fresh line starts a new
       construct — e.g. the expression after a let binding — not a read *)
    | LPAREN when (not !read_done) && st.tok_line = st.prev_line ->
        advance st;
        let idxs = parse_exp_list st RPAREN in
        e := Ir.Read (!e, idxs);
        read_done := true
    | DOT -> (
        advance st;
        match st.tok with
        | IDENT "slice" ->
            advance st;
            expect st LPAREN;
            let args = parse_slice_args st in
            e := Ir.Slice (!e, args);
            (* Slice is not printed as an atom: no further suffixes *)
            continue_ := false
        | IDENT "copy" ->
            advance st;
            expect st LPAREN;
            let cdims = parse_copy_dims st in
            let creuse =
              if st.tok = LBRACE then begin
                advance st;
                (match st.tok with
                | IDENT "reuse" -> advance st
                | _ -> perr st "expected reuse");
                expect st EQUALS;
                let r = expect_int st in
                expect st RBRACE;
                r
              end
              else 1
            in
            e := Ir.Copy { csrc = !e; cdims; creuse };
            continue_ := false
        | IDENT "dim" ->
            advance st;
            expect st LPAREN;
            let d = expect_int st in
            expect st RPAREN;
            e := Ir.Len (!e, d);
            continue_ := false
        | IDENT proj when String.length proj > 1 && proj.[0] = '_' ->
            let digits = String.sub proj 1 (String.length proj - 1) in
            let k =
              match int_of_string_opt digits with
              | Some k when k >= 1 && String.for_all is_digit digits -> k
              | _ -> perr st "expected a tuple component ._1, ._2, ..."
            in
            advance st;
            e := Ir.Proj (!e, k - 1);
            (* a projection may be read ('sc._1(i, j)') *)
            read_done := false
        | _ -> perr st "expected slice/copy/dim/_k after '.'")
    | _ -> continue_ := false
  done;
  !e
  end

and parse_exp_list st closing =
  if st.tok = closing then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let e = parse_exp_nolet st in
      if st.tok = COMMA then begin
        advance st;
        go (e :: acc)
      end
      else begin
        expect st closing;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_slice_args st =
  let rec go acc =
    let arg =
      if st.tok = STAR then begin
        advance st;
        Ir.SAll
      end
      else Ir.SFix (parse_exp_nolet st)
    in
    if st.tok = COMMA then begin
      advance st;
      go (arg :: acc)
    end
    else begin
      expect st RPAREN;
      List.rev (arg :: acc)
    end
  in
  go []

and parse_copy_dims st =
  let rec go acc =
    let dim =
      if st.tok = STAR then begin
        advance st;
        Ir.Call
      end
      else if st.tok = AT then begin
        advance st;
        Ir.Cfix (parse_exp_nolet st)
      end
      else begin
        let off = parse_exp_nolet st in
        (* pp renders an offset atom, then +:, then the length *)
        expect st PLUSCOLON;
        let len = parse_exp_nolet st in
        let max_len =
          if st.tok = TILDE then begin
            advance st;
            Some (expect_int st)
          end
          else None
        in
        Ir.Coffset { off; len; max_len }
      end
    in
    if st.tok = COMMA then begin
      advance st;
      go (dim :: acc)
    end
    else begin
      expect st RPAREN;
      List.rev (dim :: acc)
    end
  in
  go []

and parse_atom st : Ir.exp * bool =
  match st.tok with
  | INT i ->
      advance st;
      (Ir.Ci i, false)
  | FLOAT f ->
      advance st;
      (Ir.Cf f, false)
  | MINUS -> (
      advance st;
      match st.tok with
      | INT i ->
          advance st;
          (Ir.Ci (-i), false)
      | FLOAT f ->
          advance st;
          (Ir.Cf (-.f), false)
      | IDENT "inf" ->
          advance st;
          (Ir.Cf neg_infinity, false)
      | IDENT "nan" ->
          advance st;
          (Ir.Cf (Float.neg Float.nan), false)
      | _ -> perr st "expected numeric literal after '-'")
  | IDENT "inf" ->
      advance st;
      (Ir.Cf infinity, false)
  | IDENT "nan" ->
      advance st;
      (Ir.Cf Float.nan, false)
  | IDENT "true" ->
      advance st;
      (Ir.Cb true, false)
  | IDENT "false" ->
      advance st;
      (Ir.Cb false, false)
  | IDENT "if" ->
      advance st;
      let c = parse_exp_nolet st in
      (match st.tok with
      | IDENT "then" -> advance st
      | _ -> perr st "expected then");
      let t = parse_exp st in
      (match st.tok with
      | IDENT "else" -> advance st
      | _ -> perr st "expected else");
      let f = parse_exp st in
      (Ir.If (c, t, f), false)
  | IDENT "zeros" ->
      advance st;
      let elt =
        if st.tok = LBRACKET then begin
          advance st;
          let t = parse_ty st in
          expect st RBRACKET;
          t
        end
        else Ty.float_
      in
      expect st LPAREN;
      let shape = parse_exp_list st RPAREN in
      (Ir.Zeros (elt, shape), false)
  | IDENT "map" -> (parse_map st, false)
  | IDENT "fold" -> (parse_fold st, false)
  | IDENT "multiFold" -> (parse_multifold st, false)
  | IDENT "flatMap" -> (parse_flatmap st, false)
  | IDENT "groupByFold" -> (parse_groupbyfold st, false)
  | IDENT name when prim_of_call name <> None ->
      advance st;
      let p = Option.get (prim_of_call name) in
      expect st LPAREN;
      let args = parse_exp_list st RPAREN in
      (Ir.Prim (p, args), false)
  | IDENT name ->
      advance st;
      (Ir.Var (lookup st name), true)
  | LPAREN -> (
      advance st;
      let es = parse_exp_list st RPAREN in
      match es with
      | [ e ] -> (e, true)
      | es -> (Ir.Tup es, true))
  | LBRACKET ->
      advance st;
      if st.tok = RBRACKET then begin
        advance st;
        (Ir.EmptyArr Ty.float_, true)
      end
      else (Ir.ArrLit (parse_exp_list st RBRACKET), true)
  | _ -> perr st "expected expression"

(* ---------------------------- domains ----------------------------- *)

and parse_dom st : Ir.dom =
  match (st.tok, peek2 st) with
  | INT tile, AT ->
      advance st;
      advance st;
      let total = parse_exp_nolet st in
      expect st LBRACKET;
      let outer = expect_ident st in
      expect st RBRACKET;
      Ir.Dtail { total; tile; outer = lookup st outer }
  | _ -> (
      let total = parse_exp_nolet st in
      (* 'a / b' at domain level: Dfull of a Div expression parses as the
         division inside parse_mul, so split it back apart when the
         divisor is a literal: domains print as 'total/TILE' *)
      match total with
      | Ir.Prim (Ir.Div, [ t; Ir.Ci tile ]) -> Ir.Dtiles { total = t; tile }
      | e -> Ir.Dfull e)

and parse_doms st =
  expect st LPAREN;
  let rec go acc =
    let d = parse_dom st in
    if st.tok = COMMA then begin
      advance st;
      go (d :: acc)
    end
    else begin
      expect st RPAREN;
      List.rev (d :: acc)
    end
  in
  go []

and parse_binder_list st =
  (* 'x =>' or '(x, y) =>' *)
  match st.tok with
  | LPAREN ->
      advance st;
      let rec go acc =
        let n = expect_ident st in
        if st.tok = COMMA then begin
          advance st;
          go (n :: acc)
        end
        else begin
          expect st RPAREN;
          List.rev (n :: acc)
        end
      in
      go []
  | IDENT n ->
      advance st;
      [ n ]
  | _ -> perr st "expected binder(s)"

and parse_comb st : Ir.comb =
  expect st LBRACE;
  expect st LPAREN;
  let a = expect_ident st in
  expect st COMMA;
  let b = expect_ident st in
  expect st RPAREN;
  expect st ARROW;
  scoped st (fun () ->
      let ca = bind st a in
      let cb = bind st b in
      let body = parse_exp st in
      expect st RBRACE;
      { Ir.ca; cb; cbody = body })

(* ---------------------------- patterns ---------------------------- *)

and parse_map st =
  advance st;
  let dims = parse_doms st in
  expect st LBRACE;
  let names = parse_binder_list st in
  expect st ARROW;
  scoped st (fun () ->
      let idxs = List.map (bind st) names in
      let body = parse_exp st in
      expect st RBRACE;
      Ir.Map { mdims = dims; midxs = idxs; mbody = body; mprov = Prov.none })

and parse_fold st =
  advance st;
  let dims = parse_doms st in
  expect st LPAREN;
  let init = parse_exp_nolet st in
  expect st RPAREN;
  expect st LBRACE;
  let names = parse_binder_list st in
  expect st ARROW;
  scoped st (fun () ->
      let idxs = List.map (bind st) names in
      let accname = expect_ident st in
      expect st ARROW;
      let facc = bind st accname in
      let upd = parse_exp st in
      expect st RBRACE;
      let comb = parse_comb st in
      Ir.Fold
        { fdims = dims; fidxs = idxs; finit = init; facc; fupd = upd;
          fcomb = comb; fprov = Prov.none })

(* Flattened tiled forms print domains that reference the pattern's own
   binders — `multiFold(n/4096, 4096@n[ii])...{ (ii, i) => ... }` — so the
   binder names must already be in scope while the domains are parsed.
   Scan ahead (without consuming) past the dims and init paren groups to
   the binder list and return its names. *)
and prescan_binders st =
  let tok_at i = if i = 0 then st.tok else peek_at st (i - 1) in
  let skip_group i =
    (* [i] is at '('; index just past its matching ')' *)
    let rec go i depth =
      match tok_at i with
      | LPAREN -> go (i + 1) (depth + 1)
      | RPAREN -> if depth = 1 then i + 1 else go (i + 1) (depth - 1)
      | EOF -> perr st "unterminated pattern"
      | _ -> go (i + 1) depth
    in
    go i 0
  in
  let i = skip_group 0 in
  let i = skip_group i in
  match tok_at i with
  | LBRACE -> (
      match tok_at (i + 1) with
      | LPAREN ->
          let rec names j acc =
            match tok_at j with
            | IDENT n -> (
                match tok_at (j + 1) with
                | COMMA -> names (j + 2) (n :: acc)
                | RPAREN -> List.rev (n :: acc)
                | _ -> perr st "expected , or ) in binder list")
            | _ -> perr st "expected binder"
          in
          names (i + 2) []
      | IDENT n -> [ n ]
      | _ -> perr st "expected binder(s)")
  | _ -> perr st "expected { after init"

and parse_multifold st =
  advance st;
  scoped st (fun () ->
      let pre = prescan_binders st in
      let idxs = List.map (bind st) pre in
      let dims = parse_doms st in
      expect st LPAREN;
      let init = parse_exp_nolet st in
      expect st RPAREN;
      expect st LBRACE;
      let names = parse_binder_list st in
      if names <> pre then perr st "binder list changed under prescan";
      expect st ARROW;
      (* shared bindings: IDENT '=' lines until an out '(' appears *)
      let rec lets acc =
        match st.tok with
        | IDENT n when peek2 st = EQUALS ->
            advance st;
            advance st;
            let rhs = parse_exp_nolet st in
            let s = bind st n in
            lets ((s, rhs) :: acc)
        | _ -> List.rev acc
      in
      let olets = lets [] in
      let rec outs acc =
        let out = parse_out st in
        if st.tok = SEMI then begin
          advance st;
          outs (out :: acc)
        end
        else List.rev (out :: acc)
      in
      let oouts = outs [] in
      expect st RBRACE;
      let ocomb =
        if st.tok = LPAREN then begin
          (* the '(_)' marker *)
          advance st;
          (match st.tok with
          | IDENT "_" -> advance st
          | _ -> perr st "expected _ in (_)");
          expect st RPAREN;
          None
        end
        else Some (parse_comb st)
      in
      Ir.MultiFold { odims = dims; oidxs = idxs; oinit = init; olets; oouts;
                     ocomb; oprov = Prov.none })

and parse_out st : Ir.mf_out =
  expect st LPAREN;
  expect st LT;
  let rec range acc =
    (* range entries are size expressions; parse below the comparison
       level so the closing '>' is not taken as an operator *)
    let e = parse_add st in
    if st.tok = COMMA then begin
      advance st;
      range (e :: acc)
    end
    else begin
      expect st GT;
      List.rev (e :: acc)
    end
  in
  let orange = range [] in
  expect st COMMA;
  (* region entries until the IDENT '=>' accumulator part *)
  let rec region acc =
    match st.tok with
    | IDENT n when peek2 st = ARROW ->
        advance st;
        advance st;
        let oacc = bind st n in
        let upd = parse_exp st in
        expect st RPAREN;
        st.scope <- List.remove_assoc n st.scope;
        (List.rev acc, oacc, upd)
    | _ ->
        let off = parse_exp_nolet st in
        let entry =
          if st.tok = PLUSCOLON then begin
            advance st;
            let len = parse_exp_nolet st in
            let b =
              if st.tok = TILDE then begin
                advance st;
                Some (expect_int st)
              end
              else None
            in
            (off, len, b)
          end
          else (off, Ir.Ci 1, Some 1)
        in
        expect st COMMA;
        region (entry :: acc)
  in
  let oregion, oacc, oupd = region [] in
  { Ir.orange; oregion; oacc; oupd }

and parse_flatmap st =
  advance st;
  expect st LPAREN;
  let dim = parse_dom st in
  expect st RPAREN;
  expect st LBRACE;
  let name = expect_ident st in
  expect st ARROW;
  scoped st (fun () ->
      let idx = bind st name in
      let body = parse_exp st in
      expect st RBRACE;
      Ir.FlatMap { fmdim = dim; fmidx = idx; fmbody = body; fmprov = Prov.none })

and parse_groupbyfold st =
  advance st;
  scoped st (fun () ->
      let pre = prescan_binders st in
      let idxs = List.map (bind st) pre in
      let dims = parse_doms st in
      expect st LPAREN;
      let init = parse_exp_nolet st in
      expect st RPAREN;
      expect st LBRACE;
      let names = parse_binder_list st in
      if names <> pre then perr st "binder list changed under prescan";
      expect st ARROW;
      let rec lets acc =
        match st.tok with
        | IDENT n when peek2 st = EQUALS ->
            advance st;
            advance st;
            let rhs = parse_exp_nolet st in
            let s = bind st n in
            lets ((s, rhs) :: acc)
        | _ -> List.rev acc
      in
      let glets = lets [] in
      expect st LPAREN;
      let key = parse_exp_nolet st in
      expect st COMMA;
      let accname = expect_ident st in
      expect st ARROW;
      let gacc = bind st accname in
      let upd = parse_exp st in
      expect st RPAREN;
      expect st RBRACE;
      let comb = parse_comb st in
      Ir.GroupByFold
        { gdims = dims; gidxs = idxs; ginit = init; glets; gkey = key; gacc;
          gupd = upd; gcomb = comb; gprov = Prov.none })

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let parse_program st =
  (match st.tok with
  | IDENT "program" -> advance st
  | _ -> perr st "expected program");
  let name = expect_ident st in
  let sizes = ref [] and maxes = ref [] and inputs = ref [] in
  let rec header () =
    match st.tok with
    | IDENT "size" ->
        advance st;
        let n = expect_ident st in
        sizes := bind st n :: !sizes;
        header ()
    | IDENT "maxsize" ->
        advance st;
        let n = expect_ident st in
        let b = expect_int st in
        maxes := (lookup st n, b) :: !maxes;
        header ()
    | IDENT "input" ->
        advance st;
        let n = expect_ident st in
        expect st COLON;
        let elt = parse_ty st in
        expect st LPAREN;
        let shape = parse_exp_list st RPAREN in
        inputs :=
          { Ir.iname = bind st n; ielt = elt; ishape = shape } :: !inputs;
        header ()
    | _ -> ()
  in
  header ();
  let body = parse_exp st in
  (match st.tok with
  | EOF -> ()
  | _ -> perr st "trailing input after program body");
  { Ir.pname = name;
    size_params = List.rev !sizes;
    max_sizes = List.rev !maxes;
    inputs = List.rev !inputs;
    body }

let make_state src =
  let lx = { src; pos = 0; line = 1 } in
  let st =
    { lx; tok = EOF; tok_line = 1; prev_line = 1; ahead = []; scope = [] }
  in
  advance st;
  st

let exp_of_string src =
  let st = make_state src in
  let e = parse_exp st in
  match st.tok with
  | EOF -> e
  | _ -> perr st "trailing input after expression"

let program_of_string src =
  let st = make_state src in
  parse_program st
