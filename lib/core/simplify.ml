open Ir

let rule e =
  match e with
  (* integer constant folding *)
  | Prim (Add, [ Ci a; Ci b ]) -> Ci (a + b)
  | Prim (Sub, [ Ci a; Ci b ]) -> Ci (a - b)
  | Prim (Mul, [ Ci a; Ci b ]) -> Ci (a * b)
  | Prim (Div, [ Ci a; Ci b ]) when b <> 0 -> Ci (a / b)
  | Prim (Mod, [ Ci a; Ci b ]) when b <> 0 -> Ci (a mod b)
  | Prim (Min, [ Ci a; Ci b ]) -> Ci (Int.min a b)
  | Prim (Max, [ Ci a; Ci b ]) -> Ci (Int.max a b)
  | Prim (Neg, [ Ci a ]) -> Ci (-a)
  (* float literal folding *)
  | Prim (Add, [ Cf a; Cf b ]) -> Cf (a +. b)
  | Prim (Sub, [ Cf a; Cf b ]) -> Cf (a -. b)
  | Prim (Mul, [ Cf a; Cf b ]) -> Cf (a *. b)
  | Prim (Neg, [ Cf a ]) -> Cf (-.a)
  (* additive/multiplicative identities (integer indices) *)
  | Prim (Add, [ e1; Ci 0 ]) | Prim (Add, [ Ci 0; e1 ]) -> e1
  | Prim (Sub, [ e1; Ci 0 ]) -> e1
  | Prim (Mul, [ e1; Ci 1 ]) | Prim (Mul, [ Ci 1; e1 ]) -> e1
  | Prim (Mul, [ _; Ci 0 ]) | Prim (Mul, [ Ci 0; _ ]) -> Ci 0
  | Prim (Div, [ e1; Ci 1 ]) -> e1
  (* float identities that cannot change results: x +. 0. is exact except
     for signed zeros of x, which the IR has no way to observe separately *)
  | Prim (Add, [ e1; Cf 0.0 ]) | Prim (Add, [ Cf 0.0; e1 ]) -> e1
  | Prim (Mul, [ e1; Cf 1.0 ]) | Prim (Mul, [ Cf 1.0; e1 ]) -> e1
  (* comparisons on constants *)
  | Prim (Lt, [ Ci a; Ci b ]) -> Cb (a < b)
  | Prim (Le, [ Ci a; Ci b ]) -> Cb (a <= b)
  | Prim (Gt, [ Ci a; Ci b ]) -> Cb (a > b)
  | Prim (Ge, [ Ci a; Ci b ]) -> Cb (a >= b)
  | Prim (Eq, [ Ci a; Ci b ]) -> Cb (a = b)
  | Prim (Ne, [ Ci a; Ci b ]) -> Cb (a <> b)
  (* boolean algebra *)
  | Prim (And, [ Cb true; e1 ]) | Prim (And, [ e1; Cb true ]) -> e1
  | Prim (And, [ Cb false; _ ]) | Prim (And, [ _; Cb false ]) -> Cb false
  | Prim (Or, [ Cb false; e1 ]) | Prim (Or, [ e1; Cb false ]) -> e1
  | Prim (Or, [ Cb true; _ ]) | Prim (Or, [ _; Cb true ]) -> Cb true
  | Prim (Not, [ Cb x ]) -> Cb (not x)
  | If (Cb true, t, _) -> t
  | If (Cb false, _, e1) -> e1
  (* projection of a literal tuple (safe: tuples are pure values) *)
  | Proj (Tup es, i) when i < List.length es -> List.nth es i
  (* (a + c1) + c2 -> a + (c1+c2): canonicalizes tiled index arithmetic *)
  | Prim (Add, [ Prim (Add, [ a; Ci c1 ]); Ci c2 ]) ->
      Prim (Add, [ a; Ci (c1 + c2) ])
  (* c1 + (e - c2) and (e - c2) + c1 -> e + (c1-c2): tile length exprs *)
  | Prim (Add, [ Ci c1; Prim (Sub, [ a; Ci c2 ]) ])
  | Prim (Add, [ Prim (Sub, [ a; Ci c2 ]); Ci c1 ]) ->
      Prim (Add, [ a; Ci (c1 - c2) ])
  (* min(t, c) where both constant handled above; min(x, x) -> x *)
  | Prim (Min, [ a; b ]) when a = b -> a
  | Prim (Max, [ a; b ]) when a = b -> a
  | e -> e

(* apply the rule set to fixpoint at each node: one rewrite may expose
   another (e.g. [1 + (e - 1)] -> [e + 0] -> [e]).  [rule] returns its
   argument itself when no rule fires, and every rule that fires changes
   the term, so the fixpoint test is physical: a structural one would
   compare the whole subtree at every node, and never holds on a [Cf nan]. *)
let rec fix e =
  let e' = rule e in
  if e' == e then e else fix e'

let exp e = Rewrite.bottom_up fix e

let program (p : program) = { p with body = exp p.body }
