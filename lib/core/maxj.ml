(* Every line is appended straight into the one buffer [emit] returns;
   no line or datapath node is built as a string of its own. *)

let str = Buffer.add_string
let int = Json_out.add_int

let add_trips b trips =
  Buffer.add_char b '{';
  Json_out.add_list b Hw.add_trip trips;
  Buffer.add_char b '}'

let mem_decl b (m : Hw.mem) =
  let ctor =
    match m.Hw.kind with
    | Hw.Buffer -> "mem.alloc"
    | Hw.Double_buffer -> "mem.allocDouble"
    | Hw.Cache -> "mem.allocCache"
    | Hw.Fifo -> "mem.allocFIFO"
    | Hw.Cam -> "mem.allocCAM"
    | Hw.Reg -> "dfe.reg"
  in
  str b "    Memory ";
  str b m.Hw.mem_name;
  str b " = ";
  str b ctor;
  str b "(dfeFloat(8, ";
  int b m.Hw.width_bits;
  str b "), /*depth*/ ";
  int b m.Hw.depth;
  str b ", /*banks*/ ";
  int b m.Hw.banks;
  str b "); // R:";
  int b m.Hw.readers;
  str b " W:";
  int b m.Hw.writers;
  Buffer.add_char b '\n'

let prim_call = function
  | Ir.Mod -> "mod" | Ir.Neg -> "neg" | Ir.Abs -> "abs" | Ir.Log -> "log"
  | Ir.Ne -> "neq" | Ir.And -> "and" | Ir.Or -> "or" | Ir.Not -> "not"
  | Ir.ToFloat | Ir.ToInt -> "cast"
  | _ -> "op"

(* Java-ish rendering of a datapath expression, for the generated kernel's
   dataflow comment.  Deliberately shallow: deep nests elide to [...]. *)
let rec add_java b depth (e : Ir.exp) =
  if depth = 0 then str b "..."
  else
    let go = add_java b (depth - 1) in
    let list es = List.iteri (fun i e -> if i > 0 then str b ", "; go e) es in
    let infix op x y =
      Buffer.add_char b '(';
      go x;
      str b op;
      go y;
      Buffer.add_char b ')'
    in
    let call f es =
      str b f;
      Buffer.add_char b '(';
      list es;
      Buffer.add_char b ')'
    in
    match e with
    | Ir.Var s -> str b (Sym.name s)
    | Ir.Cf f ->
        str b "constant.var(";
        Json_out.add_general ~prec:6 b f;
        Buffer.add_char b ')'
    | Ir.Ci i -> int b i
    | Ir.Cb v -> str b (string_of_bool v)
    | Ir.Read (a, idxs) ->
        go a;
        call ".read" idxs
    | Ir.Prim (p, args) -> (
        match (p, args) with
        | Ir.Add, [ x; y ] -> infix " + " x y
        | Ir.Sub, [ x; y ] -> infix " - " x y
        | Ir.Mul, [ x; y ] -> infix " * " x y
        | Ir.Div, [ x; y ] -> infix " / " x y
        | Ir.Lt, [ x; y ] -> infix " < " x y
        | Ir.Le, [ x; y ] -> infix " <= " x y
        | Ir.Gt, [ x; y ] -> infix " > " x y
        | Ir.Ge, [ x; y ] -> infix " >= " x y
        | Ir.Eq, [ x; y ] -> infix " === " x y
        | Ir.Min, [ _; _ ] -> call "KernelMath.min" args
        | Ir.Max, [ _; _ ] -> call "KernelMath.max" args
        | Ir.Sqrt, [ _ ] -> call "KernelMath.sqrt" args
        | Ir.Exp, [ _ ] -> call "KernelMath.exp" args
        | _ -> call (prim_call p) args)
    | Ir.If (c, t, f) ->
        Buffer.add_char b '(';
        go c;
        str b " ? ";
        go t;
        str b " : ";
        go f;
        Buffer.add_char b ')'
    | Ir.Let (s, e1, e2) ->
        str b "let ";
        str b (Sym.name s);
        str b " = ";
        go e1;
        str b " in ";
        go e2
    | Ir.Tup es ->
        Buffer.add_char b '{';
        list es;
        Buffer.add_char b '}'
    | Ir.Proj (e1, i) ->
        go e1;
        Buffer.add_char b '[';
        int b i;
        Buffer.add_char b ']'
    | _ -> str b "..."

let template_ctor = function
  | Hw.Vector -> "VectorUnit"
  | Hw.Tree -> "ReductionTree"
  | Hw.Fifo_write -> "ParallelFIFO"
  | Hw.Cam_update -> "CAMUpdate"
  | Hw.Scalar_unit -> "ScalarUnit"

let rec emit_ctrl b indent c =
  let pad () = for _ = 1 to indent do Buffer.add_char b ' ' done in
  let close () =
    pad ();
    str b "});\n"
  in
  (* a controller whose children are emitted inside its lambda *)
  let block kind name ctor children =
    pad ();
    str b kind;
    Buffer.add_char b ' ';
    str b name;
    str b ctor;
    List.iter (emit_ctrl b (indent + 2)) children;
    close ()
  in
  (* one [.method(...)] line of a pipe's builder chain *)
  let chain s =
    pad ();
    str b "    ";
    str b s
  in
  match c with
  | Hw.Seq { name; children; _ } ->
      block "SequentialController" name " = control.sequential(() -> {\n"
        children
  | Hw.Par { name; children; _ } ->
      block "ParallelController" name " = control.parallel(() -> {\n" children
  | Hw.Loop { name; trips; meta; stages; _ } ->
      pad ();
      str b (if meta then "Metapipeline " else "LoopController ");
      str b name;
      str b (if meta then " = control.metapipeline(" else " = control.loop(");
      add_trips b trips;
      str b ", () -> {\n";
      List.iter (emit_ctrl b (indent + 2)) stages;
      close ()
  | Hw.Pipe { name; trips; template; par; depth; ii; ops; uses; defines; dram; body; _ }
    ->
      let ctor = template_ctor template in
      pad ();
      str b ctor;
      Buffer.add_char b ' ';
      str b name;
      str b " = compute.";
      str b (String.uncapitalize_ascii ctor);
      Buffer.add_char b '(';
      add_trips b trips;
      str b ")\n";
      Option.iter
        (fun e ->
          chain "// dataflow: ";
          add_java b 4 e;
          Buffer.add_char b '\n')
        body;
      chain ".parallelism(";
      int b par;
      str b ").depth(";
      int b depth;
      str b ").ii(";
      int b ii;
      str b ")\n";
      chain ".ops(/*fp*/ ";
      int b ops.Hw.flops;
      str b ", /*cmp*/ ";
      int b ops.Hw.cmp_ops;
      str b ", /*int*/ ";
      int b ops.Hw.int_ops;
      str b ")\n";
      let refs meth names =
        if names <> [] then begin
          chain meth;
          Json_out.add_list b Buffer.add_string names;
          str b ")\n"
        end
      in
      refs ".reads(" uses;
      refs ".writes(" defines;
      List.iter
        (fun da ->
          chain ".dramStream(\"";
          str b da.Hw.da_array;
          str b "\", ";
          str b
            (match da.Hw.da_kind with
            | `Read -> if da.Hw.da_contiguous then "BURST_READ" else "STRIDED_READ"
            | `Cached -> "CACHED_READ"
            | `Write -> "BURST_WRITE");
          str b ")\n")
        dram;
      chain ";\n"
  | Hw.Tile_load { name; mem; array; words; reuse; _ } ->
      pad ();
      str b "TileMemoryCommand ";
      str b name;
      str b " = mem.tileLoad(\"";
      str b array;
      str b "\", ";
      str b mem;
      str b ", /*words*/ ";
      Hw.add_trip b words;
      if reuse > 1 then begin
        str b ", /*reuse*/ ";
        int b reuse
      end;
      str b ");\n"
  | Hw.Tile_store { name; mem; array; words; _ } ->
      pad ();
      str b "TileMemoryCommand ";
      str b name;
      str b " = mem.tileStore(\"";
      str b array;
      str b "\", ";
      str b (match mem with Some m -> m | None -> "STREAM");
      str b ", /*words*/ ";
      Hw.add_trip b words;
      str b ");\n"

let emit (d : Hw.design) =
  let b = Buffer.create 4096 in
  let kernel = String.capitalize_ascii d.Hw.design_name ^ "Kernel" in
  str b "// Generated by ppl-fpga; MaxJ-like HGL\nclass ";
  str b kernel;
  str b " extends Kernel {\n  ";
  str b kernel;
  str b "(KernelParameters params) {\n    super(params); // par_factor = ";
  int b d.Hw.par_factor;
  str b "\n\n    // -- on-chip memories (Table 4) --\n";
  List.iter (mem_decl b) d.Hw.mems;
  str b "\n    // -- controller hierarchy --\n";
  emit_ctrl b 4 d.Hw.top;
  str b "  }\n}\n";
  Buffer.contents b
