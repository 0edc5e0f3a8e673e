let mem_kind_name = function
  | Hw.Buffer -> "buffer"
  | Hw.Double_buffer -> "double-buffer"
  | Hw.Cache -> "cache"
  | Hw.Fifo -> "fifo"
  | Hw.Cam -> "cam"
  | Hw.Reg -> "reg"

let template_name = function
  | Hw.Vector -> "vector"
  | Hw.Tree -> "reduce-tree"
  | Hw.Fifo_write -> "fifo-write"
  | Hw.Cam_update -> "cam-update"
  | Hw.Scalar_unit -> "scalar"

(* The listing is appended to one buffer.  Columns are padded by hand:
   [left w s] is printf's [%-ws] and [right w n] its [%wd]. *)
let design_to_string (d : Hw.design) =
  let b = Buffer.create 2048 in
  let str = Buffer.add_string b in
  let int = Json_out.add_int b in
  let pad n = for _ = 1 to n do Buffer.add_char b ' ' done in
  let left w s =
    str s;
    pad (w - String.length s)
  in
  let right w n =
    let s = string_of_int n in
    pad (w - String.length s);
    str s
  in
  let trips ts =
    Buffer.add_char b '(';
    Json_out.add_list b Hw.add_trip ts;
    Buffer.add_char b ')'
  in
  let rec ctrl indent c =
    pad indent;
    match c with
    | Hw.Seq { name; children; _ } ->
        str "Sequential ";
        str name;
        str "\n";
        List.iter (ctrl (indent + 2)) children
    | Hw.Par { name; children; _ } ->
        str "Parallel ";
        str name;
        str "\n";
        List.iter (ctrl (indent + 2)) children
    | Hw.Loop { name; trips = ts; meta; stages; _ } ->
        str (if meta then "Metapipeline " else "Loop ");
        str name;
        str " ";
        trips ts;
        str "\n";
        List.iter (ctrl (indent + 2)) stages
    | Hw.Pipe
        { name; trips = ts; template; par; depth; ii; ops; dram; uses; defines; _ }
      ->
        str "Pipe ";
        str name;
        str " [";
        str (template_name template);
        str "] ";
        trips ts;
        str " par=";
        int par;
        str " depth=";
        int depth;
        str " ii=";
        int ii;
        str " flops=";
        int ops.Hw.flops;
        str " cmps=";
        int ops.Hw.cmp_ops;
        str "\n";
        let refs label names =
          if names <> [] then begin
            pad indent;
            str label;
            Json_out.add_list b Buffer.add_string names;
            str "\n"
          end
        in
        refs "  reads: " uses;
        refs "  writes: " defines;
        List.iter
          (fun da ->
            pad indent;
            str "  dram ";
            str da.Hw.da_array;
            str
              (match da.Hw.da_kind with
              | `Read -> " read"
              | `Write -> " write"
              | `Cached -> " cached");
            if not da.Hw.da_contiguous then str " [non-contiguous]";
            str "\n")
          dram
    | Hw.Tile_load { name; mem; array; words; reuse; _ } ->
        str "TileLoad ";
        str name;
        str " ";
        str mem;
        str " <- dram:";
        str array;
        str " words=";
        Hw.add_trip b words;
        if reuse > 1 then begin
          str " reuse=";
          int reuse
        end;
        str "\n"
    | Hw.Tile_store { name; mem; array; words; _ } ->
        str "TileStore ";
        str name;
        str " ";
        str (match mem with Some m -> m | None -> "(stream)");
        str " -> dram:";
        str array;
        str " words=";
        Hw.add_trip b words;
        str "\n"
  in
  str "design ";
  str d.Hw.design_name;
  str " (par=";
  int d.Hw.par_factor;
  str ")\nmemories:\n";
  List.iter
    (fun m ->
      str "  ";
      left 24 m.Hw.mem_name;
      str " ";
      left 13 (mem_kind_name m.Hw.kind);
      str " ";
      right 5 m.Hw.depth;
      str " x ";
      right 2 m.Hw.width_bits;
      str "b banks=";
      int m.Hw.banks;
      str " R=";
      int m.Hw.readers;
      str " W=";
      int m.Hw.writers;
      str "\n")
    d.Hw.mems;
  str "controllers:\n";
  ctrl 2 d.Hw.top;
  Buffer.contents b
