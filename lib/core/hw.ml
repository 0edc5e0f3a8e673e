type mem_kind = Buffer | Double_buffer | Cache | Fifo | Cam | Reg

type mem = {
  mem_name : string;
  kind : mem_kind;
  width_bits : int;
  depth : int;
  banks : int;
  readers : int;
  writers : int;
  mem_prov : Prov.t;
}

type trip =
  | Tconst of float
  | Tsize of Sym.t
  | Tceil_div of trip * int
  | Tavg_tail of { total : trip; tile : int }
  | Tmul of trip * trip
  | Tscale of float * trip

let rec trip_eval sizes t =
  match t with
  | Tconst c -> c
  | Tsize s -> (
      match List.find_opt (fun (k, _) -> Sym.equal k s) sizes with
      | Some (_, v) -> float_of_int v
      | None -> invalid_arg ("Hw.trip_eval: missing size " ^ Sym.name s))
  | Tceil_div (t1, b) -> Float.of_int
      (int_of_float (ceil (trip_eval sizes t1 /. float_of_int b)))
  | Tavg_tail { total; tile } ->
      let tot = trip_eval sizes total in
      let tiles = ceil (tot /. float_of_int tile) in
      if tiles <= 0.0 then 0.0 else tot /. tiles
  | Tmul (a, b) -> trip_eval sizes a *. trip_eval sizes b
  | Tscale (f, t1) -> f *. trip_eval sizes t1

let trip_product = function
  | [] -> Tconst 1.0
  | t :: rest -> List.fold_left (fun acc x -> Tmul (acc, x)) t rest

(* integral constants as [%.0f], everything else as [%g] *)
let rec add_trip b = function
  | Tconst c ->
      if Float.is_integer c then Json_out.add_float ~prec:0 b c
      else Json_out.add_general ~prec:6 b c
  | Tsize s -> Buffer.add_string b (Sym.name s)
  | Tceil_div (t, d) ->
      Buffer.add_string b "ceil(";
      add_trip b t;
      Buffer.add_char b '/';
      Json_out.add_int b d;
      Buffer.add_char b ')'
  | Tavg_tail { total; tile } ->
      Buffer.add_string b "avg(";
      add_trip b total;
      Buffer.add_char b '@';
      Json_out.add_int b tile;
      Buffer.add_char b ')'
  | Tmul (x, y) ->
      add_trip b x;
      Buffer.add_char b '*';
      add_trip b y
  | Tscale (f, t) ->
      Json_out.add_general ~prec:6 b f;
      Buffer.add_char b '*';
      add_trip b t

type dram_access = {
  da_array : string;
  da_path : (trip * bool) list;
  da_contiguous : bool;
  da_affine : bool;
  da_row_words : trip;
  da_kind : [ `Read | `Write | `Cached ];
}

type pipe_template = Vector | Tree | Fifo_write | Cam_update | Scalar_unit

type op_counts = {
  flops : int;
  int_ops : int;
  cmp_ops : int;
  mem_reads : int;
  mem_writes : int;
}

type ctrl =
  | Seq of { name : string; children : ctrl list; prov : Prov.t }
  | Par of { name : string; children : ctrl list; prov : Prov.t }
  | Loop of {
      name : string;
      trips : trip list;
      meta : bool;
      stages : ctrl list;
      prov : Prov.t;
    }
  | Pipe of {
      name : string;
      trips : trip list;
      template : pipe_template;
      par : int;
      depth : int;
      ii : int;
      ops : op_counts;
      body : Ir.exp option;
      dram : dram_access list;
      uses : string list;
      defines : string list;
      prov : Prov.t;
    }
  | Tile_load of {
      name : string;
      mem : string;
      array : string;
      words : trip;
      path : (trip * bool) list;
      reuse : int;
      prov : Prov.t;
    }
  | Tile_store of {
      name : string;
      mem : string option;
      array : string;
      words : trip;
      path : (trip * bool) list;
      prov : Prov.t;
    }

type design = {
  design_name : string;
  mems : mem list;
  top : ctrl;
  par_factor : int;
}

let ctrl_name = function
  | Seq { name; _ } | Par { name; _ } | Loop { name; _ } | Pipe { name; _ }
  | Tile_load { name; _ } | Tile_store { name; _ } ->
      name

let children = function
  | Seq { children; _ } | Par { children; _ } -> children
  | Loop { stages; _ } -> stages
  | Pipe _ | Tile_load _ | Tile_store _ -> []

let rec iter_ctrls f c =
  f c;
  List.iter (iter_ctrls f) (children c)

let iter_ctrls_path f c =
  let rec go path c =
    f path c;
    List.iter (go (path @ [ ctrl_name c ])) (children c)
  in
  go [] c

let rec fold_ctrls f acc c =
  let acc = f acc c in
  List.fold_left (fold_ctrls f) acc (children c)

let ctrl_prov = function
  | Seq { prov; _ } | Par { prov; _ } | Loop { prov; _ } | Pipe { prov; _ }
  | Tile_load { prov; _ } | Tile_store { prov; _ } ->
      prov

let with_prov c prov =
  match c with
  | Seq r -> Seq { r with prov }
  | Par r -> Par { r with prov }
  | Loop r -> Loop { r with prov }
  | Pipe r -> Pipe { r with prov }
  | Tile_load r -> Tile_load { r with prov }
  | Tile_store r -> Tile_store { r with prov }

let mem_refs = function
  | Pipe { defines; uses; _ } -> (defines, uses)
  | Tile_load { mem; _ } -> ([ mem ], [])
  | Tile_store { mem = Some m; _ } -> ([], [ m ])
  | Seq _ | Par _ | Loop _ | Tile_store { mem = None; _ } -> ([], [])

let subtree_refs c =
  let writes, reads =
    fold_ctrls
      (fun (ws, rs) c ->
        let w, r = mem_refs c in
        (w @ ws, r @ rs))
      ([], []) c
  in
  (List.sort_uniq String.compare writes, List.sort_uniq String.compare reads)

let port_counts top =
  let counts = Hashtbl.create 16 in
  let get n = Option.value ~default:(0, 0) (Hashtbl.find_opt counts n) in
  let bump f n = Hashtbl.replace counts n (f (get n)) in
  iter_ctrls
    (fun c ->
      let writes, reads = mem_refs c in
      List.iter (bump (fun (r, w) -> (r, w + 1))) writes;
      List.iter (bump (fun (r, w) -> (r + 1, w))) reads)
    top;
  get

let count_ports d =
  let ports = port_counts d.top in
  let mems =
    List.map
      (fun m ->
        let readers, writers = ports m.mem_name in
        { m with readers; writers })
      d.mems
  in
  { d with mems }
