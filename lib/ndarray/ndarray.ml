exception Shape_error of string

let shape_error fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

(* Strided representation: [data.(offset + sum_i idx_i * strides.(i))].
   Freshly created arrays are contiguous row-major; [slice_view] produces
   aliased views with adjusted offset/strides. *)
type 'a t = {
  shape : int array;
  strides : int array;
  offset : int;
  data : 'a array;
}

let row_major_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let total shape = Array.fold_left ( * ) 1 shape

let check_shape shape =
  Array.iter (fun d -> if d < 0 then shape_error "negative dimension %d" d) shape

let make_contiguous shape data =
  { shape; strides = row_major_strides shape; offset = 0; data }

let create shape_l x =
  let shape = Array.of_list shape_l in
  check_shape shape;
  make_contiguous shape (Array.make (total shape) x)

let shape a = Array.to_list a.shape
let rank a = Array.length a.shape
let size a = total a.shape

let dim a i =
  if i < 0 || i >= Array.length a.shape then
    shape_error "dim %d out of range for rank %d" i (Array.length a.shape)
  else a.shape.(i)

let flat_index a idx =
  let n = Array.length a.shape in
  if List.length idx <> n then
    shape_error "index rank %d does not match array rank %d" (List.length idx) n;
  let pos = ref a.offset in
  List.iteri
    (fun i x ->
      if x < 0 || x >= a.shape.(i) then
        shape_error "index %d out of bounds for dimension %d (size %d)" x i
          a.shape.(i);
      pos := !pos + (x * a.strides.(i)))
    idx;
  !pos

let get a idx = a.data.(flat_index a idx)
let set a idx x = a.data.(flat_index a idx) <- x

let get1 a i = get a [ i ]
let get2 a i j = get a [ i; j ]
let set1 a i x = set a [ i ] x
let set2 a i j x = set a [ i; j ] x

let get_scalar a =
  if size a <> 1 then shape_error "get_scalar on array of size %d" (size a)
  else get a (List.map (fun _ -> 0) (shape a))

let scalar x = create [] x

let indices shape_l =
  let rec go = function
    | [] -> [ [] ]
    | d :: rest ->
        let tails = go rest in
        List.concat_map
          (fun i -> List.map (fun t -> i :: t) tails)
          (List.init d (fun i -> i))
  in
  go shape_l

let linearize shape_l idx =
  check_shape (Array.of_list shape_l);
  let strides = row_major_strides (Array.of_list shape_l) in
  let dims = Array.of_list shape_l in
  if List.length idx <> Array.length dims then
    shape_error "linearize: index rank %d vs shape rank %d" (List.length idx)
      (Array.length dims);
  let pos = ref 0 in
  List.iteri
    (fun i x ->
      if x < 0 || x >= dims.(i) then
        shape_error "linearize: index %d out of bounds for dim %d (size %d)" x i
          dims.(i);
      pos := !pos + (x * strides.(i)))
    idx;
  !pos

let delinearize shape_l flat =
  let strides = row_major_strides (Array.of_list shape_l) in
  let n = List.length shape_l in
  let rec go i rem acc =
    if i >= n then List.rev acc
    else
      let s = strides.(i) in
      go (i + 1) (rem mod s) ((rem / s) :: acc)
  in
  go 0 flat []

let init shape_l f =
  let shape = Array.of_list shape_l in
  check_shape shape;
  let data = Array.init (total shape) (fun flat -> f (delinearize shape_l flat)) in
  make_contiguous shape data

let of_list l = make_contiguous [| List.length l |] (Array.of_list l)

let of_list2 rows =
  let m = List.length rows in
  let n = match rows with [] -> 0 | r :: _ -> List.length r in
  List.iteri
    (fun i r ->
      if List.length r <> n then
        shape_error "of_list2: row %d has length %d, expected %d" i
          (List.length r) n)
    rows;
  let flat = Array.of_list (List.concat rows) in
  make_contiguous [| m; n |] flat

let iteri f a =
  let shp = shape a in
  if size a > 0 then List.iter (fun idx -> f idx (get a idx)) (indices shp)

let iter f a = iteri (fun _ x -> f x) a

let mapi f a =
  let shp = shape a in
  init shp (fun idx -> f idx (get a idx))

let map f a = mapi (fun _ x -> f x) a

let map2 f a b =
  if a.shape <> b.shape then
    shape_error "map2: shape mismatch (%s vs %s)"
      (String.concat "x" (List.map string_of_int (shape a)))
      (String.concat "x" (List.map string_of_int (shape b)));
  mapi (fun idx x -> f x (get b idx)) a

let fold f acc a =
  let r = ref acc in
  iter (fun x -> r := f !r x) a;
  !r

let for_all p a = fold (fun ok x -> ok && p x) true a

type dim_spec = Fix of int | Range of int * int

let slice_view a specs =
  let n = Array.length a.shape in
  if List.length specs <> n then
    shape_error "slice: %d specs for rank %d" (List.length specs) n;
  let offset = ref a.offset in
  let out_shape = ref [] and out_strides = ref [] in
  List.iteri
    (fun i spec ->
      match spec with
      | Fix x ->
          if x < 0 || x >= a.shape.(i) then
            shape_error "slice: index %d out of bounds for dim %d (size %d)" x i
              a.shape.(i);
          offset := !offset + (x * a.strides.(i))
      | Range (off, len) ->
          if off < 0 || len < 0 || off + len > a.shape.(i) then
            shape_error
              "slice: range (%d,%d) out of bounds for dim %d (size %d)" off len
              i a.shape.(i);
          offset := !offset + (off * a.strides.(i));
          out_shape := len :: !out_shape;
          out_strides := a.strides.(i) :: !out_strides)
    specs;
  { shape = Array.of_list (List.rev !out_shape);
    strides = Array.of_list (List.rev !out_strides);
    offset = !offset;
    data = a.data }

let copy a = mapi (fun _ x -> x) a
let copy_region a specs = copy (slice_view a specs)

let blit_region ~src ~dst off =
  if rank src <> rank dst then
    shape_error "blit_region: rank mismatch (%d vs %d)" (rank src) (rank dst);
  if List.length off <> rank dst then
    shape_error "blit_region: offset rank %d vs array rank %d" (List.length off)
      (rank dst);
  let specs = List.map2 (fun o len -> Range (o, len)) off (shape src) in
  let view = slice_view dst specs in
  iteri (fun idx x -> set view idx x) src

let to_list a = List.rev (fold (fun acc x -> x :: acc) [] a)

let concat1 arrays =
  List.iter
    (fun a -> if rank a <> 1 then shape_error "concat1: rank-%d array" (rank a))
    arrays;
  let data = Array.concat (List.map (fun a -> Array.of_list (to_list a)) arrays) in
  make_contiguous [| Array.length data |] data

let reshape a new_shape =
  let ns = Array.of_list new_shape in
  check_shape ns;
  if total ns <> size a then
    shape_error "reshape: size %d to shape of size %d" (size a) (total ns);
  let flat = Array.of_list (to_list a) in
  make_contiguous ns flat

let transpose2 a =
  if rank a <> 2 then shape_error "transpose2 on rank-%d array" (rank a);
  init [ dim a 1; dim a 0 ] (function
    | [ i; j ] -> get2 a j i
    | _ -> assert false)

let equal eq a b =
  shape a = shape b
  &&
  let ok = ref true in
  iteri (fun idx x -> if not (eq x (get b idx)) then ok := false) a;
  !ok

let pp pp_elt fmt a =
  let rec go fmt view =
    if rank view = 0 then pp_elt fmt (get_scalar view)
    else begin
      Format.fprintf fmt "[@[<hov>";
      let d = dim view 0 in
      for i = 0 to d - 1 do
        if i > 0 then Format.fprintf fmt ";@ ";
        let sub =
          slice_view view
            (Fix i :: List.map (fun len -> Range (0, len)) (List.tl (shape view)))
        in
        go fmt sub
      done;
      Format.fprintf fmt "@]]"
    end
  in
  go fmt a
