(* Reference interpreter for the MATLAB subset.

   This is the semantic oracle for the compiler (results must agree
   with the compiled SPMD programs bit-for-bit up to reduction order)
   and, combined with a {!Cost} model, the two sequential baselines of
   the paper's Figure 2 (The MathWorks interpreter and the MATCOM
   compiler).

   Values are dynamically typed; a 1x1 matrix is normalized to a
   scalar, mirroring MATLAB's "everything is a matrix" semantics while
   matching the compiled code's replicated scalars. *)

open Mlang

exception Runtime_error of string

let error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

type value =
  | Scalar of float
  | Mat of Dense.t
  | Nd of Runtime.Nd.t (* rank >= 3; trailing two dims are the cell *)
  | Str of string

module Nda = Runtime.Nd

exception Break_exc
exception Continue_exc
exception Return_exc

type frame = {
  env : (string, value) Hashtbl.t;
  funcs : (string, Ast.func) Hashtbl.t;
  out : Buffer.t;
  cost : Cost.model;
  mutable rand_calls : int;
  seed : int;
  datadir : string;
  mutable end_extent : float option; (* value of 'end' in current index *)
  mpi_queues : (int, value Queue.t) Hashtbl.t;
      (* per-tag FIFO of pending self-sends: the interpreter is the
         P = 1 machine, so rank 0 only ever talks to itself *)
}

let truthy_scalar f = f <> 0.
let of_bool b = if b then 1. else 0.

let truthy = function
  | Scalar f -> truthy_scalar f
  | Mat m -> Dense.numel m > 0 && Array.for_all (fun x -> x <> 0.) m.Dense.data
  | Nd t -> Nda.numel t > 0 && Array.for_all (fun x -> x <> 0.) t.Nda.data
  | Str s -> s <> ""

(* Normalize 1x1 matrices to scalars. *)
let mat (m : Dense.t) : value =
  if Dense.numel m = 1 then Scalar m.Dense.data.(0) else Mat m

(* Same normalization for tensors, so a fully collapsed section
   behaves like the replicated scalar compiled code produces. *)
let nd (t : Nda.t) : value = if Nda.numel t = 1 then Scalar t.Nda.data.(0) else Nd t

let to_dense = function
  | Mat m -> m
  | Scalar f -> { Dense.rows = 1; cols = 1; data = [| f |] }
  | Nd _ -> error "tensor used where a matrix is required"
  | Str _ -> error "string used as a numeric value"

let as_scalar = function
  | Scalar f -> f
  | Mat m when Dense.numel m = 1 -> m.Dense.data.(0)
  | Mat _ -> error "matrix used where a scalar is required"
  | Nd _ -> error "tensor used where a scalar is required"
  | Str _ -> error "string used where a scalar is required"

let lookup fr v =
  match Hashtbl.find_opt fr.env v with
  | Some x -> x
  | None -> error "variable '%s' used before it is defined" v

(* --- operators ---------------------------------------------------------- *)

let scalar_binop (op : Ast.binop) a b =
  match op with
  | Ast.Add -> a +. b
  | Ast.Sub -> a -. b
  | Ast.Mul | Ast.Emul -> a *. b
  | Ast.Div | Ast.Ediv -> a /. b
  | Ast.Ldiv | Ast.Eldiv -> b /. a
  | Ast.Pow | Ast.Epow -> Float.pow a b
  | Ast.Lt -> of_bool (a < b)
  | Ast.Le -> of_bool (a <= b)
  | Ast.Gt -> of_bool (a > b)
  | Ast.Ge -> of_bool (a >= b)
  | Ast.Eq -> of_bool (a = b)
  | Ast.Ne -> of_bool (a <> b)
  | Ast.And | Ast.Shortand -> of_bool (truthy_scalar a && truthy_scalar b)
  | Ast.Or | Ast.Shortor -> of_bool (truthy_scalar a || truthy_scalar b)

(* Element-wise application with scalar broadcasting; each operation
   makes one pass over the data (no fusion: this is what interpreters
   and library-call translators do, and what their cost models charge). *)
(* Frame broadcasting (Remora-style): a matrix operand combined with a
   tensor is lifted over the tensor's leading axes; in row-major layout
   the cell element for tensor offset g is simply g mod cell_numel. *)
let frame_cell (t : Nda.t) (m : Dense.t) =
  if m.Dense.rows <> Nda.cell_rows t || m.Dense.cols <> Nda.cell_cols t then
    error "nonconformant operands (%dx%d cell vs %dx%d matrix)"
      (Nda.cell_rows t) (Nda.cell_cols t) m.Dense.rows m.Dense.cols;
  let cell = Nda.cell_numel t in
  fun g -> m.Dense.data.(g mod cell)

let broadcast2 fr op a b =
  match (a, b) with
  | Scalar x, Scalar y -> Scalar (scalar_binop op x y)
  | Mat m, Scalar y ->
      Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
      mat (Dense.map (fun x -> scalar_binop op x y) m)
  | Scalar x, Mat m ->
      Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
      mat (Dense.map (fun y -> scalar_binop op x y) m)
  | Mat ma, Mat mb ->
      Cost.charge_elem fr.cost ~elems:(Dense.numel ma) ~ops:1;
      mat (Dense.map2 (fun x y -> scalar_binop op x y) ma mb)
  | Nd t, Scalar y ->
      Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
      nd (Nda.map (fun x -> scalar_binop op x y) t)
  | Scalar x, Nd t ->
      Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
      nd (Nda.map (fun y -> scalar_binop op x y) t)
  | Nd ta, Nd tb ->
      Cost.charge_elem fr.cost ~elems:(Nda.numel ta) ~ops:1;
      (try nd (Nda.map2 (fun x y -> scalar_binop op x y) ta tb)
       with Invalid_argument m -> error "%s" m)
  | Nd t, Mat m ->
      Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
      let cell = frame_cell t m in
      nd
        (Nda.init t.Nda.dims (fun g ->
             scalar_binop op t.Nda.data.(g) (cell g)))
  | Mat m, Nd t ->
      Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
      let cell = frame_cell t m in
      nd
        (Nda.init t.Nda.dims (fun g ->
             scalar_binop op (cell g) t.Nda.data.(g)))
  | (Str _, _ | _, Str _) -> error "arithmetic on strings"

let eval_binop fr op a b =
  match op with
  | Ast.Add | Ast.Sub | Ast.Emul | Ast.Ediv | Ast.Eldiv | Ast.Epow | Ast.Lt
  | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
      broadcast2 fr op a b
  | Ast.Shortand ->
      Scalar (of_bool (truthy a && truthy b))
  | Ast.Shortor -> Scalar (of_bool (truthy a || truthy b))
  | Ast.Mul -> (
      match (a, b) with
      | Mat ma, Mat mb ->
          let flops =
            2. *. float_of_int (ma.Dense.rows * ma.Dense.cols * mb.Dense.cols)
          in
          Cost.charge_kernel fr.cost ~flops;
          mat (Dense.matmul ma mb)
      | (Nd _, (Mat _ | Nd _) | Mat _, Nd _) ->
          error "matrix multiplication of a tensor is not supported; use .*"
      | _ -> broadcast2 fr Ast.Emul a b)
  | Ast.Div -> (
      match (a, b) with
      | _, Scalar _ -> broadcast2 fr Ast.Ediv a b
      | _ -> error "matrix right division is not supported")
  | Ast.Ldiv -> (
      match (a, b) with
      | Scalar _, _ -> broadcast2 fr Ast.Eldiv a b
      | _ -> error "matrix left division (linear solve) is not supported")
  | Ast.Pow -> (
      match (a, b) with
      | Scalar x, Scalar y -> Scalar (Float.pow x y)
      | _ -> error "matrix power is not supported; use .^")

(* --- indexing ----------------------------------------------------------- *)

type index = Iall | Ivals of int array (* 0-based *)

let index_count extent = function
  | Iall -> extent
  | Ivals v -> Array.length v

let index_get extent idx k =
  match idx with
  | Iall -> k
  | Ivals v ->
      let i = v.(k) in
      if i < 0 || i >= extent then
        error "index %d out of bounds (extent %d)" (i + 1) extent;
      i

let value_to_index = function
  | Scalar f -> Ivals [| int_of_float f - 1 |]
  | Mat m -> Ivals (Array.map (fun f -> int_of_float f - 1) m.Dense.data)
  | Nd _ -> error "tensor used as an index"
  | Str _ -> error "string used as an index"

(* --- expressions -------------------------------------------------------- *)

let rec eval_expr fr (e : Ast.expr) : value =
  Cost.charge_dispatch fr.cost;
  match e.node with
  | Ast.Num f -> Scalar f
  | Ast.Str s -> Str s
  | Ast.Varref v -> lookup fr v
  | Ast.Colon -> error "':' outside an index"
  | Ast.End_marker -> (
      match fr.end_extent with
      | Some extent -> Scalar extent
      | None -> error "'end' outside an index")
  | Ast.Binop (op, a, b) -> eval_binop fr op (eval_expr fr a) (eval_expr fr b)
  | Ast.Unop (op, a) -> eval_unop fr op a
  | Ast.Range (a, step, b) ->
      let lo = as_scalar (eval_expr fr a) in
      let step =
        match step with Some s -> as_scalar (eval_expr fr s) | None -> 1.
      in
      let hi = as_scalar (eval_expr fr b) in
      let n =
        if step = 0. then 0
        else
          let raw = ((hi -. lo) /. step) +. 1e-9 in
          if raw < 0. then 0 else int_of_float (Float.floor raw) + 1
      in
      Cost.charge_elem fr.cost ~elems:n ~ops:1;
      mat (Dense.init 1 n (fun g -> lo +. (float_of_int g *. step)))
  | Ast.Matrix rows -> eval_matrix_literal fr rows
  | Ast.Index (v, args) -> eval_index fr (lookup fr v) args
  | Ast.Call (name, args) -> (
      match eval_call fr e.ann.pos name args ~nrets:1 with
      | r :: _ -> r
      | [] -> error "function '%s' returned no value" name)
  | Ast.Ident n | Ast.Apply (n, _) ->
      Source.error e.ann.pos "unresolved '%s' reached the interpreter" n

and eval_unop fr op a =
  match op with
  | Ast.Uplus -> eval_expr fr a
  | Ast.Neg -> (
      match eval_expr fr a with
      | Scalar f -> Scalar (-.f)
      | Mat m ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          mat (Dense.map (fun x -> -.x) m)
      | Nd t ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
          nd (Nda.map (fun x -> -.x) t)
      | Str _ -> error "negation of a string")
  | Ast.Not -> (
      match eval_expr fr a with
      | Scalar f -> Scalar (of_bool (not (truthy_scalar f)))
      | Mat m ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          mat (Dense.map (fun x -> of_bool (x = 0.)) m)
      | Nd t ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
          nd (Nda.map (fun x -> of_bool (x = 0.)) t)
      | Str _ -> error "negation of a string")
  | Ast.Transpose | Ast.Ctranspose -> (
      match eval_expr fr a with
      | Scalar f -> Scalar f
      | Mat m ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          mat (Dense.transpose m)
      | Nd _ -> error "transpose of a tensor is not supported"
      | Str s -> Str s)

and eval_matrix_literal fr rows =
  (* General concatenation: element values may themselves be matrices.
     Empty operands are dropped, as MATLAB does: [[], 1, 2] is [1, 2]. *)
  let vrows =
    List.map (fun row -> List.map (fun e -> to_dense (eval_expr fr e)) row) rows
  in
  let vrows =
    List.filter_map
      (fun row ->
        match List.filter (fun b -> Dense.numel b > 0) row with
        | [] -> None
        | row -> Some row)
      vrows
  in
  match vrows with
  | [] -> mat (Dense.create 0 0)
  | _ ->
      let hcat (blocks : Dense.t list) : Dense.t =
        match blocks with
        | [] -> Dense.create 0 0
        | b0 :: _ ->
            let rows = b0.Dense.rows in
            List.iter
              (fun b ->
                if b.Dense.rows <> rows then
                  error "inconsistent row counts in matrix literal")
              blocks;
            let cols = List.fold_left (fun a b -> a + b.Dense.cols) 0 blocks in
            let r = Dense.create rows cols in
            let off = ref 0 in
            List.iter
              (fun b ->
                for i = 0 to rows - 1 do
                  Array.blit b.Dense.data (i * b.Dense.cols) r.Dense.data
                    ((i * cols) + !off)
                    b.Dense.cols
                done;
                off := !off + b.Dense.cols)
              blocks;
            r
      in
      let parts = List.map hcat vrows in
      let cols = (List.hd parts).Dense.cols in
      List.iter
        (fun p ->
          if p.Dense.cols <> cols then
            error "inconsistent column counts in matrix literal")
        parts;
      let rows = List.fold_left (fun a p -> a + p.Dense.rows) 0 parts in
      let r = Dense.create rows cols in
      let off = ref 0 in
      List.iter
        (fun p ->
          Array.blit p.Dense.data 0 r.Dense.data (!off * cols)
            (p.Dense.rows * cols);
          off := !off + p.Dense.rows)
        parts;
      Cost.charge_elem fr.cost ~elems:(rows * cols) ~ops:1;
      mat r

and eval_index_arg fr extent (a : Ast.expr) : index =
  match a.node with
  | Ast.Colon -> Iall
  | _ ->
      let saved = fr.end_extent in
      fr.end_extent <- Some (float_of_int extent);
      let v = eval_expr fr a in
      fr.end_extent <- saved;
      value_to_index v

and eval_index fr (base : value) args =
  match base with
  | Str _ -> error "indexing a string"
  | Scalar f ->
      List.iter
        (fun a ->
          let i = eval_index_arg fr 1 a in
          match i with
          | Iall -> ()
          | Ivals [| 0 |] -> ()
          | Ivals _ -> error "index out of bounds for a scalar")
        args;
      Scalar f
  | Mat m -> (
      match args with
      | [ a ] ->
          let n = Dense.numel m in
          let idx = eval_index_arg fr n a in
          let len = index_count n idx in
          let rows, cols =
            if m.Dense.rows = 1 then (1, len)
            else if m.Dense.cols = 1 then (len, 1)
            else if len = n then (m.Dense.rows, m.Dense.cols)
            else (len, 1)
          in
          Cost.charge_elem fr.cost ~elems:len ~ops:1;
          mat
            (Dense.init rows cols (fun g ->
                 Dense.get_linear m (index_get n idx g)))
      | [ a1; a2 ] ->
          let ri = eval_index_arg fr m.Dense.rows a1 in
          let rj = eval_index_arg fr m.Dense.cols a2 in
          let nr = index_count m.Dense.rows ri in
          let nc = index_count m.Dense.cols rj in
          Cost.charge_elem fr.cost ~elems:(nr * nc) ~ops:1;
          mat
            (Dense.init_rc nr nc (fun i j ->
                 Dense.get m (index_get m.Dense.rows ri i)
                   (index_get m.Dense.cols rj j)))
      | _ -> error "unsupported number of indices")
  | Nd t ->
      let r = Nda.rank t in
      if List.length args <> r then
        error "a rank-%d tensor must be indexed with exactly %d subscripts \
               (got %d)"
          r r (List.length args);
      let idxs =
        List.mapi (fun axis a -> eval_index_arg fr t.Nda.dims.(axis) a) args
      in
      let scalar_read =
        List.for_all (function Ivals [| _ |] -> true | _ -> false) idxs
      in
      let counts =
        Array.of_list
          (List.mapi (fun axis i -> index_count t.Nda.dims.(axis) i) idxs)
      in
      let idxs = Array.of_list idxs in
      Cost.charge_elem fr.cost ~elems:(Array.fold_left ( * ) 1 counts) ~ops:1;
      let fetch (sub : int array) =
        let full =
          Array.mapi (fun axis k -> index_get t.Nda.dims.(axis) idxs.(axis) k) sub
        in
        Nda.get t full
      in
      if scalar_read then Scalar (fetch (Array.make r 0))
      else
        (* a sectioning subscript keeps the rank: no dimension squeeze *)
        nd
          (Nda.init counts (fun g ->
               let sub = Array.make r 0 in
               let rem = ref g in
               for axis = r - 1 downto 0 do
                 sub.(axis) <- !rem mod counts.(axis);
                 rem := !rem / counts.(axis)
               done;
               fetch sub))

and eval_call fr pos name args ~nrets : value list =
  let module B = Analysis.Builtins in
  if Hashtbl.mem fr.funcs name then eval_user_call fr pos name args ~nrets
  else
    match B.find name with
    | None -> error "unknown function '%s'" name
    | Some b ->
        B.check_arity b (List.length args) pos;
        let vals = List.map (eval_expr fr) args in
        eval_builtin fr name b.B.kind vals ~nrets

and eval_builtin fr name kind (vals : value list) ~nrets : value list =
  let module B = Analysis.Builtins in
  let one v = [ v ] in
  let reduce_value op_init op_comb finish v =
    match v with
    | Scalar f -> Scalar (finish 1 f)
    | Mat m ->
        Cost.charge_kernel fr.cost ~flops:(float_of_int (Dense.numel m));
        if Dense.is_vector m then
          Scalar (finish (Dense.numel m) (Dense.fold op_comb op_init m))
        else
          mat
            (Dense.map
               (fun x -> finish m.Dense.rows x)
               (Dense.col_reduce op_comb op_init m))
    | Nd t ->
        (* Tensors reduce fully, to one scalar over every element. *)
        Cost.charge_kernel fr.cost ~flops:(float_of_int (Nda.numel t));
        Scalar (finish (Nda.numel t) (Nda.fold op_comb op_init t))
    | Str _ -> error "reduction of a string"
  in
  match (kind, vals) with
  | B.Map1 (f, _), [ Scalar x ] -> one (Scalar (f x))
  | B.Map1 (f, _), [ Mat m ] ->
      Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
      one (mat (Dense.map f m))
  | B.Map1 (f, _), [ Nd t ] ->
      Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
      one (nd (Nda.map f t))
  | (B.Map2 (f, _) | B.Minmax (f, _)), [ a; b ] -> (
      match (a, b) with
      | Scalar x, Scalar y -> one (Scalar (f x y))
      | Mat m, Scalar y ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          one (mat (Dense.map (fun x -> f x y) m))
      | Scalar x, Mat m ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          one (mat (Dense.map (fun y -> f x y) m))
      | Mat ma, Mat mb ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel ma) ~ops:1;
          one (mat (Dense.map2 f ma mb))
      | Nd t, Scalar y ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
          one (nd (Nda.map (fun x -> f x y) t))
      | Scalar x, Nd t ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
          one (nd (Nda.map (fun y -> f x y) t))
      | Nd ta, Nd tb ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel ta) ~ops:1;
          (try one (nd (Nda.map2 f ta tb))
           with Invalid_argument m -> error "%s" m)
      | Nd t, Mat m ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
          let cell = frame_cell t m in
          one (nd (Nda.init t.Nda.dims (fun g -> f t.Nda.data.(g) (cell g))))
      | Mat m, Nd t ->
          Cost.charge_elem fr.cost ~elems:(Nda.numel t) ~ops:1;
          let cell = frame_cell t m in
          one (nd (Nda.init t.Nda.dims (fun g -> f (cell g) t.Nda.data.(g))))
      | _ -> error "'%s' of a string" name)
  | B.Minmax _, [ v ] when nrets = 2 -> (
      (* [m, i] = min(v): extremum and the 1-based index of its first
         occurrence (storage order for vectors, column order else). *)
      match v with
      | Scalar f -> [ Scalar f; Scalar 1. ]
      | Mat m when Dense.is_vector m ->
          Cost.charge_kernel fr.cost ~flops:(float_of_int (Dense.numel m));
          let cmp = if name = "min" then ( < ) else ( > ) in
          (* NaN is never better; anything beats a NaN (MATLAB) *)
          let better x best =
            (not (Float.is_nan x)) && (Float.is_nan best || cmp x best)
          in
          let best = ref m.Dense.data.(0) and best_i = ref 0 in
          Array.iteri
            (fun i x ->
              if better x !best then begin
                best := x;
                best_i := i
              end)
            m.Dense.data;
          [ Scalar !best; Scalar (float_of_int (!best_i + 1)) ]
      | Mat _ -> error "[m, i] = %s of a full matrix is not supported" name
      | Nd _ -> error "[m, i] = %s of a tensor is not supported" name
      | Str _ -> error "%s of a string" name)
  | B.Minmax (pick, _), [ v ] ->
      (* MATLAB ignores NaNs: min/max over the non-NaN elements, NaN
         only when every element is NaN.  NaN is the fold identity. *)
      let comb a b =
        if Float.is_nan a then b
        else if Float.is_nan b then a
        else pick a b
      in
      one (reduce_value Float.nan comb (fun _ x -> x) v)
  | B.Scan _, [ v ] -> (
      let combine = if name = "cumsum" then ( +. ) else ( *. ) in
      let identity = if name = "cumsum" then 0. else 1. in
      match v with
      | Scalar f -> one (Scalar f)
      | Mat m when Dense.is_vector m ->
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          let acc = ref identity in
          one
            (mat
               (Dense.init m.Dense.rows m.Dense.cols (fun g ->
                    acc := combine !acc m.Dense.data.(g);
                    !acc)))
      | Mat _ -> error "%s of a full matrix is not supported" name
      | Nd _ -> error "%s of a tensor is not supported" name
      | Str _ -> error "%s of a string" name)
  | B.Reduce _, [ v ] -> (
      match name with
      | "sum" -> one (reduce_value 0. ( +. ) (fun _ x -> x) v)
      | "prod" -> one (reduce_value 1. ( *. ) (fun _ x -> x) v)
      | "mean" ->
          one (reduce_value 0. ( +. ) (fun n x -> x /. float_of_int n) v)
      | "norm" -> (
          match v with
          | Scalar f -> one (Scalar (Float.abs f))
          | Mat m when Dense.is_vector m ->
              Cost.charge_kernel fr.cost
                ~flops:(2. *. float_of_int (Dense.numel m));
              one (Scalar (sqrt (Dense.fold (fun a x -> a +. (x *. x)) 0. m)))
          | Mat _ -> error "norm of a full matrix is not supported"
          | Nd _ -> error "norm of a tensor is not supported"
          | Str _ -> error "norm of a string")
      | "any" ->
          one
            (Scalar
               (match v with
               | Scalar f -> of_bool (truthy_scalar f)
               | Mat m -> of_bool (Array.exists (fun x -> x <> 0.) m.Dense.data)
               | Nd t -> of_bool (Array.exists (fun x -> x <> 0.) t.Nda.data)
               | Str _ -> error "any of a string"))
      | "all" -> one (Scalar (of_bool (truthy v)))
      | _ -> error "unknown reduction '%s'" name)
  | B.Dot, [ a; b ] ->
      let ma = to_dense a and mb = to_dense b in
      if Dense.numel ma <> Dense.numel mb then error "dot: length mismatch";
      Cost.charge_kernel fr.cost ~flops:(2. *. float_of_int (Dense.numel ma));
      let acc = ref 0. in
      Array.iteri (fun i x -> acc := !acc +. (x *. mb.Dense.data.(i))) ma.Dense.data;
      one (Scalar !acc)
  | B.Trapz, [ y ] ->
      let m = to_dense y in
      Cost.charge_kernel fr.cost ~flops:(5. *. float_of_int (Dense.numel m));
      one (Scalar (Dense.trapz m))
  | B.Trapz, [ x; y ] ->
      let mx = to_dense x and my = to_dense y in
      if Dense.numel mx <> Dense.numel my then
        error "trapz: x and y sizes disagree";
      Cost.charge_kernel fr.cost ~flops:(5. *. float_of_int (Dense.numel my));
      one (Scalar (Dense.trapz ~x:mx my))
  | B.Shift, [ v; k ] ->
      let m = to_dense v in
      Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
      one (mat (Dense.circshift m (int_of_float (as_scalar k))))
  | B.Constructor _, _ -> one (eval_constructor fr name vals)
  | B.Query "size", [ Nd t ] ->
      if nrets = 2 then error "two-output size of a tensor is not supported"
      else
        one
          (mat
             (Dense.init 1 (Nda.rank t) (fun g ->
                  float_of_int t.Nda.dims.(g))))
  | B.Query "size", [ v ] ->
      let m = to_dense v in
      if nrets = 2 then
        [ Scalar (float_of_int m.Dense.rows); Scalar (float_of_int m.Dense.cols) ]
      else
        one
          (mat
             (Dense.init 1 2 (fun g ->
                  float_of_int (if g = 0 then m.Dense.rows else m.Dense.cols))))
  | B.Query "size", [ Nd t; d ] ->
      let d = int_of_float (as_scalar d) in
      one
        (Scalar
           (if d >= 1 && d <= Nda.rank t then float_of_int t.Nda.dims.(d - 1)
            else 1.))
  | B.Query "size", [ v; d ] ->
      let m = to_dense v in
      one
        (Scalar
           (match int_of_float (as_scalar d) with
           | 1 -> float_of_int m.Dense.rows
           | 2 -> float_of_int m.Dense.cols
           | _ -> 1.))
  | B.Query "length", [ Nd t ] ->
      one (Scalar (float_of_int (Array.fold_left max 0 t.Nda.dims)))
  | B.Query "length", [ v ] ->
      let m = to_dense v in
      one (Scalar (float_of_int (max m.Dense.rows m.Dense.cols)))
  | B.Query "numel", [ Nd t ] -> one (Scalar (float_of_int (Nda.numel t)))
  | B.Query "numel", [ v ] ->
      one (Scalar (float_of_int (Dense.numel (to_dense v))))
  | B.Output "disp", [ v ] ->
      (match v with
      | Scalar f -> Buffer.add_string fr.out (Printf.sprintf "%g\n" f)
      | Str s -> Buffer.add_string fr.out (s ^ "\n")
      | Mat m ->
          Buffer.add_string fr.out
            (Fmtutil.format_matrix ~rows:m.Dense.rows ~cols:m.Dense.cols
               m.Dense.data)
      | Nd t ->
          Buffer.add_string fr.out
            (Fmtutil.format_tensor ~dims:t.Nda.dims t.Nda.data));
      []
  | B.Output "fprintf", fmt :: rest ->
      (match fmt with
      | Str f ->
          let args =
            List.map
              (function
                | Scalar x -> Fmtutil.F x
                | Str s -> Fmtutil.S s
                | Mat _ | Nd _ -> error "fprintf of a whole matrix")
              rest
          in
          Buffer.add_string fr.out (Fmtutil.format f args)
      | _ -> error "fprintf: first argument must be a format string");
      []
  | B.Sort, [ v ] -> (
      match v with
      | Scalar f -> if nrets = 2 then [ Scalar f; Scalar 1. ] else [ Scalar f ]
      | Mat m when Dense.is_vector m ->
          let n = Dense.numel m in
          Cost.charge_kernel fr.cost ~flops:(float_of_int (n * 8));
          let order = Array.init n (fun i -> i) in
          Array.sort
            (fun a b ->
              (* MATLAB sorts NaNs to the end (OCaml's compare puts
                 them first) *)
              let x = m.Dense.data.(a) and y = m.Dense.data.(b) in
              let c =
                match (Float.is_nan x, Float.is_nan y) with
                | true, true -> 0
                | true, false -> 1
                | false, true -> -1
                | false, false -> compare x y
              in
              if c <> 0 then c else compare a b)
            order;
          let sorted =
            Dense.init m.Dense.rows m.Dense.cols (fun g -> m.Dense.data.(order.(g)))
          in
          if nrets = 2 then
            [
              mat sorted;
              mat
                (Dense.init m.Dense.rows m.Dense.cols (fun g ->
                     float_of_int (order.(g) + 1)));
            ]
          else [ mat sorted ]
      | Mat _ -> error "sort of a full matrix is not supported"
      | Nd _ -> error "sort of a tensor is not supported"
      | Str _ -> error "sort of a string")
  | B.Diag, [ v ] -> (
      match v with
      | Scalar f -> one (Scalar f)
      | Mat m when Dense.is_vector m ->
          let n = Dense.numel m in
          Cost.charge_elem fr.cost ~elems:(n * n) ~ops:1;
          one
            (mat
               (Dense.init_rc n n (fun i j ->
                    if i = j then Dense.get_linear m i else 0.)))
      | Nd _ -> error "diag of a tensor is not supported"
      | Mat m ->
          let n = min m.Dense.rows m.Dense.cols in
          Cost.charge_elem fr.cost ~elems:n ~ops:1;
          one (mat (Dense.init n 1 (fun g -> Dense.get m g g)))
      | Str _ -> error "diag of a string")
  | B.Repmat, [ v; r; c ] -> (
      let rr = int_of_float (as_scalar r) and cc = int_of_float (as_scalar c) in
      if rr < 1 || cc < 1 then error "repmat: tile counts must be positive";
      let m = to_dense v in
      let rows = m.Dense.rows * rr and cols = m.Dense.cols * cc in
      Cost.charge_elem fr.cost ~elems:(rows * cols) ~ops:1;
      one
        (mat
           (Dense.init_rc rows cols (fun i j ->
                Dense.get m (i mod m.Dense.rows) (j mod m.Dense.cols)))))
  | B.Load, [ Str fname ] -> (
      let path = Filename.concat fr.datadir fname in
      match Mlang.Datafile.read path with
      | rows, cols, data ->
          Cost.charge_elem fr.cost ~elems:(rows * cols) ~ops:1;
          one (mat { Dense.rows; cols; data })
      | exception Mlang.Datafile.Bad_data msg -> error "load(%S): %s" fname msg)
  | B.Error_fn, [ Str msg ] -> error "%s" msg
  | B.Constant c, [] -> one (Scalar c)
  | B.Mpi op, _ -> (
      (* Serial oracle semantics: one rank, so every send is a
         self-send.  Sends enqueue per tag; a receive on an empty queue
         is the one-rank picture of a deadlock. *)
      let q tag =
        match Hashtbl.find_opt fr.mpi_queues tag with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace fr.mpi_queues tag q;
            q
      in
      let rank_arg what v =
        let r = int_of_float (as_scalar v) in
        if r <> 0 then error "%s: %s rank %d is outside 0..0" name what r
      in
      (* Receives and probes admit the any-source wildcard (-1); on one
         rank it is indistinguishable from source 0. *)
      let source_arg v =
        let r = int_of_float (as_scalar v) in
        if r <> 0 && r <> -1 then
          error "%s: source rank %d is outside 0..0 (use -1 for any source)"
            name r
      in
      let tag_arg v =
        let f = as_scalar v in
        let t = int_of_float f in
        if float_of_int t <> f || t < 0 then
          error "%s: message tags must be non-negative integers" name;
        t
      in
      let copy = function
        | Mat m -> Mat (Dense.copy m)
        | Nd t -> Nd (Nda.copy t)
        | v -> v
      in
      match (op, vals) with
      | B.Mrank, [] -> one (Scalar 0.)
      | B.Msize, [] -> one (Scalar 1.)
      | B.Msend, [ dst; tag; v ] ->
          rank_arg "destination" dst;
          let t = tag_arg tag in
          (match v with
          | Str _ -> error "MPI_Send: cannot send a string"
          | Nd _ -> error "MPI_Send: cannot send a tensor"
          | v -> Queue.push (copy v) (q t));
          []
      | B.Mrecv, [ src; tag ] ->
          source_arg src;
          let t = tag_arg tag in
          let q = q t in
          if Queue.is_empty q then
            error
              "MPI_Recv: no message pending on tag %d; on one rank this \
               receive would deadlock"
              t;
          one (copy (Queue.pop q))
      | B.Mbcast, [ root; v ] -> (
          rank_arg "root" root;
          match v with
          | Str _ -> error "MPI_Bcast: cannot send a string"
          | Nd _ -> error "MPI_Bcast: cannot send a tensor"
          | v -> one (copy v))
      | B.Mprobe, [ src; tag ] ->
          source_arg src;
          let t = tag_arg tag in
          one (Scalar (if Queue.is_empty (q t) then 0. else 1.))
      | _ -> error "unsupported call to '%s'" name)
  | _ -> error "unsupported call to '%s'" name

and eval_constructor fr name vals : value =
  (* zeros/ones/rand/randn with three size arguments build a rank-3
     tensor: pages x rows x cols, the page axis being the leading
     (frame, block-distributed) axis. *)
  let dims3 () =
    match vals with
    | [ p; r; c ] ->
        Some
          [|
            int_of_float (as_scalar p);
            int_of_float (as_scalar r);
            int_of_float (as_scalar c);
          |]
    | _ -> None
  in
  let dims () =
    match vals with
    | [ n ] ->
        let n = int_of_float (as_scalar n) in
        (n, n)
    | [ r; c ] -> (int_of_float (as_scalar r), int_of_float (as_scalar c))
    | [] -> (1, 1)
    | _ -> error "constructor expects at most 2 size arguments"
  in
  let charge r c = Cost.charge_elem fr.cost ~elems:(r * c) ~ops:1 in
  let charge_nd d = Cost.charge_elem fr.cost ~elems:(Array.fold_left ( * ) 1 d) ~ops:1 in
  match name with
  | "zeros" -> (
      match dims3 () with
      | Some d ->
          charge_nd d;
          nd (Nda.create d)
      | None ->
          let r, c = dims () in
          charge r c;
          mat (Dense.create r c))
  | "ones" -> (
      match dims3 () with
      | Some d ->
          charge_nd d;
          nd (Nda.init d (fun _ -> 1.))
      | None ->
          let r, c = dims () in
          charge r c;
          mat (Dense.init r c (fun _ -> 1.)))
  | "eye" ->
      let r, c = dims () in
      charge r c;
      mat (Dense.init_rc r c (fun i j -> if i = j then 1. else 0.))
  | "rand" | "randn" -> (
      fr.rand_calls <- fr.rand_calls + 1;
      let seed = fr.seed + fr.rand_calls in
      let gen =
        if name = "rand" then Mpisim.Rng.uniform ~seed
        else Mpisim.Rng.normal ~seed
      in
      match dims3 () with
      | Some d ->
          charge_nd d;
          nd (Nda.init d gen)
      | None ->
          let r, c = dims () in
          charge r c;
          mat (Dense.init r c gen))
  | "linspace" -> (
      match vals with
      | [ a; b; n ] ->
          let a = as_scalar a and b = as_scalar b in
          let n = int_of_float (as_scalar n) in
          let d = if n > 1 then (b -. a) /. float_of_int (n - 1) else 0. in
          charge 1 n;
          mat (Dense.init 1 n (fun g -> a +. (float_of_int g *. d)))
      | _ -> error "linspace takes three arguments")
  | _ -> error "unknown constructor '%s'" name

and eval_user_call fr pos name args ~nrets : value list =
  let f = Hashtbl.find fr.funcs name in
  if List.length args <> List.length f.Ast.params then
    Source.error pos "function '%s' expects %d arguments" name
      (List.length f.Ast.params);
  let vals = List.map (eval_expr fr) args in
  let callee = { fr with env = Hashtbl.create 16 } in
  List.iter2
    (fun p v ->
      let v = match v with Mat m -> Mat (Dense.copy m) | other -> other in
      Hashtbl.replace callee.env p v)
    f.Ast.params vals;
  (try exec_block callee f.Ast.fbody with Return_exc -> ());
  fr.rand_calls <- callee.rand_calls;
  let rets =
    List.map
      (fun r ->
        match Hashtbl.find_opt callee.env r with
        | Some v -> v
        | None ->
            error "function '%s' did not assign return value '%s'" name r)
      f.Ast.returns
  in
  if List.length rets < nrets then
    error "function '%s' returns %d values, %d requested" name
      (List.length rets) nrets;
  rets

(* --- statements --------------------------------------------------------- *)

and display fr name v =
  match v with
  | Scalar f -> Buffer.add_string fr.out (Printf.sprintf "%s = %g\n" name f)
  | Str s -> Buffer.add_string fr.out (Printf.sprintf "%s = %s\n" name s)
  | Mat m ->
      Buffer.add_string fr.out
        (Fmtutil.format_matrix ~name ~rows:m.Dense.rows ~cols:m.Dense.cols
           m.Dense.data)
  | Nd t ->
      Buffer.add_string fr.out
        (Fmtutil.format_tensor ~name ~dims:t.Nda.dims t.Nda.data)

and assign_indexed fr (l : Ast.lhs) rhs_val =
  (* An out-of-bounds store grows the array MATLAB-style: vectors (and
     scalars, and []) extend along their orientation, zero-filled;
     two-index stores grow both dimensions.  Only a linear store into a
     full matrix cannot decide which dimension to grow. *)
  let needed = function
    | Iall -> 0
    | Ivals vs -> Array.fold_left (fun a v -> max a (v + 1)) 0 vs
  in
  let grown (m : Dense.t) rows cols =
    if rows <= m.Dense.rows && cols <= m.Dense.cols then m
    else begin
      let g =
        Dense.create (max rows m.Dense.rows) (max cols m.Dense.cols)
      in
      for i = 0 to m.Dense.rows - 1 do
        for j = 0 to m.Dense.cols - 1 do
          Dense.set g i j (Dense.get m i j)
        done
      done;
      g
    end
  in
  match lookup fr l.lv_name with
  | Str _ -> error "indexed assignment into a string"
  | Nd t ->
      let t = Nda.copy t in
      let r = Nda.rank t in
      let args = Option.get l.lv_indices in
      if List.length args <> r then
        error "a rank-%d tensor must be indexed with exactly %d subscripts \
               (got %d)"
          r r (List.length args);
      let idxs =
        Array.of_list
          (List.mapi (fun axis a -> eval_index_arg fr t.Nda.dims.(axis) a) args)
      in
      (* Tensors never grow: every index must land in bounds. *)
      let counts =
        Array.mapi (fun axis i -> index_count t.Nda.dims.(axis) i) idxs
      in
      let total = Array.fold_left ( * ) 1 counts in
      let src =
        match rhs_val with
        | Scalar f -> `Fill f
        | Nd s ->
            if Nda.numel s <> total then error "section assignment size mismatch";
            `Data s.Nda.data
        | Mat m ->
            if Dense.numel m <> total then error "section assignment size mismatch";
            `Data m.Dense.data
        | Str _ -> error "cannot store a string into a tensor"
      in
      Cost.charge_elem fr.cost ~elems:total ~ops:1;
      let sub = Array.make r 0 in
      for g = 0 to total - 1 do
        let rem = ref g in
        for axis = r - 1 downto 0 do
          sub.(axis) <- !rem mod counts.(axis);
          rem := !rem / counts.(axis)
        done;
        let full =
          Array.mapi (fun axis k -> index_get t.Nda.dims.(axis) idxs.(axis) k) sub
        in
        Nda.set t full (match src with `Fill f -> f | `Data d -> d.(g))
      done;
      Hashtbl.replace fr.env l.lv_name (Nd t)
  | (Scalar _ | Mat _) as base -> (
      let m = Dense.copy (to_dense base) in
      (* copy-on-write semantics *)
      let args = Option.get l.lv_indices in
      match args with
      | [ a ] ->
          let idx = eval_index_arg fr (Dense.numel m) a in
          let m =
            if needed idx <= Dense.numel m then m
            else if m.Dense.rows <= 1 then grown m 1 (needed idx)
            else if m.Dense.cols = 1 then grown m (needed idx) 1
            else
              error
                "linear indexed assignment cannot grow a full matrix \
                 (ambiguous dimension)"
          in
          let n = Dense.numel m in
          let len = index_count n idx in
          let src = to_dense rhs_val in
          Cost.charge_elem fr.cost ~elems:len ~ops:1;
          if Dense.numel src = 1 then
            for k = 0 to len - 1 do
              Dense.set_linear m (index_get n idx k) src.Dense.data.(0)
            done
          else begin
            if Dense.numel src <> len then
              error "section assignment size mismatch";
            for k = 0 to len - 1 do
              Dense.set_linear m (index_get n idx k) src.Dense.data.(k)
            done
          end;
          Hashtbl.replace fr.env l.lv_name (mat m)
      | [ a1; a2 ] ->
          let ri = eval_index_arg fr m.Dense.rows a1 in
          let rj = eval_index_arg fr m.Dense.cols a2 in
          let m =
            grown m (max m.Dense.rows (needed ri))
              (max m.Dense.cols (needed rj))
          in
          let nr = index_count m.Dense.rows ri in
          let nc = index_count m.Dense.cols rj in
          let src = to_dense rhs_val in
          Cost.charge_elem fr.cost ~elems:(nr * nc) ~ops:1;
          if Dense.numel src = 1 then
            for i = 0 to nr - 1 do
              for j = 0 to nc - 1 do
                Dense.set m (index_get m.Dense.rows ri i)
                  (index_get m.Dense.cols rj j)
                  src.Dense.data.(0)
              done
            done
          else begin
            if Dense.numel src <> nr * nc then
              error "section assignment size mismatch";
            for i = 0 to nr - 1 do
              for j = 0 to nc - 1 do
                Dense.set m (index_get m.Dense.rows ri i)
                  (index_get m.Dense.cols rj j)
                  (Dense.get src i j)
              done
            done
          end;
          Hashtbl.replace fr.env l.lv_name (mat m)
      | _ -> error "unsupported number of indices")

and exec_stmt fr (s : Ast.stmt) =
  Cost.charge_dispatch fr.cost;
  match s.sdesc with
  | Ast.Assign (l, rhs, disp) -> (
      let v = eval_expr fr rhs in
      (match l.lv_indices with
      | None -> Hashtbl.replace fr.env l.lv_name v
      | Some _ -> assign_indexed fr l v);
      if disp then display fr l.lv_name (lookup fr l.lv_name))
  | Ast.Multi_assign (ls, rhs, disp) -> (
      match rhs.node with
      | Ast.Call (name, args) ->
          let rets = eval_call fr rhs.ann.pos name args ~nrets:(List.length ls) in
          List.iteri
            (fun i (l : Ast.lhs) ->
              match List.nth_opt rets i with
              | Some v -> (
                  match l.lv_indices with
                  | None -> Hashtbl.replace fr.env l.lv_name v
                  | Some _ -> assign_indexed fr l v)
              | None -> error "not enough return values")
            ls;
          if disp then
            List.iter
              (fun (l : Ast.lhs) -> display fr l.lv_name (lookup fr l.lv_name))
              ls
      | _ -> error "multiple assignment requires a function call")
  | Ast.Expr (e, disp) -> (
      match e.node with
      | Ast.Call (name, args)
        when (not (Hashtbl.mem fr.funcs name))
             && (match Analysis.Builtins.find name with
                | Some { Analysis.Builtins.kind = Analysis.Builtins.Output _; _ }
                | Some { Analysis.Builtins.kind = Analysis.Builtins.Error_fn; _ }
                | Some
                    {
                      Analysis.Builtins.kind =
                        Analysis.Builtins.Mpi Analysis.Builtins.Msend;
                      _;
                    } ->
                    true
                | _ -> false) ->
          ignore (eval_call fr e.ann.pos name args ~nrets:0)
      | _ ->
          let v = eval_expr fr e in
          if disp then display fr "ans" v)
  | Ast.If (branches, els) ->
      let rec pick = function
        | [] -> exec_block fr els
        | (c, blk) :: rest ->
            if truthy (eval_expr fr c) then exec_block fr blk else pick rest
      in
      pick branches
  | Ast.While (c, blk) -> (
      try
        while truthy (eval_expr fr c) do
          try exec_block fr blk with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Ast.For (v, range, blk) -> (
      let rv = eval_expr fr range in
      let iterate values =
        try
          Array.iter
            (fun x ->
              Hashtbl.replace fr.env v x;
              try exec_block fr blk with Continue_exc -> ())
            values
        with Break_exc -> ()
      in
      match rv with
      | Scalar f -> iterate [| Scalar f |]
      | Mat m when Dense.is_vector m ->
          iterate (Array.map (fun x -> Scalar x) m.Dense.data)
      | Mat m ->
          (* MATLAB iterates over columns. *)
          iterate
            (Array.init m.Dense.cols (fun j ->
                 mat (Dense.init m.Dense.rows 1 (fun i -> Dense.get m i j))))
      | Nd _ -> error "for over a tensor is not supported"
      | Str _ -> error "for over a string")
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Return -> raise Return_exc

and exec_block fr (b : Ast.block) = List.iter (exec_stmt fr) b

(* --- entry point --------------------------------------------------------- *)

type captured = Runtime.Captured.t =
  | Cscalar of float
  | Cmat of int * int * float array
  | Cnd of int array * float array

type outcome = {
  output : string;
  captures : (string * captured) list;
  time : float; (* modeled sequential execution time *)
}

let run ?(capture = []) ?(seed = 42) ?(datadir = ".") ~mode ~machine
    (p : Ast.program) : outcome
    =
  let out = Buffer.create 256 in
  let funcs = Hashtbl.create 8 in
  List.iter (fun (f : Ast.func) -> Hashtbl.replace funcs f.Ast.fname f) p.funcs;
  (* The interpreter is sequential (one simulated rank), so rank
     attribution adds nothing: unwrap and rethrow the original error. *)
  let unwrap f =
    try f () with Mpisim.Sim.Rank_failure { exn; _ } -> raise exn
  in
  let results, report =
    unwrap @@ fun () ->
    Mpisim.Sim.run ~machine:Mpisim.Machine.workstation ~nprocs:1 (fun _ ->
        let fr =
          {
            env = Hashtbl.create 64;
            funcs;
            out;
            cost = Cost.make mode machine;
            rand_calls = 0;
            seed;
            datadir;
            end_extent = None;
            mpi_queues = Hashtbl.create 8;
          }
        in
        (try exec_block fr p.script with Return_exc -> ());
        List.filter_map
          (fun name ->
            match Hashtbl.find_opt fr.env name with
            | Some (Scalar f) -> Some (name, Cscalar f)
            | Some (Mat m) ->
                Some
                  (name, Cmat (m.Dense.rows, m.Dense.cols, Array.copy m.Dense.data))
            | Some (Nd t) ->
                Some (name, Cnd (Array.copy t.Nda.dims, Array.copy t.Nda.data))
            | Some (Str _) | None -> None)
          capture)
  in
  { output = Buffer.contents out; captures = results.(0); time = report.makespan }
