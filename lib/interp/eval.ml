(* Reference interpreter for the MATLAB subset.

   This is the semantic oracle for the compiler (results must agree
   with the compiled SPMD programs bit-for-bit up to reduction order)
   and, combined with a {!Cost} model, the two sequential baselines of
   the paper's Figure 2 (The MathWorks interpreter and the MATCOM
   compiler).

   Values are dynamically typed; a 1x1 array is normalized to a
   scalar, mirroring MATLAB's "everything is a matrix" semantics while
   matching the compiled code's replicated scalars. *)

open Mlang

exception Runtime_error of string

let error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

(* Arrays are immutable once built: Eval writes only into an array it
   has just allocated (an indexed store copies before it writes), so
   variables, function arguments and message queues share them freely. *)
type value =
  | Scalar of float
  | Arr of Dense.t (* rank >= 2, never 1x1: see [arr] *)
  | Str of string

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
  | Arr a -> Dense.numel a > 0 && Array.for_all (fun x -> x <> 0.) a.Dense.data
  | Str s -> s <> ""

(* Normalize one-element arrays to scalars, so a fully collapsed section
   behaves like the replicated scalar compiled code produces. *)
let arr (a : Dense.t) : value =
  if Dense.numel a = 1 then Scalar a.Dense.data.(0) else Arr a

let to_dense = function
  | Arr a -> a
  | Scalar f -> { Dense.dims = [| 1; 1 |]; data = [| f |] }
  | Str _ -> error "string used as a numeric value"

(* The operand of an operation MATLAB defines here only on matrices. *)
let to_mat v =
  let a = to_dense v in
  if Dense.rank a > 2 then error "tensor used where a matrix is required";
  a

(* The operand of a builtin defined here only on vectors. *)
let vector what a =
  if not (Dense.is_vector a) then
    error "%s of a %s is not supported" what
      (if Dense.rank a > 2 then "tensor" else "full matrix")

let as_scalar = function
  | Scalar f -> f
  | Arr a ->
      error "%s used where a scalar is required"
        (if Dense.rank a > 2 then "tensor" else "matrix")
  | Str _ -> error "string used where a scalar is required"

let lookup fr v =
  match Hashtbl.find_opt fr.env v with
  | Some x -> x
  | None -> error "variable '%s' used before it is defined" v

(* --- operators ---------------------------------------------------------- *)

let scalar_binop (op : Ast.binop) : float -> float -> float =
  match op with
  | Ast.Add -> ( +. )
  | Ast.Sub -> ( -. )
  | Ast.Mul | Ast.Emul -> ( *. )
  | Ast.Div | Ast.Ediv -> ( /. )
  | Ast.Ldiv | Ast.Eldiv -> fun a b -> b /. a
  | Ast.Pow | Ast.Epow -> Float.pow
  | Ast.Lt -> fun a b -> of_bool (a < b)
  | Ast.Le -> fun a b -> of_bool (a <= b)
  | Ast.Gt -> fun a b -> of_bool (a > b)
  | Ast.Ge -> fun a b -> of_bool (a >= b)
  | Ast.Eq -> fun a b -> of_bool (a = b)
  | Ast.Ne -> fun a b -> of_bool (a <> b)
  | Ast.And | Ast.Shortand ->
      fun a b -> of_bool (truthy_scalar a && truthy_scalar b)
  | Ast.Or | Ast.Shortor ->
      fun a b -> of_bool (truthy_scalar a || truthy_scalar b)

(* Each element-wise operation makes one pass over the data (no fusion:
   this is what interpreters and library-call translators do, and what
   their cost models charge). *)
let map1 fr f = function
  | Scalar x -> Scalar (f x)
  | Arr a ->
      Cost.charge_elem fr.cost ~elems:(Dense.numel a) ~ops:1;
      arr (Dense.map f a)
  | Str _ -> error "arithmetic on strings"

(* The one element-wise rule (Remora-style frame broadcasting): a scalar
   lifts over any array, arrays of equal dims combine element by
   element, and a matrix cell broadcasts over the leading axes of a
   higher-rank array. *)
let zip fr f a b =
  match (a, b) with
  | Scalar x, Scalar y -> Scalar (f x y)
  | (Str _, _ | _, Str _) -> error "arithmetic on strings"
  | _ ->
      let a = to_dense a and b = to_dense b in
      let lifts (c : Dense.t) (over : Dense.t) =
        let r = Dense.rank c and ro = Dense.rank over in
        Dense.numel c = 1
        || (r <= ro && Array.sub over.Dense.dims (ro - r) r = c.Dense.dims)
      in
      let frame =
        if lifts b a then a
        else if lifts a b then b
        else
          error "nonconformant operands (%s vs %s)" (Dense.shape a)
            (Dense.shape b)
      in
      Cost.charge_elem fr.cost ~elems:(Dense.numel frame) ~ops:1;
      arr (Dense.zip f frame.Dense.dims a b)

let eval_binop fr op a b =
  match op with
  | Ast.Add | Ast.Sub | Ast.Emul | Ast.Ediv | Ast.Eldiv | Ast.Epow | Ast.Lt
  | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
      zip fr (scalar_binop op) a b
  | Ast.Shortand ->
      Scalar (of_bool (truthy a && truthy b))
  | Ast.Shortor -> Scalar (of_bool (truthy a || truthy b))
  | Ast.Mul -> (
      match (a, b) with
      | Arr x, Arr y ->
          if Dense.rank x > 2 || Dense.rank y > 2 then
            error "matrix multiplication of a tensor is not supported; use .*";
          if Dense.cols x <> Dense.rows y then
            error "inner dimensions disagree (%s * %s)" (Dense.shape x)
              (Dense.shape y);
          let flops =
            2. *. float_of_int (Dense.rows x * Dense.cols x * Dense.cols y)
          in
          Cost.charge_kernel fr.cost ~flops;
          arr (Dense.matmul x y)
      | _ -> zip fr ( *. ) a b)
  | Ast.Div -> (
      match (a, b) with
      | _, Scalar _ -> zip fr (scalar_binop Ast.Ediv) a b
      | _ -> error "matrix right division is not supported")
  | Ast.Ldiv -> (
      match (a, b) with
      | Scalar _, _ -> zip fr (scalar_binop Ast.Eldiv) a b
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
  | Arr a when Dense.rank a > 2 -> error "tensor used as an index"
  | Arr a -> Ivals (Array.map (fun f -> int_of_float f - 1) a.Dense.data)
  | Str _ -> error "string used as an index"

(* The elements an n-subscript read or store selects: the section's
   extents, and the offset of each element in row-major order. *)
let section (a : Dense.t) idxs =
  let dims = a.Dense.dims in
  let counts = Array.mapi (fun axis i -> index_count dims.(axis) i) idxs in
  ( counts,
    Dense.section_offsets a counts (fun axis k ->
        index_get dims.(axis) idxs.(axis) k) )

(* MATLAB's display of a named or anonymous array. *)
let show ?name (a : Dense.t) =
  if Dense.rank a = 2 then
    Fmtutil.format_matrix ?name ~rows:(Dense.rows a) ~cols:(Dense.cols a)
      a.Dense.data
  else Fmtutil.format_tensor ?name ~dims:a.Dense.dims a.Dense.data

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
      arr (Dense.init [| 1; n |] (fun g -> lo +. (float_of_int g *. step)))
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
  | Ast.Neg | Ast.Not -> (
      match eval_expr fr a with
      | Str _ -> error "negation of a string"
      | v ->
          map1 fr
            (if op = Ast.Neg then Float.neg else fun x -> of_bool (x = 0.))
            v)
  | Ast.Transpose | Ast.Ctranspose -> (
      match eval_expr fr a with
      | Arr m ->
          if Dense.rank m > 2 then error "transpose of a tensor is not supported";
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          arr (Dense.transpose m)
      | v -> v)

and eval_matrix_literal fr rows =
  (* General concatenation: element values may themselves be matrices.
     Empty operands are dropped, as MATLAB does: [[], 1, 2] is [1, 2]. *)
  let vrows =
    List.map (fun row -> List.map (fun e -> to_mat (eval_expr fr e)) row) rows
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
  | [] -> arr (Dense.create [| 0; 0 |])
  | _ ->
      let hcat (blocks : Dense.t list) : Dense.t =
        match blocks with
        | [] -> Dense.create [| 0; 0 |]
        | b0 :: _ ->
            let rows = Dense.rows b0 in
            List.iter
              (fun b ->
                if Dense.rows b <> rows then
                  error "inconsistent row counts in matrix literal")
              blocks;
            let cols = List.fold_left (fun a b -> a + Dense.cols b) 0 blocks in
            let r = Dense.create [| rows; cols |] in
            let off = ref 0 in
            List.iter
              (fun b ->
                for i = 0 to rows - 1 do
                  Array.blit b.Dense.data (i * Dense.cols b) r.Dense.data
                    ((i * cols) + !off)
                    (Dense.cols b)
                done;
                off := !off + Dense.cols b)
              blocks;
            r
      in
      let parts = List.map hcat vrows in
      let cols = Dense.cols (List.hd parts) in
      List.iter
        (fun p ->
          if Dense.cols p <> cols then
            error "inconsistent column counts in matrix literal")
        parts;
      let rows = List.fold_left (fun a p -> a + Dense.rows p) 0 parts in
      let r = Dense.create [| rows; cols |] in
      let off = ref 0 in
      List.iter
        (fun p ->
          Array.blit p.Dense.data 0 r.Dense.data (!off * cols)
            (Dense.rows p * cols);
          off := !off + Dense.rows p)
        parts;
      Cost.charge_elem fr.cost ~elems:(rows * cols) ~ops:1;
      arr r

and eval_index_arg fr extent (a : Ast.expr) : index =
  match a.node with
  | Ast.Colon -> Iall
  | _ ->
      let saved = fr.end_extent in
      fr.end_extent <- Some (float_of_int extent);
      let v = eval_expr fr a in
      fr.end_extent <- saved;
      value_to_index v

(* One subscript per axis, each with its axis extent as 'end'. *)
and subscripts fr (a : Dense.t) args =
  let r = Dense.rank a and n = List.length args in
  if n <> r then
    if r = 2 then error "unsupported number of indices"
    else
      error "a rank-%d tensor must be indexed with exactly %d subscripts \
             (got %d)"
        r r n;
  Array.of_list
    (List.mapi (fun axis arg -> eval_index_arg fr a.Dense.dims.(axis) arg) args)

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
  | Arr m -> (
      match args with
      | [ a ] when Dense.rank m = 2 ->
          (* one subscript: column-major linear indexing *)
          let n = Dense.numel m in
          let idx = eval_index_arg fr n a in
          let len = index_count n idx in
          let rows, cols =
            if Dense.rows m = 1 then (1, len)
            else if Dense.cols m = 1 then (len, 1)
            else if len = n then (Dense.rows m, Dense.cols m)
            else (len, 1)
          in
          Cost.charge_elem fr.cost ~elems:len ~ops:1;
          arr
            (Dense.init [| rows; cols |] (fun g ->
                 Dense.get_linear m (index_get n idx g)))
      | _ ->
          (* a sectioning subscript keeps the rank: no dimension squeeze *)
          let counts, offsets = section m (subscripts fr m args) in
          Cost.charge_elem fr.cost ~elems:(Array.length offsets) ~ops:1;
          arr
            {
              Dense.dims = counts;
              data = Array.map (fun o -> m.Dense.data.(o)) offsets;
            })

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
    | Arr m ->
        Cost.charge_kernel fr.cost ~flops:(float_of_int (Dense.numel m));
        if Dense.rank m = 2 && not (Dense.is_vector m) then
          (* a matrix reduces column by column *)
          arr
            (Dense.map
               (fun x -> finish (Dense.rows m) x)
               (Dense.col_reduce op_comb op_init m))
        else
          (* vectors and tensors reduce fully, to one scalar *)
          Scalar (finish (Dense.numel m) (Dense.fold op_comb op_init m))
    | Str _ -> error "reduction of a string"
  in
  match (kind, vals) with
  | B.Map1 (f, _), [ ((Scalar _ | Arr _) as v) ] -> one (map1 fr f v)
  | (B.Map2 (f, _) | B.Minmax (f, _, _)), [ a; b ] -> (
      match (a, b) with
      | (Str _, _ | _, Str _) -> error "'%s' of a string" name
      | _ -> one (zip fr f a b))
  | B.Minmax (_, _, red), [ v ] when nrets = 2 -> (
      (* [m, i] = min(v): extremum and the 1-based index of its first
         occurrence in storage order. *)
      match v with
      | Scalar f -> [ Scalar f; Scalar 1. ]
      | Arr m ->
          vector ("[m, i] = " ^ name) m;
          Cost.charge_kernel fr.cost ~flops:(float_of_int (Dense.numel m));
          let cmp = if red = B.Rmin then ( < ) else ( > ) in
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
      | Str _ -> error "%s of a string" name)
  | B.Scan kind, [ v ] -> (
      let combine, identity =
        match kind with
        | B.Scumsum -> (( +. ), 0.)
        | B.Scumprod -> (( *. ), 1.)
      in
      match v with
      | Scalar f -> one (Scalar f)
      | Arr m ->
          vector name m;
          Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
          let acc = ref identity in
          one
            (arr
               (Dense.init m.Dense.dims (fun g ->
                    acc := combine !acc m.Dense.data.(g);
                    !acc)))
      | Str _ -> error "%s of a string" name)
  | B.Norm, [ v ] -> (
      match v with
      | Scalar f -> one (Scalar (Float.abs f))
      | Arr m ->
          vector "norm" m;
          Cost.charge_kernel fr.cost ~flops:(2. *. float_of_int (Dense.numel m));
          one (Scalar (sqrt (Dense.fold (fun a x -> a +. (x *. x)) 0. m)))
      | Str _ -> error "norm of a string")
  | (B.Reduce red | B.Minmax (_, _, red)), [ v ] -> (
      match red with
      | B.Rsum -> one (reduce_value 0. ( +. ) (fun _ x -> x) v)
      | B.Rprod -> one (reduce_value 1. ( *. ) (fun _ x -> x) v)
      | B.Rmean ->
          one (reduce_value 0. ( +. ) (fun n x -> x /. float_of_int n) v)
      | B.Rany ->
          one
            (Scalar
               (match v with
               | Scalar f -> of_bool (truthy_scalar f)
               | Arr m -> of_bool (Array.exists (fun x -> x <> 0.) m.Dense.data)
               | Str _ -> error "any of a string"))
      | B.Rall -> one (Scalar (of_bool (truthy v)))
      | B.Rmin | B.Rmax ->
          (* MATLAB ignores NaNs: min/max over the non-NaN elements, NaN
             only when every element is NaN.  NaN is the fold identity. *)
          let pick = if red = B.Rmin then Float.min else Float.max in
          let comb a b =
            if Float.is_nan a then b
            else if Float.is_nan b then a
            else pick a b
          in
          one (reduce_value Float.nan comb (fun _ x -> x) v))
  | B.Dot, [ a; b ] ->
      let ma = to_mat a and mb = to_mat b in
      if Dense.numel ma <> Dense.numel mb then error "dot: length mismatch";
      Cost.charge_kernel fr.cost ~flops:(2. *. float_of_int (Dense.numel ma));
      let acc = ref 0. in
      Array.iteri (fun i x -> acc := !acc +. (x *. mb.Dense.data.(i))) ma.Dense.data;
      one (Scalar !acc)
  | B.Trapz, [ y ] ->
      let m = to_mat y in
      Cost.charge_kernel fr.cost ~flops:(5. *. float_of_int (Dense.numel m));
      one (Scalar (Dense.trapz m))
  | B.Trapz, [ x; y ] ->
      let mx = to_mat x and my = to_mat y in
      if Dense.numel mx <> Dense.numel my then
        error "trapz: x and y sizes disagree";
      Cost.charge_kernel fr.cost ~flops:(5. *. float_of_int (Dense.numel my));
      one (Scalar (Dense.trapz ~x:mx my))
  | B.Shift, [ v; k ] ->
      let m = to_mat v in
      Cost.charge_elem fr.cost ~elems:(Dense.numel m) ~ops:1;
      one (arr (Dense.circshift m (int_of_float (as_scalar k))))
  | B.Constructor _, _ -> one (eval_constructor fr name vals)
  | B.Query "size", [ v ] ->
      let m = to_dense v in
      if nrets <> 2 then
        one
          (arr
             (Dense.init [| 1; Dense.rank m |] (fun g ->
                  float_of_int m.Dense.dims.(g))))
      else if Dense.rank m > 2 then
        error "two-output size of a tensor is not supported"
      else
        [
          Scalar (float_of_int (Dense.rows m));
          Scalar (float_of_int (Dense.cols m));
        ]
  | B.Query "size", [ v; d ] ->
      let m = to_dense v in
      let d = int_of_float (as_scalar d) in
      one
        (Scalar
           (if d >= 1 && d <= Dense.rank m then float_of_int m.Dense.dims.(d - 1)
            else 1.))
  | B.Query "length", [ v ] ->
      one (Scalar (float_of_int (Array.fold_left max 0 (to_dense v).Dense.dims)))
  | B.Query "numel", [ v ] ->
      one (Scalar (float_of_int (Dense.numel (to_dense v))))
  | B.Output "disp", [ v ] ->
      Buffer.add_string fr.out
        (match v with
        | Scalar f -> Printf.sprintf "%g\n" f
        | Str s -> s ^ "\n"
        | Arr m -> show m);
      []
  | B.Output "fprintf", fmt :: rest ->
      (match fmt with
      | Str f ->
          let args =
            List.map
              (function
                | Scalar x -> Fmtutil.F x
                | Str s -> Fmtutil.S s
                | Arr _ -> error "fprintf of a whole matrix")
              rest
          in
          Buffer.add_string fr.out (Fmtutil.format f args)
      | _ -> error "fprintf: first argument must be a format string");
      []
  | B.Sort, [ v ] -> (
      match v with
      | Scalar f -> if nrets = 2 then [ Scalar f; Scalar 1. ] else [ Scalar f ]
      | Arr m ->
          vector "sort" m;
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
          let sorted = Dense.init m.Dense.dims (fun g -> m.Dense.data.(order.(g))) in
          if nrets = 2 then
            [
              arr sorted;
              arr
                (Dense.init m.Dense.dims (fun g -> float_of_int (order.(g) + 1)));
            ]
          else [ arr sorted ]
      | Str _ -> error "sort of a string")
  | B.Diag, [ v ] -> (
      match v with
      | Scalar f -> one (Scalar f)
      | Arr m when Dense.rank m > 2 -> error "diag of a tensor is not supported"
      | Arr m when Dense.is_vector m ->
          let n = Dense.numel m in
          Cost.charge_elem fr.cost ~elems:(n * n) ~ops:1;
          one
            (arr
               (Dense.init_rc n n (fun i j ->
                    if i = j then Dense.get_linear m i else 0.)))
      | Arr m ->
          let n = min (Dense.rows m) (Dense.cols m) in
          Cost.charge_elem fr.cost ~elems:n ~ops:1;
          one (arr (Dense.init [| n; 1 |] (fun g -> Dense.get m g g)))
      | Str _ -> error "diag of a string")
  | B.Repmat, [ v; r; c ] -> (
      let rr = int_of_float (as_scalar r) and cc = int_of_float (as_scalar c) in
      if rr < 1 || cc < 1 then error "repmat: tile counts must be positive";
      let m = to_mat v in
      let mr = Dense.rows m and mc = Dense.cols m in
      let rows = mr * rr and cols = mc * cc in
      Cost.charge_elem fr.cost ~elems:(rows * cols) ~ops:1;
      one
        (arr
           (Dense.init_rc rows cols (fun i j -> Dense.get m (i mod mr) (j mod mc)))))
  | B.Load, [ Str fname ] -> (
      let path = Filename.concat fr.datadir fname in
      match Mlang.Datafile.read path with
      | rows, cols, data ->
          Cost.charge_elem fr.cost ~elems:(rows * cols) ~ops:1;
          one (arr { Dense.dims = [| rows; cols |]; data })
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
      (* Values are immutable, so a message needs no copy. *)
      let payload = function
        | Str _ -> error "%s: cannot send a string" name
        | Arr m when Dense.rank m > 2 -> error "%s: cannot send a tensor" name
        | v -> v
      in
      match (op, vals) with
      | B.Mrank, [] -> one (Scalar 0.)
      | B.Msize, [] -> one (Scalar 1.)
      | B.Msend, [ dst; tag; v ] ->
          rank_arg "destination" dst;
          let t = tag_arg tag in
          Queue.push (payload v) (q t);
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
          one (Queue.pop q)
      | B.Mbcast, [ root; v ] ->
          rank_arg "root" root;
          one (payload v)
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
  let dims ~upto =
    match vals with
    | [] -> [| 1; 1 |]
    | [ n ] ->
        let n = int_of_float (as_scalar n) in
        [| n; n |]
    | _ when List.length vals <= upto ->
        Array.of_list (List.map (fun v -> int_of_float (as_scalar v)) vals)
    | _ -> error "constructor expects at most 2 size arguments"
  in
  let build f =
    let d = dims ~upto:3 in
    Cost.charge_elem fr.cost ~elems:(Array.fold_left ( * ) 1 d) ~ops:1;
    arr (Dense.init d f)
  in
  match name with
  | "zeros" -> build (fun _ -> 0.)
  | "ones" -> build (fun _ -> 1.)
  | "eye" ->
      let d = dims ~upto:2 in
      Cost.charge_elem fr.cost ~elems:(d.(0) * d.(1)) ~ops:1;
      arr (Dense.init_rc d.(0) d.(1) (fun i j -> if i = j then 1. else 0.))
  | "rand" | "randn" ->
      fr.rand_calls <- fr.rand_calls + 1;
      let seed = fr.seed + fr.rand_calls in
      build
        (if name = "rand" then Mpisim.Rng.uniform ~seed
         else Mpisim.Rng.normal ~seed)
  | "linspace" -> (
      match vals with
      | [ a; b; n ] ->
          let a = as_scalar a and b = as_scalar b in
          let n = int_of_float (as_scalar n) in
          let d = if n > 1 then (b -. a) /. float_of_int (n - 1) else 0. in
          Cost.charge_elem fr.cost ~elems:n ~ops:1;
          arr (Dense.init [| 1; n |] (fun g -> a +. (float_of_int g *. d)))
      | _ -> error "linspace takes three arguments")
  | _ -> error "unknown constructor '%s'" name

and eval_user_call fr pos name args ~nrets : value list =
  let f = Hashtbl.find fr.funcs name in
  if List.length args <> List.length f.Ast.params then
    Source.error pos "function '%s' expects %d arguments" name
      (List.length f.Ast.params);
  let vals = List.map (eval_expr fr) args in
  let callee = { fr with env = Hashtbl.create 16 } in
  List.iter2 (Hashtbl.replace callee.env) f.Ast.params vals;
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
  Buffer.add_string fr.out
    (match v with
    | Scalar f -> Printf.sprintf "%s = %g\n" name f
    | Str s -> Printf.sprintf "%s = %s\n" name s
    | Arr m -> show ~name m)

and assign_indexed fr (l : Ast.lhs) rhs_val =
  (* The store writes into a fresh array (copy-on-write).  An
     out-of-bounds store grows a matrix MATLAB-style: vectors (and
     scalars, and []) extend along their orientation, zero-filled;
     two-subscript stores grow both dimensions.  Only a linear store
     into a full matrix cannot decide which dimension to grow, and
     tensors never grow. *)
  let needed = function
    | Iall -> 0
    | Ivals vs -> Array.fold_left (fun a v -> max a (v + 1)) 0 vs
  in
  (* the value stored into the k-th of [n] selected elements: a scalar
     fills them all, an array of n elements is read in storage order *)
  let source (src : Dense.t) n =
    if Dense.numel src = 1 then
      let x = src.Dense.data.(0) in
      fun _ -> x
    else if Dense.numel src <> n then error "section assignment size mismatch"
    else fun k -> src.Dense.data.(k)
  in
  let base =
    match lookup fr l.lv_name with
    | Str _ -> error "indexed assignment into a string"
    | v -> to_dense v
  in
  let m =
    match Option.get l.lv_indices with
    | [ a ] when Dense.rank base = 2 ->
        let idx = eval_index_arg fr (Dense.numel base) a in
        let need = needed idx in
        let m =
          if need <= Dense.numel base then Dense.copy base
          else if Dense.rows base <= 1 then Dense.grow base 1 need
          else if Dense.cols base = 1 then Dense.grow base need 1
          else
            error
              "linear indexed assignment cannot grow a full matrix \
               (ambiguous dimension)"
        in
        let n = Dense.numel m in
        let len = index_count n idx in
        let src = source (to_mat rhs_val) len in
        Cost.charge_elem fr.cost ~elems:len ~ops:1;
        for k = 0 to len - 1 do
          Dense.set_linear m (index_get n idx k) (src k)
        done;
        m
    | args ->
        let idxs = subscripts fr base args in
        let m, src =
          if Dense.rank base = 2 then
            (Dense.grow base (needed idxs.(0)) (needed idxs.(1)), to_mat rhs_val)
          else (Dense.copy base, to_dense rhs_val)
        in
        let _, offsets = section m idxs in
        let src = source src (Array.length offsets) in
        Cost.charge_elem fr.cost ~elems:(Array.length offsets) ~ops:1;
        Array.iteri (fun k o -> m.Dense.data.(o) <- src k) offsets;
        m
  in
  Hashtbl.replace fr.env l.lv_name (arr m)

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
      | Arr m when Dense.rank m > 2 -> error "for over a tensor is not supported"
      | Arr m when Dense.is_vector m ->
          iterate (Array.map (fun x -> Scalar x) m.Dense.data)
      | Arr m ->
          (* MATLAB iterates over columns. *)
          iterate
            (Array.init (Dense.cols m) (fun j ->
                 arr (Dense.init [| Dense.rows m; 1 |] (fun i -> Dense.get m i j))))
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
            | Some (Arr m) when Dense.rank m = 2 ->
                Some (name, Cmat (Dense.rows m, Dense.cols m, Array.copy m.Dense.data))
            | Some (Arr m) ->
                Some (name, Cnd (Array.copy m.Dense.dims, Array.copy m.Dense.data))
            | Some (Str _) | None -> None)
          capture)
  in
  { output = Buffer.contents out; captures = results.(0); time = report.makespan }
