(* Type, rank and shape inference (paper section 3, pass 3).

   Runs on the SSA form: each SSA version gets one abstract value (a
   {!Ty.t} plus an optional compile-time constant for scalars), and the
   whole program is re-scanned until a fixpoint is reached (loop phis
   make a single pass insufficient; the lattice is finite once constants
   collapse, so this terminates).

   Every expression node carries a mutable annotation record shared (by
   [{ e with node = ... }] copies) with the original resolved AST, so
   joining a type into [e.ann.ty] on the SSA form annotates the original
   tree directly: the rewriting pass and code generator read the results
   straight off the nodes, with no side table. *)

open Mlang

type av = Builtins.aval option (* None = bottom *)

type result = {
  var_ty : (string, Ty.t) Hashtbl.t; (* script variable -> joined type *)
  func_var_ty : (string, (string, Ty.t) Hashtbl.t) Hashtbl.t;
      (* function name -> variable -> joined type *)
  func_returns : (string, Ty.t list) Hashtbl.t;
      (* function name -> joined return types *)
}

type ctx = {
  res : result;
  datadir : string;
  versions : (string, Builtins.aval) Hashtbl.t; (* SSA version -> value *)
  funcs : (string, Ssa.sfunc) Hashtbl.t; (* converted user functions *)
  call_cache : (string, av list) Hashtbl.t; (* name+sig -> return values *)
  mpi_tags : (int, Builtins.aval) Hashtbl.t;
      (* message tag -> join of every value MPI_Send'd under it *)
  mpi_recvs : (int, Mlang.Source.pos) Hashtbl.t;
      (* tags received somewhere, for the never-sent check *)
  mutable in_progress : string list; (* recursion detection *)
  mutable changed : bool;
}

let join_av (a : av) (b : av) : av =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y ->
      let aty = Ty.join x.Builtins.aty y.Builtins.aty in
      let aconst =
        match (x.aconst, y.aconst) with
        | Some cx, Some cy when cx = cy && aty.Ty.rank = Ty.Rscalar -> Some cx
        | _ -> None
      in
      Some { Builtins.aty; aconst }

let equal_av (a : av) (b : av) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Ty.equal x.Builtins.aty y.Builtins.aty && x.aconst = y.aconst
  | None, Some _ | Some _, None -> false

let get_version ctx v : av = Hashtbl.find_opt ctx.versions v

let set_version ctx v (value : av) =
  let joined = join_av (get_version ctx v) value in
  if not (equal_av joined (get_version ctx v)) then begin
    (match joined with
    | Some x -> Hashtbl.replace ctx.versions v x
    | None -> ());
    ctx.changed <- true
  end

let annotate (e : Ast.expr) (value : av) =
  match value with
  | None -> ()
  | Some { Builtins.aty; _ } -> e.ann.ty <- Ty.join_vt e.ann.ty (Ty.Known aty)

let scalar_av ?const base : av = Some { Builtins.aty = Ty.scalar base; aconst = const }

let num_av f : av =
  let base = if Float.is_integer f then Ty.Integer else Ty.Real in
  scalar_av ~const:f base

(* --- operator rules ---------------------------------------------------- *)

let fold_const op (a : Builtins.aval) (b : Builtins.aval) ty =
  match (a.Builtins.aconst, b.Builtins.aconst, ty.Ty.rank) with
  | Some x, Some y, Ty.Rscalar -> (
      match op with
      | Ast.Add -> Some (x +. y)
      | Ast.Sub -> Some (x -. y)
      | Ast.Mul | Ast.Emul -> Some (x *. y)
      | Ast.Div | Ast.Ediv -> if y = 0. then None else Some (x /. y)
      | Ast.Ldiv | Ast.Eldiv -> if x = 0. then None else Some (y /. x)
      | Ast.Pow | Ast.Epow -> Some (Float.pow x y)
      | Ast.Lt -> Some (if x < y then 1. else 0.)
      | Ast.Le -> Some (if x <= y then 1. else 0.)
      | Ast.Gt -> Some (if x > y then 1. else 0.)
      | Ast.Ge -> Some (if x >= y then 1. else 0.)
      | Ast.Eq -> Some (if x = y then 1. else 0.)
      | Ast.Ne -> Some (if x <> y then 1. else 0.)
      | Ast.And | Ast.Shortand -> Some (if x <> 0. && y <> 0. then 1. else 0.)
      | Ast.Or | Ast.Shortor -> Some (if x <> 0. || y <> 0. then 1. else 0.))
  | _ -> None

let binop_type pos op (a : Builtins.aval) (b : Builtins.aval) : Builtins.aval =
  let ta = a.Builtins.aty and tb = b.Builtins.aty in
  let ew base_rule = Ty.elementwise_result base_rule ta tb in
  let ty =
    match op with
    | Ast.Add | Ast.Sub | Ast.Emul -> ew Ty.arith_base
    | Ast.Ediv | Ast.Eldiv -> ew Ty.div_base
    | Ast.Epow -> ew (fun x y -> Ty.join_base (Ty.join_base x y) Ty.Real)
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
        ew Ty.logical_base
    | Ast.Shortand | Ast.Shortor -> Ty.scalar Ty.Integer
    | Ast.Mul -> (
        match (ta.Ty.rank, tb.Ty.rank) with
        | Ty.Rscalar, Ty.Rscalar -> Ty.scalar (Ty.arith_base ta.base tb.base)
        | Ty.Rscalar, _ -> { tb with base = Ty.arith_base ta.base tb.base }
        | _, Ty.Rscalar -> { ta with base = Ty.arith_base ta.base tb.base }
        | Ty.Rmatrix, Ty.Rmatrix ->
            let shape = { Ty.rows = ta.shape.Ty.rows; cols = tb.shape.Ty.cols } in
            if shape.Ty.rows = Ty.Dconst 1 && shape.Ty.cols = Ty.Dconst 1 then
              Ty.scalar (Ty.arith_base ta.base tb.base)
            else Ty.matrix ~shape (Ty.arith_base ta.base tb.base)
        | _ ->
            Source.error pos
              "matrix multiplication of a tensor is not supported; use .*")
    | Ast.Div -> (
        match (ta.Ty.rank, tb.Ty.rank) with
        | _, Ty.Rscalar ->
            let base = Ty.div_base ta.base tb.base in
            if ta.rank = Ty.Rscalar then Ty.scalar base else { ta with base }
        | _ ->
            Source.error pos
              "matrix right division is not supported; use element-wise ./")
    | Ast.Ldiv -> (
        match ta.Ty.rank with
        | Ty.Rscalar ->
            let base = Ty.div_base ta.base tb.base in
            if tb.rank = Ty.Rscalar then Ty.scalar base else { tb with base }
        | Ty.Rmatrix | Ty.Rtensor _ ->
            Source.error pos
              "matrix left division (linear solve) is not supported")
    | Ast.Pow -> (
        match (ta.Ty.rank, tb.Ty.rank) with
        | Ty.Rscalar, Ty.Rscalar ->
            Ty.scalar (Ty.join_base (Ty.arith_base ta.base tb.base) Ty.Real)
        | _ -> Source.error pos "matrix power is not supported; use .^")
  in
  { Builtins.aty = ty; aconst = fold_const op a b ty }

let unop_type pos op (a : Builtins.aval) : Builtins.aval =
  let ta = a.Builtins.aty in
  match op with
  | Ast.Neg ->
      {
        Builtins.aty = ta;
        aconst =
          (match a.aconst with Some c -> Some (-.c) | None -> None);
      }
  | Ast.Uplus -> a
  | Ast.Not ->
      {
        Builtins.aty = { ta with base = Ty.Integer };
        aconst =
          (match a.aconst with
          | Some c -> Some (if c = 0. then 1. else 0.)
          | None -> None);
      }
  | Ast.Transpose | Ast.Ctranspose ->
      let ty =
        match ta.Ty.rank with
        | Ty.Rscalar -> ta
        | Ty.Rmatrix -> { ta with shape = Ty.transpose_shape ta.shape }
        | Ty.Rtensor _ ->
            Source.error pos "transpose of a tensor is not supported"
      in
      { Builtins.aty = ty; aconst = a.aconst }

let range_type (a : Builtins.aval) (step : Builtins.aval option)
    (b : Builtins.aval) : Builtins.aval =
  let base =
    let sb = match step with Some s -> s.Builtins.aty.Ty.base | None -> Ty.Integer in
    Ty.join_base (Ty.join_base a.Builtins.aty.Ty.base b.Builtins.aty.Ty.base) sb
  in
  let cols =
    match (a.aconst, (match step with Some s -> s.Builtins.aconst | None -> Some 1.), b.aconst) with
    | Some x, Some s, Some y when s <> 0. ->
        let n = int_of_float (Float.floor (((y -. x) /. s) +. 1e-10)) + 1 in
        Ty.Dconst (max n 0)
    | _ -> Ty.Dunknown
  in
  Builtins.of_ty (Ty.matrix ~shape:{ Ty.rows = Ty.Dconst 1; cols } base)

let index_dim (arg : Ast.expr) (arg_av : av) : Ty.dim =
  match arg.node with
  | Ast.Colon -> Ty.Dunknown (* whole extent of that axis; refined below *)
  | _ -> (
      match arg_av with
      | Some { Builtins.aty; _ } -> (
          match aty.Ty.rank with
          | Ty.Rscalar -> Ty.Dconst 1
          | Ty.Rmatrix | Ty.Rtensor _ ->
              if aty.Ty.shape.Ty.rows = Ty.Dconst 1 then aty.Ty.shape.Ty.cols
              else aty.Ty.shape.Ty.rows)
      | None -> Ty.Dunknown)

(* --- expression evaluation --------------------------------------------- *)

let rec eval_expr ctx (e : Ast.expr) : av =
  let v = eval_expr_inner ctx e in
  annotate e v;
  v

and eval_expr_inner ctx (e : Ast.expr) : av =
  match e.node with
  | Ast.Num f -> num_av f
  | Ast.Str _ -> Some (Builtins.of_ty (Ty.scalar Ty.Literal))
  | Ast.Colon -> scalar_av Ty.Integer
  | Ast.End_marker -> scalar_av Ty.Integer
  | Ast.Varref v -> get_version ctx v
  | Ast.Binop (op, a, b) -> (
      let va = eval_expr ctx a and vb = eval_expr ctx b in
      match (va, vb) with
      | Some x, Some y ->
          let r = binop_type e.ann.pos op x y in
          (* Record the frame/cell lift: a lower-ranked operand mapped
             over the frame (leading axes) of a tensor operand. *)
          let fa = Ty.frame_axes x.Builtins.aty
          and fb = Ty.frame_axes y.Builtins.aty in
          if fa <> fb then e.ann.frame <- max e.ann.frame (max fa fb);
          Some r
      | _ -> None)
  | Ast.Unop (op, a) -> (
      match eval_expr ctx a with
      | Some x -> Some (unop_type e.ann.pos op x)
      | None -> None)
  | Ast.Range (a, step, b) -> (
      let va = eval_expr ctx a in
      let vs = Option.map (eval_expr ctx) step in
      let vb = eval_expr ctx b in
      match (va, vb) with
      | Some x, Some y ->
          let s = match vs with Some (Some s) -> Some s | _ -> None in
          Some (range_type x s y)
      | _ -> None)
  | Ast.Matrix rows -> eval_matrix ctx e.ann.pos rows
  | Ast.Index (v, args) -> (
      let mat = get_version ctx v in
      let arg_avs = List.map (eval_expr ctx) args in
      match mat with
      | None -> None
      | Some m -> Some (eval_index e.ann.pos m args arg_avs))
  | Ast.Call (name, args) -> (
      let arg_avs = List.map (eval_expr ctx) args in
      match eval_call ctx e.ann.pos name args arg_avs with
      | [] -> scalar_av Ty.Integer (* output-only call in expr position *)
      | r :: _ -> r)
  | Ast.Ident n | Ast.Apply (n, _) ->
      Source.error e.ann.pos "unresolved name '%s' reached inference" n

and eval_matrix ctx pos rows : av =
  let avs = List.map (List.map (eval_expr ctx)) rows in
  let all = List.concat avs in
  List.iter
    (fun a ->
      match a with
      | Some { Builtins.aty; _ } when Ty.is_tensor aty ->
          Source.error pos "a tensor cannot appear in a matrix literal"
      | _ -> ())
    all;
  if List.exists (fun a -> a = None) all then None
  else
    let base =
      List.fold_left
        (fun acc a ->
          match a with
          | Some { Builtins.aty; _ } -> Ty.join_base acc aty.Ty.base
          | None -> acc)
        Ty.Integer all
    in
    let all_scalar =
      List.for_all
        (fun a ->
          match a with
          | Some { Builtins.aty; _ } -> Ty.is_scalar aty
          | None -> false)
        all
    in
    if all_scalar then
      let r = List.length rows in
      let c = match rows with [] -> 0 | row :: _ -> List.length row in
      if r = 1 && c = 1 then
        match all with [ a ] -> a | _ -> assert false
      else
        Some
          (Builtins.of_ty
             (Ty.matrix ~shape:{ Ty.rows = Ty.Dconst r; cols = Ty.Dconst c } base))
    else
      (* Mixed scalar/matrix blocks: when every block shape is known,
         the grid shape is too.  Within a row, non-empty blocks must
         share a height and their widths add; row heights add.  Empty
         blocks are dropped (MATLAB), so an all-empty row contributes
         no rows.  Any unknown or inconsistent dimension degrades to
         an unknown shape (inconsistencies then fail at run time). *)
      let block_dims a =
        match a with
        | Some { Builtins.aty; _ } ->
            if Ty.is_scalar aty then Some (1, 1)
            else (
              match (aty.Ty.shape.Ty.rows, aty.Ty.shape.Ty.cols) with
              | Ty.Dconst r, Ty.Dconst c -> Some (r, c)
              | _ -> None)
        | None -> None
      in
      let exception Unknown in
      let shape =
        try
          let row_dims =
            List.map
              (fun row ->
                let dims =
                  List.map
                    (fun a ->
                      match block_dims a with
                      | Some d -> d
                      | None -> raise Unknown)
                    row
                in
                match List.filter (fun (r, c) -> r * c > 0) dims with
                | [] -> (0, 0)
                | (h, _) :: _ as nonempty ->
                    if List.for_all (fun (r, _) -> r = h) nonempty then
                      (h, List.fold_left (fun w (_, c) -> w + c) 0 nonempty)
                    else raise Unknown)
              avs
          in
          match List.filter (fun (h, _) -> h > 0) row_dims with
          | [] -> Some (0, 0)
          | (_, w) :: _ as live ->
              if List.for_all (fun (_, w') -> w' = w) live then
                Some (List.fold_left (fun r (h, _) -> r + h) 0 live, w)
              else raise Unknown
        with Unknown -> None
      in
      match shape with
      | Some (r, c) ->
          Some
            (Builtins.of_ty
               (Ty.matrix
                  ~shape:{ Ty.rows = Ty.Dconst r; cols = Ty.Dconst c }
                  base))
      | None -> Some (Builtins.of_ty (Ty.matrix base))

and eval_index pos (m : Builtins.aval) args arg_avs : Builtins.aval =
  let mty = m.Builtins.aty in
  if Ty.is_scalar mty then
    (* Indexing a scalar with 1 or (1,1) is legal MATLAB; result scalar. *)
    { m with aconst = None }
  else if Ty.is_tensor mty then eval_index_tensor pos m args arg_avs
  else
    match (args, arg_avs) with
    | [ a ], [ av ] -> (
        match index_dim a av with
        | Ty.Dconst 1 when (match a.node with Ast.Colon -> false | _ -> true) ->
            Builtins.of_ty (Ty.scalar mty.Ty.base)
        | d ->
            let d =
              match a.node with
              | Ast.Colon -> (
                  (* v(:) flattens *)
                  match (mty.Ty.shape.Ty.rows, mty.Ty.shape.Ty.cols) with
                  | Ty.Dconst r, Ty.Dconst c -> Ty.Dconst (r * c)
                  | _ -> Ty.Dunknown)
              | _ -> d
            in
            (* linear indexing keeps the vector orientation of the base *)
            let shape =
              if mty.Ty.shape.Ty.cols = Ty.Dconst 1 then
                { Ty.rows = d; cols = Ty.Dconst 1 }
              else { Ty.rows = Ty.Dconst 1; cols = d }
            in
            Builtins.of_ty (Ty.matrix ~shape mty.Ty.base))
    | [ a1; a2 ], [ av1; av2 ] -> (
        let d1 =
          match a1.node with
          | Ast.Colon -> mty.Ty.shape.Ty.rows
          | _ -> index_dim a1 av1
        in
        let d2 =
          match a2.node with
          | Ast.Colon -> mty.Ty.shape.Ty.cols
          | _ -> index_dim a2 av2
        in
        match (d1, d2) with
        | Ty.Dconst 1, Ty.Dconst 1
          when (match (a1.node, a2.node) with
               | Ast.Colon, _ | _, Ast.Colon -> false
               | _ -> true) ->
            Builtins.of_ty (Ty.scalar mty.Ty.base)
        | _ ->
            Builtins.of_ty
              (Ty.matrix ~shape:{ Ty.rows = d1; cols = d2 } mty.Ty.base))
    | _ -> Source.error pos "unsupported number of indices (%d)" (List.length args)

(* Tensors are indexed with exactly one subscript per axis (leading axis
   first).  All-scalar subscripts read one element; any sectioning
   subscript yields a tensor of the same rank (no dimension squeezing). *)
and eval_index_tensor pos (m : Builtins.aval) args arg_avs : Builtins.aval =
  let mty = m.Builtins.aty in
  let outer = match mty.Ty.rank with Ty.Rtensor o -> o | _ -> assert false in
  if List.length args <> 2 + List.length outer then
    Source.error pos
      "a rank-%d tensor must be indexed with exactly %d subscripts (got %d)"
      (Ty.total_rank mty)
      (2 + List.length outer)
      (List.length args);
  let axis_dims = outer @ [ mty.Ty.shape.Ty.rows; mty.Ty.shape.Ty.cols ] in
  let dims =
    List.map2
      (fun ((a : Ast.expr), av) extent ->
        match a.Ast.node with
        | Ast.Colon -> (extent, false)
        | _ -> (index_dim a av, (match index_dim a av with Ty.Dconst 1 -> true | _ -> false)))
      (List.combine args arg_avs) axis_dims
  in
  if List.for_all snd dims then Builtins.of_ty (Ty.scalar mty.Ty.base)
  else
    let ds = List.map fst dims in
    let rec split_last = function
      | [ r; c ] -> ([], r, c)
      | d :: rest ->
          let o, r, c = split_last rest in
          (d :: o, r, c)
      | [] -> assert false
    in
    let o, r, c = split_last ds in
    Builtins.of_ty (Ty.tensor ~outer:o ~shape:{ Ty.rows = r; cols = c } mty.Ty.base)

(* Returns the list of return-value abstract values of a call. *)
and eval_call ctx pos name args arg_avs : av list =
  match Builtins.find name with
  | Some { Builtins.kind = Builtins.Load; _ }
    when not (Hashtbl.mem ctx.funcs name) -> (
      (* Paper section 3: a sample data file must be present so the
         compiler can determine the variable's type, rank and shape. *)
      match args with
      | [ { Ast.node = Ast.Str fname; _ } ] -> (
          let path = Filename.concat ctx.datadir fname in
          match Mlang.Datafile.read path with
          | rows, cols, data ->
              let base =
                if Mlang.Datafile.all_integer data then Ty.Integer else Ty.Real
              in
              if rows = 1 && cols = 1 then [ scalar_av base ]
              else
                [
                  Some
                    (Builtins.of_ty
                       (Ty.matrix
                          ~shape:{ Ty.rows = Ty.Dconst rows; cols = Ty.Dconst cols }
                          base));
                ]
          | exception Mlang.Datafile.Bad_data msg ->
              Source.error pos
                "load(%S): a readable sample data file is required at compile \
                 time (%s)"
                fname msg)
      | _ -> Source.error pos "load takes one literal filename")
  | Some ({ Builtins.kind = Builtins.Mpi op; _ } as b)
    when not (Hashtbl.mem ctx.funcs name) ->
      Builtins.check_arity b (List.length args) pos;
      eval_mpi ctx pos name op arg_avs
  | Some b when not (Hashtbl.mem ctx.funcs name) ->
      Builtins.check_arity b (List.length args) pos;
      if List.exists (fun a -> a = None) arg_avs then [ None ]
      else
        let avs = List.map Option.get arg_avs in
        let r = b.Builtins.infer avs pos in
        [ Some r ]
  | _ -> (
      match Hashtbl.find_opt ctx.funcs name with
      | None -> Source.error pos "unknown function '%s'" name
      | Some f -> eval_user_call ctx pos f arg_avs)

(* Message tags must be compile-time constants: the type of an
   MPI_Recv is the join of every value sent under its tag, and that
   join is only computable when the tag is statically known. *)
and mpi_tag pos name (tag_av : av) =
  match tag_av with
  | Some { Builtins.aconst = Some f; _ } when f >= 0. && Float.is_integer f ->
      (* the run time maps user tags into their own tag space, well
         clear of the collectives' and the transport acks'; a bound on
         the user tag keeps those spaces disjoint *)
      if f > 1_000_000. then
        Source.error pos "%s: message tags must be at most 1000000" name
      else int_of_float f
  | _ ->
      Source.error pos
        "%s: the message tag must be a non-negative compile-time constant" name

(* A message carries a scalar or a matrix: a tensor sent or broadcast
   is rejected here, where its rank is known. *)
and eval_mpi ctx pos name op arg_avs : av list =
  if List.exists (fun a -> a = None) arg_avs then [ None ]
  else
    let sendable (v : av) =
      match v with
      | Some { Builtins.aty; _ } when Ty.is_tensor aty ->
          Source.error pos
            "%s: cannot send a tensor; slice it into matrices or scalars first"
            name
      | _ -> ()
    in
    match (op, arg_avs) with
    | (Builtins.Mrank | Builtins.Msize), [] -> [ scalar_av Ty.Integer ]
    | Builtins.Mprobe, [ _; tag_av ] ->
        ignore (mpi_tag pos name tag_av);
        [ scalar_av Ty.Integer ]
    | Builtins.Msend, [ _; tag_av; value ] ->
        let tag = mpi_tag pos name tag_av in
        sendable value;
        (match value with
        | Some v ->
            let sent = Some { v with Builtins.aconst = None } in
            let old : av = Hashtbl.find_opt ctx.mpi_tags tag in
            let joined = join_av old sent in
            if not (equal_av joined old) then begin
              (match joined with
              | Some x -> Hashtbl.replace ctx.mpi_tags tag x
              | None -> ());
              ctx.changed <- true
            end
        | None -> ());
        [ scalar_av Ty.Integer ]
    | Builtins.Mrecv, [ _; tag_av ] ->
        let tag = mpi_tag pos name tag_av in
        if not (Hashtbl.mem ctx.mpi_recvs tag) then
          Hashtbl.replace ctx.mpi_recvs tag pos;
        [
          (match Hashtbl.find_opt ctx.mpi_tags tag with
          | Some v -> Some { v with Builtins.aconst = None }
          | None -> None);
        ]
    | Builtins.Mbcast, [ _; value ] ->
        sendable value;
        [
          (match value with
          | Some v -> Some { v with Builtins.aconst = None }
          | None -> None);
        ]
    | _ -> Source.error pos "%s: wrong arguments" name

and eval_user_call ctx pos (f : Ssa.sfunc) arg_avs : av list =
  if List.length arg_avs <> List.length f.sf_params then
    Source.error pos "function '%s' expects %d arguments, got %d" f.sf_name
      (List.length f.sf_params) (List.length arg_avs);
  let sig_key =
    Fmt.str "%s(%a)" f.sf_name
      (Fmt.list ~sep:(Fmt.any ",") (fun ppf -> function
         | Some { Builtins.aty; _ } -> Ty.pp ppf aty
         | None -> Fmt.string ppf "_"))
      arg_avs
  in
  if List.mem f.sf_name ctx.in_progress then
    Source.error pos "recursive function '%s' is not supported" f.sf_name;
  match Hashtbl.find_opt ctx.call_cache sig_key with
  | Some rets -> rets
  | None ->
      ctx.in_progress <- f.sf_name :: ctx.in_progress;
      List.iter2 (fun p av -> set_version ctx p av) f.sf_params arg_avs;
      exec_block ctx f.sf_body;
      let rets =
        List.map
          (fun r ->
            match Ssa.Smap.find_opt r f.sf_final_env with
            | Some v -> get_version ctx v
            | None -> None)
          f.sf_returns
      in
      ctx.in_progress <- List.tl ctx.in_progress;
      Hashtbl.replace ctx.call_cache sig_key rets;
      rets

(* --- statement execution ----------------------------------------------- *)

and exec_phi ctx (p : Ssa.phi) =
  let v =
    List.fold_left (fun acc arg -> join_av acc (get_version ctx arg)) None p.args
  in
  set_version ctx p.target v

and exec_stmt ctx (s : Ssa.sstmt) =
  match s with
  | Ssa.Sassign (v, rhs, _) -> set_version ctx v (eval_expr ctx rhs)
  | Ssa.Supdate (v, old, idx, rhs) -> (
      List.iter (fun i -> ignore (eval_expr ctx i)) idx;
      let rv = eval_expr ctx rhs in
      match (get_version ctx old, rv) with
      | Some o, Some r ->
          let ty =
            {
              o.Builtins.aty with
              Ty.base = Ty.join_base o.aty.Ty.base r.Builtins.aty.Ty.base;
            }
          in
          set_version ctx v (Some { Builtins.aty = ty; aconst = None })
      | _ -> ())
  | Ssa.Smulti (defs, rhs) -> (
      match rhs.node with
      | Ast.Call (name, args) ->
          let arg_avs = List.map (eval_expr ctx) args in
          let rets = eval_call_multi ctx rhs.ann.pos name args arg_avs (List.length defs) in
          annotate rhs (match rets with r :: _ -> r | [] -> None);
          List.iter2 (fun (v, _) r -> set_version ctx v r) defs rets
      | _ -> assert false)
  | Ssa.Sexpr (e, _) -> ignore (eval_expr ctx e)
  | Ssa.Sif (branches, els, phis) ->
      List.iter
        (fun (c, b) ->
          ignore (eval_expr ctx c);
          exec_block ctx b)
        branches;
      exec_block ctx els;
      List.iter (exec_phi ctx) phis
  | Ssa.Swhile (phis, cond, body) ->
      List.iter (exec_phi ctx) phis;
      ignore (eval_expr ctx cond);
      exec_block ctx body;
      (* re-run phis so back edges are visible within this pass *)
      List.iter (exec_phi ctx) phis
  | Ssa.Sfor (v, range, phis, body) ->
      (let rv = eval_expr ctx range in
       let elem_base =
         match rv with
         | Some { Builtins.aty; _ } -> aty.Ty.base
         | None -> Ty.Integer
       in
       set_version ctx v (scalar_av elem_base));
      List.iter (exec_phi ctx) phis;
      exec_block ctx body;
      List.iter (exec_phi ctx) phis
  | Ssa.Sbreak | Ssa.Scontinue | Ssa.Sreturn -> ()

and eval_call_multi ctx pos name args arg_avs ndefs : av list =
  match Builtins.find name with
  | Some { Builtins.kind = Builtins.Query "size"; _ }
    when not (Hashtbl.mem ctx.funcs name) ->
      List.init ndefs (fun _ -> scalar_av Ty.Integer)
  | Some { Builtins.kind = Builtins.Sort; _ }
    when ndefs = 2 && not (Hashtbl.mem ctx.funcs name) ->
      (* [s, i] = sort(v): sorted values and the permutation *)
      let v = eval_call ctx pos name args arg_avs in
      (match v with
      | [ Some a ] -> [ Some a; Some { a with Builtins.aty = { a.Builtins.aty with Ty.base = Ty.Integer } } ]
      | _ -> [ None; None ])
  | Some { Builtins.kind = Builtins.Minmax _; _ }
    when ndefs = 2 && not (Hashtbl.mem ctx.funcs name) ->
      (* [m, i] = min(v): the extremum and its index *)
      let v = eval_call ctx pos name args arg_avs in
      (match v with
      | [ Some { Builtins.aty; _ } ] ->
          [ scalar_av aty.Ty.base; scalar_av Ty.Integer ]
      | _ -> [ None; scalar_av Ty.Integer ])
  | Some _ when not (Hashtbl.mem ctx.funcs name) ->
      if ndefs > 1 then
        Source.error pos "builtin '%s' returns a single value" name
      else eval_call ctx pos name args arg_avs
  | _ -> (
      match Hashtbl.find_opt ctx.funcs name with
      | None -> Source.error pos "unknown function '%s'" name
      | Some f ->
          let rets = eval_user_call ctx pos f arg_avs in
          if List.length rets < ndefs then
            Source.error pos "function '%s' returns %d values, %d requested"
              name (List.length rets) ndefs;
          List.filteri (fun i _ -> i < ndefs) rets)

and exec_block ctx (b : Ssa.sblock) = List.iter (exec_stmt ctx) b

(* --- entry point -------------------------------------------------------- *)

let default_ty = Ty.real_scalar

let program ?(datadir = ".") (p : Ast.program) : result =
  let res =
    {
      var_ty = Hashtbl.create 64;
      func_var_ty = Hashtbl.create 8;
      func_returns = Hashtbl.create 8;
    }
  in
  (* Reset annotations so inference is idempotent when re-run on the
     same AST (the fixpoint joins into [ann.ty] in place). *)
  let reset (e : Ast.expr) =
    e.ann.ty <- Ty.Bottom;
    e.ann.frame <- 0
  in
  Ast.iter_exprs reset p.script;
  List.iter (fun (f : Ast.func) -> Ast.iter_exprs reset f.fbody) p.funcs;
  let funcs = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace funcs f.Ast.fname (Ssa.convert_func f)) p.funcs;
  let script, _ = Ssa.convert_script p.script in
  let ctx =
    {
      res;
      datadir;
      versions = Hashtbl.create 256;
      funcs;
      call_cache = Hashtbl.create 16;
      mpi_tags = Hashtbl.create 8;
      mpi_recvs = Hashtbl.create 8;
      in_progress = [];
      changed = true;
    }
  in
  let passes = ref 0 in
  while ctx.changed && !passes < 50 do
    ctx.changed <- false;
    Hashtbl.reset ctx.call_cache;
    exec_block ctx script;
    incr passes
  done;
  (* A receive on a tag nothing ever sends has no type (and would
     deadlock): reject it statically. *)
  Hashtbl.iter
    (fun tag pos ->
      if not (Hashtbl.mem ctx.mpi_tags tag) then
        Source.error pos "MPI_Recv: no MPI_Send in the program sends tag %d"
          tag)
    ctx.mpi_recvs;
  (* Variable declarations: join over all versions.  A version's scope
     prefix ("f:x@3") routes it to the owning function's table. *)
  Hashtbl.iter
    (fun name _ -> Hashtbl.replace res.func_var_ty name (Hashtbl.create 8))
    funcs;
  Hashtbl.iter
    (fun version value ->
      let base = Ssa.base_of_version version in
      let tbl =
        match Ssa.scope_of_version version with
        | Some fname -> (
            match Hashtbl.find_opt res.func_var_ty fname with
            | Some tbl -> tbl
            | None -> res.var_ty)
        | None -> res.var_ty
      in
      let joined =
        match Hashtbl.find_opt tbl base with
        | Some old -> Ty.join old value.Builtins.aty
        | None -> value.Builtins.aty
      in
      Hashtbl.replace tbl base joined)
    ctx.versions;
  (* record joined return types *)
  Hashtbl.iter
    (fun name (f : Ssa.sfunc) ->
      let rets =
        List.map
          (fun r ->
            match
              Hashtbl.find_opt
                (Hashtbl.find res.func_var_ty name)
                r
            with
            | Some t -> t
            | None -> default_ty)
          f.sf_returns
      in
      Hashtbl.replace res.func_returns name rets)
    funcs;
  res

(* Inference writes directly into the node annotation; a node never
   reached by the abstract interpreter keeps Bottom and defaults. *)
let expr_type (e : Ast.expr) : Ty.t =
  match e.ann.ty with Ty.Known t -> t | Ty.Bottom -> default_ty

let var_type res name : Ty.t =
  match Hashtbl.find_opt res.var_ty name with Some t -> t | None -> default_ty
