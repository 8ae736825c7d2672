(* Expression rewriting: typed AST -> SPMD IR (paper passes 4 and 5).

   The pass classifies every expression node by its inferred rank:

   - all-scalar expressions stay replicated scalar computations;
   - subexpressions whose evaluation needs interprocessor communication
     (matrix multiply, transposition, reductions, element reads,
     sections, shifts, ...) are lifted to statement level as run-time
     library calls assigning compiler temporaries;
   - what remains of an element-wise matrix expression tree is fused
     into a single [Ielem] loop over locally owned elements;
   - scalar stores into matrix elements become owner-guarded updates,
     and scalar reads of matrix elements become broadcasts, exactly as
     in the paper's pass-5 example. *)

open Mlang
module Ty = Analysis.Ty
module B = Analysis.Builtins

exception Unsupported of Source.pos * string

let unsupported pos fmt = Fmt.kstr (fun m -> raise (Unsupported (pos, m))) fmt

type ctx = {
  info : Analysis.Infer.result;
  vars : (string, Ty.t) Hashtbl.t; (* current scope: name -> type *)
  mutable tmp : int;
  mutable end_subst : Ir.sexpr option; (* value of 'end' in current index *)
}

type operand = Oscalar of Ir.sexpr | Omat of Ir.var | Ostr of string

(* Set of user-function names, filled by [lower_program] so that calls
   resolve to user code even when a builtin shares the name. *)
let user_funcs_marker : (string, unit) Hashtbl.t = Hashtbl.create 8

(* The reduction a one-argument min/max performs, from the registry. *)
let minmax_kind name =
  match B.find name with
  | Some { B.kind = B.Minmax (_, _, red); _ } -> Some red
  | _ -> None

(* Types now live on the node annotations; [ctx] is kept for symmetry
   with the variable-type lookups. *)
let ty_of _ctx (e : Ast.expr) = Analysis.Infer.expr_type e
let is_scalar_node ctx e = (ty_of ctx e).Ty.rank = Ty.Rscalar

let fresh ctx ty =
  ctx.tmp <- ctx.tmp + 1;
  let name = Printf.sprintf "ML_tmp%d" ctx.tmp in
  Hashtbl.replace ctx.vars name ty;
  name

let emit out i = out := i :: !out
let lib out dst fn args = emit out (Ir.Ilib { dst; fn; args })

(* Strip value-preserving unary wrappers (transposes of vectors do not
   change the element distribution, uplus is the identity). *)
let rec strip_transpose (e : Ast.expr) =
  match e.node with
  | Ast.Unop ((Ast.Transpose | Ast.Ctranspose | Ast.Uplus), a) ->
      strip_transpose a
  | _ -> e

let is_vector_ty (t : Ty.t) = Ty.is_vector t

(* --- expressions -------------------------------------------------------- *)

let rec lower_expr ctx out (e : Ast.expr) : operand =
  match e.node with
  | Ast.Num f -> Oscalar (Ir.Sconst f)
  | Ast.Str s -> Ostr s
  | Ast.Varref v ->
      if is_scalar_node ctx e then Oscalar (Ir.Svar v) else Omat v
  | Ast.Colon -> unsupported e.ann.pos "':' outside an index"
  | Ast.End_marker -> (
      match ctx.end_subst with
      | Some s -> Oscalar s
      | None -> unsupported e.ann.pos "'end' outside an index")
  | Ast.Binop (op, a, b) -> lower_binop ctx out e op a b
  | Ast.Unop (op, a) -> lower_unop ctx out e op a
  | Ast.Range (a, step, b) ->
      let sa = scalar ctx out a in
      let ss = match step with Some s -> scalar ctx out s | None -> Ir.Sconst 1. in
      let sb = scalar ctx out b in
      let t = fresh ctx (ty_of ctx e) in
      emit out (Ir.Iconstruct { dst = t; kind = Ir.Crange; args = [ sa; ss; sb ] });
      Omat t
  | Ast.Matrix rows -> lower_literal ctx out e rows
  | Ast.Index (v, args) -> lower_index ctx out e v args
  | Ast.Call (name, args) -> lower_call ctx out e name args
  | Ast.Ident n | Ast.Apply (n, _) ->
      Source.error e.ann.pos "unresolved '%s' reached code generation" n

(* Lower in scalar context; a 1x1 matrix value is read out with a
   broadcast of its only element. *)
and scalar ctx out (e : Ast.expr) : Ir.sexpr =
  match lower_expr ctx out e with
  | Oscalar s -> s
  | Omat v ->
      let t = fresh ctx Ty.real_scalar in
      emit out (Ir.Ibcast (t, v, [ Ir.Sconst 1. ]));
      Ir.Svar t
  | Ostr _ -> unsupported e.ann.pos "string used as a numeric value"

(* Lower to a matrix variable, materializing a temporary if needed. *)
and mat_operand ctx out (e : Ast.expr) : Ir.var =
  match lower_expr ctx out e with
  | Omat v -> v
  | Oscalar s ->
      (* A scalar where a matrix is required: make a 1x1 matrix. *)
      let t = fresh ctx (Ty.matrix ~shape:Ty.scalar_shape Ty.Real) in
      emit out (Ir.Iliteral { dst = t; rows = 1; cols = 1; elems = [ s ] });
      t
  | Ostr _ -> unsupported e.ann.pos "string used as a matrix value"

and lower_binop ctx out e op a b =
  let scalar_result = is_scalar_node ctx e in
  if scalar_result then
    match op with
    | Ast.Mul
      when (not (is_scalar_node ctx a)) && not (is_scalar_node ctx b) ->
        (* (1 x k) * (k x 1): an inner product -> ML_dot. *)
        let va = mat_operand ctx out (strip_transpose a) in
        let vb = mat_operand ctx out (strip_transpose b) in
        let t = fresh ctx Ty.real_scalar in
        lib out t Ir.Ldot [ va; vb ];
        Oscalar (Ir.Svar t)
    | _ -> Oscalar (Ir.Sbin (op, scalar ctx out a, scalar ctx out b))
  else if Ast.is_elementwise op then fused_elementwise ctx out e
  else
    match op with
    | Ast.Mul ->
        if is_scalar_node ctx a || is_scalar_node ctx b then
          fused_elementwise ctx out e
        else
          let ta = ty_of ctx a and tb = ty_of ctx b in
          if
            is_vector_ty ta && is_vector_ty tb
            && ta.Ty.shape.Ty.cols = Ty.Dconst 1
            && tb.Ty.shape.Ty.rows = Ty.Dconst 1
          then begin
            (* (m x 1) * (1 x n): outer product -> ML_outer. *)
            let u = mat_operand ctx out (strip_transpose a) in
            let v = mat_operand ctx out (strip_transpose b) in
            let t = fresh ctx (ty_of ctx e) in
            lib out t Ir.Louter [ u; v ];
            Omat t
          end
          else begin
            let va = mat_operand ctx out a in
            let vb = mat_operand ctx out b in
            let t = fresh ctx (ty_of ctx e) in
            lib out t Ir.Lmatmul [ va; vb ];
            Omat t
          end
    | Ast.Div | Ast.Ldiv ->
        if is_scalar_node ctx b || is_scalar_node ctx a then
          fused_elementwise ctx out e
        else unsupported e.ann.pos "matrix division is not supported"
    | Ast.Pow -> unsupported e.ann.pos "matrix power is not supported; use .^"
    | Ast.Shortand | Ast.Shortor ->
        unsupported e.ann.pos "&&/|| require scalar operands"
    | Ast.Add | Ast.Sub | Ast.Emul | Ast.Ediv | Ast.Eldiv | Ast.Epow | Ast.Lt
    | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
        fused_elementwise ctx out e

and lower_unop ctx out e op a =
  match op with
  | Ast.Uplus -> lower_expr ctx out a
  | Ast.Neg | Ast.Not ->
      if is_scalar_node ctx e then
        let s = scalar ctx out a in
        Oscalar (match op with Ast.Neg -> Ir.Sneg s | _ -> Ir.Snot s)
      else fused_elementwise ctx out e
  | Ast.Transpose | Ast.Ctranspose ->
      if is_scalar_node ctx e then lower_expr ctx out a
      else begin
        let v = mat_operand ctx out a in
        let t = fresh ctx (ty_of ctx e) in
        lib out t Ir.Ltranspose [ v ];
        Omat t
      end

(* Fuse an element-wise expression tree into a single local loop.  The
   loop's model operand fixes the iteration space: under frame/cell
   broadcasting a tensor operand dominates any matrix operand, so the
   first tensor-typed operand (in tree order) is preferred and the
   first matrix operand is the fallback.

   Under a tensor model every matrix operand is a frame-broadcast cell,
   which every rank needs whole: each distinct one is bound to a
   [replicate] temporary before the loop, a statement-level call licm
   can hoist.  That needs the model to be a tensor on every path: a
   join with a matrix forgets the frame extents, so only a model with
   known extents qualifies, and any other cell is gathered by the loop
   itself at run time. *)
and fused_elementwise ctx out (e : Ast.expr) : operand =
  let ee = build_eexpr ctx out e in
  let rec mats = function
    | Ir.Emat v -> [ v ]
    | Ir.Escalar _ | Ir.Eeye -> []
    | Ir.Ebin (_, x, y) | Ir.Ecall2 (_, x, y) -> mats x @ mats y
    | Ir.Eneg x | Ir.Enot x | Ir.Ecall1 (_, x) -> mats x
  in
  let vs = mats ee in
  let rank_of v = Option.map (fun t -> t.Ty.rank) (Hashtbl.find_opt ctx.vars v) in
  let is_tensor v = match rank_of v with Some (Ty.Rtensor _) -> true | _ -> false in
  let model =
    match List.find_opt is_tensor vs with
    | Some v -> v
    | None -> (
        match vs with
        | v :: _ -> v
        | [] ->
            unsupported e.ann.pos
              "element-wise expression has no matrix operand")
  in
  let ee =
    match rank_of model with
    | Some (Ty.Rtensor frame) when not (List.mem Ty.Dunknown frame) ->
        let cells =
          List.fold_left
            (fun acc v ->
              if rank_of v <> Some Ty.Rmatrix || List.mem_assoc v acc then acc
              else begin
                let t = fresh ctx (Hashtbl.find ctx.vars v) in
                lib out t Ir.Lreplicate [ v ];
                (v, t) :: acc
              end)
            [] vs
        in
        Dataflow.map_eexpr
          (fun v -> Option.value ~default:v (List.assoc_opt v cells))
          ee
    | _ -> ee
  in
  let t = fresh ctx (ty_of ctx e) in
  emit out (Ir.Ielem { dst = t; model; expr = ee });
  Omat t

and build_eexpr ctx out (e : Ast.expr) : Ir.eexpr =
  if is_scalar_node ctx e then Ir.Escalar (scalar ctx out e)
  else
    match e.node with
    | Ast.Varref v -> Ir.Emat v
    | Ast.Binop (op, a, b) when Ast.is_elementwise op ->
        Ir.Ebin (op, build_eexpr ctx out a, build_eexpr ctx out b)
    | Ast.Binop (Ast.Mul, a, b)
      when is_scalar_node ctx a || is_scalar_node ctx b ->
        Ir.Ebin (Ast.Emul, build_eexpr ctx out a, build_eexpr ctx out b)
    | Ast.Binop (Ast.Div, a, b) when is_scalar_node ctx b ->
        Ir.Ebin (Ast.Ediv, build_eexpr ctx out a, build_eexpr ctx out b)
    | Ast.Binop (Ast.Ldiv, a, b) when is_scalar_node ctx a ->
        (* a \ b  =  b ./ a *)
        Ir.Ebin (Ast.Ediv, build_eexpr ctx out b, build_eexpr ctx out a)
    | Ast.Unop (Ast.Neg, a) -> Ir.Eneg (build_eexpr ctx out a)
    | Ast.Unop (Ast.Not, a) -> Ir.Enot (build_eexpr ctx out a)
    | Ast.Unop (Ast.Uplus, a) -> build_eexpr ctx out a
    | Ast.Call (name, [ a ])
      when (match Analysis.Builtins.find name with
           | Some { Analysis.Builtins.kind = Analysis.Builtins.Map1 _; _ } ->
               true
           | _ -> false) ->
        Ir.Ecall1 (name, build_eexpr ctx out a)
    | Ast.Call (name, [ a; b ])
      when (match Analysis.Builtins.find name with
           | Some
               {
                 Analysis.Builtins.kind =
                   Analysis.Builtins.Map2 _ | Analysis.Builtins.Minmax _;
                 _;
               } ->
               true
           | _ -> false) ->
        Ir.Ecall2 (name, build_eexpr ctx out a, build_eexpr ctx out b)
    | _ ->
        (* Not element-wise: lift to a temporary via a library call. *)
        Ir.Emat (mat_operand ctx out e)

and lower_literal ctx out e rows =
  let all_scalar =
    List.for_all (List.for_all (fun el -> is_scalar_node ctx el)) rows
  in
  let nrows = List.length rows in
  let ncols = match rows with [] -> 0 | r :: _ -> List.length r in
  List.iter
    (fun r ->
      if List.length r <> ncols then
        unsupported e.ann.pos "matrix literal rows have different lengths")
    rows;
  if all_scalar then begin
    let elems = List.concat_map (List.map (fun el -> scalar ctx out el)) rows in
    if nrows = 1 && ncols = 1 then Oscalar (List.hd elems)
    else begin
      let t = fresh ctx (ty_of ctx e) in
      emit out (Ir.Iliteral { dst = t; rows = nrows; cols = ncols; elems });
      Omat t
    end
  end
  else begin
    (* Concatenation of matrix blocks: materialize every block and let
       the run-time library assemble and redistribute. *)
    let parts =
      List.concat_map (List.map (fun el -> mat_operand ctx out el)) rows
    in
    let t = fresh ctx (ty_of ctx e) in
    emit out
      (Ir.Iconcat { dst = t; grid_rows = nrows; grid_cols = ncols; parts });
    Omat t
  end

(* Index expressions: scalar reads become broadcasts, everything else a
   section.  'end' is substituted with the extent of the indexed slot. *)
and lower_index ctx out e v args =
  let vty =
    match Hashtbl.find_opt ctx.vars v with
    | Some t -> t
    | None -> Ty.real_matrix
  in
  if vty.Ty.rank = Ty.Rscalar then Oscalar (Ir.Svar v)
  else if Ty.is_tensor vty then lower_tensor_index ctx out e v vty args
  else begin
    let nargs = List.length args in
    let slot_dim i =
      if nargs = 1 then Ir.Sdim (v, 0) (* linear: numel *)
      else Ir.Sdim (v, i + 1)
    in
    let with_end i f =
      let saved = ctx.end_subst in
      ctx.end_subst <- Some (slot_dim i);
      let r = f () in
      ctx.end_subst <- saved;
      r
    in
    if is_scalar_node ctx e then begin
      (* Element read -> ML_broadcast.  All index args are scalars. *)
      let idx =
        List.mapi (fun i a -> with_end i (fun () -> scalar ctx out a)) args
      in
      let t = fresh ctx (Ty.scalar (ty_of ctx e).Ty.base) in
      emit out (Ir.Ibcast (t, v, idx));
      Oscalar (Ir.Svar t)
    end
    else begin
      let sel_of i (a : Ast.expr) =
        with_end i (fun () ->
            match a.node with
            | Ast.Colon -> Ir.Sel_all
            | Ast.Range (lo, step, hi) ->
                let slo = scalar ctx out lo in
                let sstep = Option.map (scalar ctx out) step in
                let shi = scalar ctx out hi in
                Ir.Sel_range (slo, sstep, shi)
            | _ ->
                if is_scalar_node ctx a then Ir.Sel_scalar (scalar ctx out a)
                else Ir.Sel_vec (mat_operand ctx out a))
      in
      let sels = List.mapi sel_of args in
      let t = fresh ctx (ty_of ctx e) in
      emit out (Ir.Isection { dst = t; src = v; sels });
      Omat t
    end
  end

(* Tensor indexing: exactly one subscript per axis (no linear or
   partial indexing); 'end' substitutes the per-axis extent.  The
   leading (page) axis is Sdim code 4, the trailing cell reuses the
   matrix row/col codes. *)
and tensor_axis_dim v i =
  match i with
  | 0 -> Ir.Sdim (v, 4)
  | 1 -> Ir.Sdim (v, 1)
  | _ -> Ir.Sdim (v, 2)

and lower_tensor_index ctx out e v vty args =
  let rank = Ty.total_rank vty in
  if rank <> 3 then
    unsupported e.ann.pos "only rank-3 tensors can be indexed (got rank %d)"
      rank;
  let nargs = List.length args in
  if nargs <> rank then
    unsupported e.ann.pos
      "a rank-%d tensor must be indexed with exactly %d subscripts (got %d)"
      rank rank nargs;
  let with_end i f =
    let saved = ctx.end_subst in
    ctx.end_subst <- Some (tensor_axis_dim v i);
    let r = f () in
    ctx.end_subst <- saved;
    r
  in
  if is_scalar_node ctx e then begin
    (* Element read -> ML_broadcast with one subscript per axis. *)
    let idx =
      List.mapi (fun i a -> with_end i (fun () -> scalar ctx out a)) args
    in
    let t = fresh ctx (Ty.scalar (ty_of ctx e).Ty.base) in
    emit out (Ir.Ibcast (t, v, idx));
    Oscalar (Ir.Svar t)
  end
  else begin
    let sel_of i (a : Ast.expr) =
      with_end i (fun () ->
          match a.node with
          | Ast.Colon -> Ir.Sel_all
          | Ast.Range (lo, step, hi) ->
              let slo = scalar ctx out lo in
              let sstep = Option.map (scalar ctx out) step in
              let shi = scalar ctx out hi in
              Ir.Sel_range (slo, sstep, shi)
          | _ ->
              if is_scalar_node ctx a then Ir.Sel_scalar (scalar ctx out a)
              else Ir.Sel_vec (mat_operand ctx out a))
    in
    let sels = List.mapi sel_of args in
    let t = fresh ctx (ty_of ctx e) in
    emit out (Ir.Isection { dst = t; src = v; sels });
    Omat t
  end

and lower_call ctx out (e : Ast.expr) name args =
  match B.find name with
  | Some b when not (Hashtbl.mem user_funcs_marker name) -> (
      match b.B.kind with
      | B.Map1 _ | B.Map2 _ ->
          if is_scalar_node ctx e then
            Oscalar (Ir.Scall (name, List.map (scalar ctx out) args))
          else fused_elementwise ctx out e
      | B.Minmax (_, _, red) -> (
          match args with
          | [ _ ] -> lower_reduction ctx out e name (Some red) args
          | _ ->
              if is_scalar_node ctx e then
                Oscalar (Ir.Scall (name, List.map (scalar ctx out) args))
              else fused_elementwise ctx out e)
      | B.Reduce red -> lower_reduction ctx out e name (Some red) args
      | B.Norm -> lower_reduction ctx out e name None args
      | B.Scan kind -> (
          match args with
          | [ a ] ->
              if is_scalar_node ctx a then lower_expr ctx out a
              else begin
                let v = mat_operand ctx out a in
                let t = fresh ctx (ty_of ctx e) in
                lib out t (Ir.Lscan kind) [ v ];
                Omat t
              end
          | _ -> unsupported e.ann.pos "'%s' takes one argument" name)
      | B.Dot -> (
          match args with
          | [ a; b ] ->
              let va = mat_operand ctx out (strip_transpose a) in
              let vb = mat_operand ctx out (strip_transpose b) in
              let t = fresh ctx Ty.real_scalar in
              lib out t Ir.Ldot [ va; vb ];
              Oscalar (Ir.Svar t)
          | _ -> unsupported e.ann.pos "dot takes two arguments")
      | B.Trapz -> (
          let t = fresh ctx Ty.real_scalar in
          match args with
          | [ y ] ->
              lib out t Ir.Ltrapz [ mat_operand ctx out y ];
              Oscalar (Ir.Svar t)
          | [ x; y ] ->
              let vx = mat_operand ctx out x in
              let vy = mat_operand ctx out y in
              lib out t Ir.Ltrapz [ vx; vy ];
              Oscalar (Ir.Svar t)
          | _ -> unsupported e.ann.pos "trapz takes one or two arguments")
      | B.Shift -> (
          match args with
          | [ v; _ ] when is_scalar_node ctx v ->
              (* circshift of a scalar is the identity *)
              lower_expr ctx out v
          | [ v; k ] ->
              let vv = mat_operand ctx out v in
              let sk = scalar ctx out k in
              let t = fresh ctx (ty_of ctx e) in
              lib out t (Ir.Lshift sk) [ vv ];
              Omat t
          | _ -> unsupported e.ann.pos "circshift takes two arguments")
      | B.Constructor _ -> lower_constructor ctx out e name args
      | B.Query q -> lower_query ctx out e q args
      | B.Constant c -> Oscalar (Ir.Sconst c)
      | B.Sort -> (
          match args with
          | [ a ] ->
              if is_scalar_node ctx a then lower_expr ctx out a
              else begin
                let v = mat_operand ctx out a in
                let t = fresh ctx (ty_of ctx e) in
                emit out (Ir.Isort { vdst = t; idst = None; arg = v });
                Omat t
              end
          | _ -> unsupported e.ann.pos "sort takes one argument")
      | B.Diag -> (
          match args with
          | [ a ] ->
              if is_scalar_node ctx a then lower_expr ctx out a
              else begin
                let v = mat_operand ctx out a in
                let t = fresh ctx (ty_of ctx e) in
                lib out t Ir.Ldiag [ v ];
                Omat t
              end
          | _ -> unsupported e.ann.pos "diag takes one argument")
      | B.Repmat -> (
          (* desugar to a concat grid of the same block *)
          match args with
          | [ a; r; c ] -> (
              let const_of (x : Ast.expr) =
                match scalar ctx out x with
                | Ir.Sconst f when Float.is_integer f && f >= 1. ->
                    int_of_float f
                | _ ->
                    unsupported e.ann.pos
                      "repmat: tile counts must be positive compile-time \
                       constants"
              in
              let rr = const_of r and cc = const_of c in
              let v = mat_operand ctx out a in
              if rr = 1 && cc = 1 then Omat v
              else begin
                let t = fresh ctx (ty_of ctx e) in
                emit out
                  (Ir.Iconcat
                     {
                       dst = t;
                       grid_rows = rr;
                       grid_cols = cc;
                       parts = List.init (rr * cc) (fun _ -> v);
                     });
                Omat t
              end)
          | _ -> unsupported e.ann.pos "repmat takes three arguments")
      | B.Load -> (
          match args with
          | [ { Ast.node = Ast.Str fname; _ } ] ->
              let t = fresh ctx (ty_of ctx e) in
              emit out (Ir.Iload { dst = t; file = fname });
              Omat t
          | _ -> unsupported e.ann.pos "load takes one literal filename")
      | B.Mpi op -> (
          match (op, args) with
          | B.Mrank, [] ->
              let t = fresh ctx Ty.int_scalar in
              emit out (Ir.Impi_rank t);
              Oscalar (Ir.Svar t)
          | B.Msize, [] ->
              let t = fresh ctx Ty.int_scalar in
              emit out (Ir.Impi_size t);
              Oscalar (Ir.Svar t)
          | B.Mprobe, [ src; tag ] ->
              let ssrc = scalar ctx out src in
              let stag = scalar ctx out tag in
              let t = fresh ctx Ty.int_scalar in
              emit out (Ir.Impi_probe (t, ssrc, stag));
              Oscalar (Ir.Svar t)
          | B.Mrecv, [ src; tag ] ->
              let ssrc = scalar ctx out src in
              let stag = scalar ctx out tag in
              let rty = ty_of ctx e in
              let t = fresh ctx rty in
              if rty.Ty.rank = Ty.Rscalar then begin
                emit out (Ir.Impi_recv (t, ssrc, stag, false));
                Oscalar (Ir.Svar t)
              end
              else begin
                emit out (Ir.Impi_recv (t, ssrc, stag, true));
                Omat t
              end
          | B.Mbcast, [ root; value ] ->
              let sroot = scalar ctx out root in
              let varg = call_arg ctx out value in
              let rty = ty_of ctx e in
              let t = fresh ctx rty in
              emit out (Ir.Impi_bcast (t, sroot, varg));
              if rty.Ty.rank = Ty.Rscalar then Oscalar (Ir.Svar t) else Omat t
          | B.Msend, _ ->
              unsupported e.ann.pos
                "MPI_Send is a statement; its result cannot be used"
          | _, _ -> unsupported e.ann.pos "'%s': wrong arguments" name)
      | B.Output _ | B.Error_fn ->
          unsupported e.ann.pos "'%s' cannot be used inside an expression" name)
  | _ ->
      (* User function call. *)
      let rty = ty_of ctx e in
      let t = fresh ctx rty in
      let cargs = List.map (call_arg ctx out) args in
      emit out (Ir.Icalluser { rets = [ t ]; name; args = cargs });
      if rty.Ty.rank = Ty.Rscalar then Oscalar (Ir.Svar t) else Omat t

and call_arg ctx out (a : Ast.expr) : Ir.call_arg =
  match lower_expr ctx out a with
  | Oscalar s -> Ir.Ascalar s
  | Omat v -> Ir.Amat v
  | Ostr s -> Ir.Ascalar (Ir.Sstr s)

(* [red] is the reduction's kind; [None] is norm, the 2-norm of a
   vector (a library call of its own). *)
and lower_reduction ctx out e name (red : Ir.rkind option) args =
  match args with
  | [ a ] -> (
      (* Branch on what the operand LOWERS to, not on its static type:
         a nested reduction over an unknown-shape matrix is typed as a
         matrix but lowers to a scalar, and wrapping that scalar in a
         1x1 matrix literal would materialize a distributed matrix --
         deadlock bait inside rank-divergent (explicit-MPI) code. *)
      match lower_expr ctx out a with
      | Ostr _ -> unsupported e.ann.pos "string used as a numeric value"
      | Oscalar s -> (
          (* Reducing a scalar is the identity (any/all compare with 0). *)
          match red with
          | Some (Ir.Rany | Ir.Rall) ->
              Oscalar (Ir.Sbin (Ast.Ne, s, Ir.Sconst 0.))
          | None -> Oscalar (Ir.Scall ("abs", [ s ]))
          | Some _ -> Oscalar s)
      | Omat v -> (
          match red with
          | None ->
              let t = fresh ctx Ty.real_scalar in
              lib out t Ir.Lnorm [ v ];
              Oscalar (Ir.Svar t)
          | Some kind ->
              let aty = ty_of ctx a in
              (* Tensors reduce over every element: one full allreduce,
                 no per-column form.  So does a reduction typed scalar
                 (any, all) over a full matrix. *)
              let vector_like =
                Ty.is_tensor aty || Ty.is_vector aty
                || Ty.is_scalar (ty_of ctx e)
                || aty.Ty.shape.Ty.rows = Ty.Dunknown
                || aty.Ty.shape.Ty.cols = Ty.Dunknown
              in
              if vector_like then begin
                let t = fresh ctx Ty.real_scalar in
                lib out t (Ir.Lreduce_all kind) [ v ];
                Oscalar (Ir.Svar t)
              end
              else begin
                let t = fresh ctx (ty_of ctx e) in
                lib out t (Ir.Lreduce_cols kind) [ v ];
                Omat t
              end))
  | _ -> unsupported e.ann.pos "'%s' takes one argument" name

and lower_constructor ctx out e name args =
  let kind =
    match name with
    | "zeros" -> Ir.Czeros
    | "ones" -> Ir.Cones
    | "eye" -> Ir.Ceye
    | "rand" -> Ir.Crand
    | "randn" -> Ir.Crandn
    | "linspace" -> Ir.Clinspace
    | _ -> unsupported e.ann.pos "unknown constructor '%s'" name
  in
  match (name, args) with
  | "zeros", [] -> Oscalar (Ir.Sconst 0.)
  | "ones", [] -> Oscalar (Ir.Sconst 1.)
  | ("rand" | "randn"), [] ->
      unsupported e.ann.pos "scalar %s() is not supported in compiled code" name
  | _ ->
      let sargs = List.map (scalar ctx out) args in
      let t = fresh ctx (ty_of ctx e) in
      emit out (Ir.Iconstruct { dst = t; kind; args = sargs });
      Omat t

and lower_query ctx out e q args =
  match (q, args) with
  | "size", [ a ] ->
      if is_scalar_node ctx a then begin
        let t = fresh ctx (ty_of ctx e) in
        emit out
          (Ir.Iliteral
             { dst = t; rows = 1; cols = 2; elems = [ Ir.Sconst 1.; Ir.Sconst 1. ] });
        Omat t
      end
      else if Ty.is_tensor (ty_of ctx a) then begin
        let rank = Ty.total_rank (ty_of ctx a) in
        if rank <> 3 then
          unsupported e.ann.pos "size of a rank-%d tensor is not supported"
            rank;
        let v = mat_operand ctx out a in
        let t = fresh ctx (ty_of ctx e) in
        emit out
          (Ir.Iliteral
             {
               dst = t;
               rows = 1;
               cols = rank;
               elems = List.init rank (tensor_axis_dim v);
             });
        Omat t
      end
      else begin
        let v = mat_operand ctx out a in
        let t = fresh ctx (ty_of ctx e) in
        emit out
          (Ir.Iliteral
             { dst = t; rows = 1; cols = 2; elems = [ Ir.Sdim (v, 1); Ir.Sdim (v, 2) ] });
        Omat t
      end
  | "size", [ a; d ] -> (
      if is_scalar_node ctx a then Oscalar (Ir.Sconst 1.)
      else if Ty.is_tensor (ty_of ctx a) then
        let aty = ty_of ctx a in
        if Ty.total_rank aty <> 3 then
          unsupported e.ann.pos "size of a rank-%d tensor is not supported"
            (Ty.total_rank aty)
        else
          let v = mat_operand ctx out a in
          match scalar ctx out d with
          | Ir.Sconst f when f = 1. || f = 2. || f = 3. ->
              Oscalar (tensor_axis_dim v (int_of_float f - 1))
          | _ ->
              unsupported e.ann.pos
                "size(T, d): d must be the constant 1, 2 or 3"
      else
        let v = mat_operand ctx out a in
        match scalar ctx out d with
        | Ir.Sconst 1. -> Oscalar (Ir.Sdim (v, 1))
        | Ir.Sconst 2. -> Oscalar (Ir.Sdim (v, 2))
        | _ -> unsupported e.ann.pos "size(A, d): d must be the constant 1 or 2")
  | "length", [ a ] ->
      if is_scalar_node ctx a then Oscalar (Ir.Sconst 1.)
      else Oscalar (Ir.Sdim (mat_operand ctx out a, 3))
  | "numel", [ a ] ->
      if is_scalar_node ctx a then Oscalar (Ir.Sconst 1.)
      else Oscalar (Ir.Sdim (mat_operand ctx out a, 0))
  | _ -> unsupported e.ann.pos "unsupported query '%s'" q

(* --- statements --------------------------------------------------------- *)

let display_inst name ty =
  if (ty : Ty.t).Ty.rank = Ty.Rscalar then
    Ir.Iprint (name, Ir.Pscalar (Ir.Svar name))
  else Ir.Iprint (name, Ir.Pmat name)

(* MATLAB condition semantics: a matrix is true when it is nonempty
   and every element is nonzero. *)
let lower_cond ctx out (c : Ast.expr) : Ir.sexpr =
  if is_scalar_node ctx c then scalar ctx out c
  else begin
    let v = mat_operand ctx out c in
    let t = fresh ctx Ty.int_scalar in
    lib out t (Ir.Lreduce_all Ir.Rall) [ v ];
    Ir.Sbin
      ( Mlang.Ast.And,
        Ir.Svar t,
        Ir.Sbin (Mlang.Ast.Gt, Ir.Sdim (v, 0), Ir.Sconst 0.) )
  end

let rec lower_stmt ctx out (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Assign ({ lv_name; lv_indices = None; _ }, rhs, display) ->
      let rty = ty_of ctx rhs in
      let target_ty =
        match Hashtbl.find_opt ctx.vars lv_name with
        | Some t -> t
        | None ->
            Hashtbl.replace ctx.vars lv_name rty;
            rty
      in
      if target_ty.Ty.rank = Ty.Rscalar then begin
        if rty.Ty.rank <> Ty.Rscalar then
          unsupported s.spos
            "variable '%s' is scalar but is assigned a matrix" lv_name;
        (* Char-row-vector (string) variables are supported as opaque
           replicated values: they may be assigned and disp'ed, but any
           numeric use is rejected where it occurs.  Mixing string and
           numeric assignments to one variable defeats the type lattice
           (join(Literal, numeric) forgets the string), so it is
           diagnosed here at the assignment site. *)
        let is_str (t : Ty.t) = t.Ty.base = Ty.Literal in
        if is_str target_ty <> is_str rty then
          unsupported s.spos
            "variable '%s' holds both string and numeric values; not \
             supported by compiled code"
            lv_name;
        match lower_expr ctx out rhs with
        | Ostr str -> emit out (Ir.Iscalar (lv_name, Ir.Sstr str))
        | Oscalar se -> emit out (Ir.Iscalar (lv_name, se))
        | Omat v ->
            let t = fresh ctx Ty.real_scalar in
            emit out (Ir.Ibcast (t, v, [ Ir.Sconst 1. ]));
            emit out (Ir.Iscalar (lv_name, Ir.Svar t))
      end
      else begin
        if rty.Ty.rank = Ty.Rscalar then
          unsupported s.spos
            "variable '%s' changes rank (matrix elsewhere, scalar here); \
             not supported by the compiler"
            lv_name;
        let v = mat_operand ctx out rhs in
        emit out (Ir.Icopy (lv_name, v))
      end;
      if display then emit out (display_inst lv_name target_ty)
  | Ast.Assign ({ lv_name; lv_indices = Some idx; lv_pos }, rhs, display) ->
      let vty =
        match Hashtbl.find_opt ctx.vars lv_name with
        | Some t -> t
        | None -> Source.error lv_pos "undefined variable '%s'" lv_name
      in
      if vty.Ty.rank = Ty.Rscalar then begin
        (* a(1) = x on a scalar variable: plain assignment.  Any other
           constant index would grow the scalar into a vector, which the
           interpreter supports but compiled code does not. *)
        List.iter
          (fun (a : Ast.expr) ->
            match a.node with
            | Ast.Num f when f <> 1. ->
                unsupported lv_pos
                  "'%s(%g) = ...' stores beyond the current extent: matrix \
                   growth is not supported by compiled code (use the \
                   interpreter, or preallocate with zeros)"
                  lv_name f
            | _ -> ())
          idx;
        emit out (Ir.Iscalar (lv_name, scalar ctx out rhs))
      end
      else if Ty.is_tensor vty then begin
        (* Tensor element/section store: exactly one subscript per
           axis; growth is never supported, so out-of-range constant
           indices surface as run-time bounds errors. *)
        let rank = Ty.total_rank vty in
        if rank <> 3 then
          unsupported lv_pos "only rank-3 tensors can be indexed (got rank %d)"
            rank;
        let nargs = List.length idx in
        if nargs <> rank then
          unsupported lv_pos
            "a rank-%d tensor must be indexed with exactly %d subscripts \
             (got %d)"
            rank rank nargs;
        let with_end i f =
          let saved = ctx.end_subst in
          ctx.end_subst <- Some (tensor_axis_dim lv_name i);
          let r = f () in
          ctx.end_subst <- saved;
          r
        in
        let scalar_store =
          is_scalar_node ctx rhs
          && List.for_all
               (fun (a : Ast.expr) ->
                 match a.node with
                 | Ast.Colon | Ast.Range _ -> false
                 | _ -> is_scalar_node ctx a)
               idx
        in
        if scalar_store then begin
          let sidx =
            List.mapi (fun i a -> with_end i (fun () -> scalar ctx out a)) idx
          in
          let sv = scalar ctx out rhs in
          emit out (Ir.Isetelem (lv_name, sidx, sv))
        end
        else begin
          let sel_of i (a : Ast.expr) =
            with_end i (fun () ->
                match a.node with
                | Ast.Colon -> Ir.Sel_all
                | Ast.Range (lo, step, hi) ->
                    let slo = scalar ctx out lo in
                    let sstep = Option.map (scalar ctx out) step in
                    let shi = scalar ctx out hi in
                    Ir.Sel_range (slo, sstep, shi)
                | _ ->
                    if is_scalar_node ctx a then
                      Ir.Sel_scalar (scalar ctx out a)
                    else Ir.Sel_vec (mat_operand ctx out a))
          in
          let sels = List.mapi sel_of idx in
          let src =
            if is_scalar_node ctx rhs then Ir.Ascalar (scalar ctx out rhs)
            else Ir.Amat (mat_operand ctx out rhs)
          in
          emit out (Ir.Isetsection { dst = lv_name; sels; src })
        end
      end
      else begin
        let nargs = List.length idx in
        (* Compile-time growth detection: a constant index beyond a
           statically known extent is MATLAB auto-growth, which the
           distributed run time cannot do (it would redistribute the
           blocks of every copy).  Reject it here with a clear message
           rather than failing with a generic bounds error at run time. *)
        let extent_of_slot i =
          let dim = function Ty.Dconst n -> Some n | Ty.Dunknown -> None in
          if nargs = 1 then
            match (dim vty.Ty.shape.Ty.rows, dim vty.Ty.shape.Ty.cols) with
            | Some r, Some c -> Some (r * c)
            | _ -> None
          else if i = 0 then dim vty.Ty.shape.Ty.rows
          else dim vty.Ty.shape.Ty.cols
        in
        let check_growth i (s : Ir.sexpr) =
          match (extent_of_slot i, s) with
          | Some n, Ir.Sconst f when f > float_of_int n ->
              unsupported lv_pos
                "'%s' has %d element%s along this dimension but index %g is \
                 stored to: matrix growth is not supported by compiled code \
                 (use the interpreter, or preallocate with zeros)"
                lv_name n
                (if n = 1 then "" else "s")
                f
          | _ -> ()
        in
        let slot_dim i =
          if nargs = 1 then Ir.Sdim (lv_name, 0) else Ir.Sdim (lv_name, i + 1)
        in
        let with_end i f =
          let saved = ctx.end_subst in
          ctx.end_subst <- Some (slot_dim i);
          let r = f () in
          ctx.end_subst <- saved;
          r
        in
        let scalar_store =
          is_scalar_node ctx rhs
          && List.for_all
               (fun (a : Ast.expr) ->
                 match a.node with
                 | Ast.Colon | Ast.Range _ -> false
                 | _ -> is_scalar_node ctx a)
               idx
        in
        if scalar_store then begin
          (* a(i, j) = scalar: the paper's guarded element store *)
          let sidx =
            List.mapi (fun i a -> with_end i (fun () -> scalar ctx out a)) idx
          in
          List.iteri check_growth sidx;
          let sv = scalar ctx out rhs in
          emit out (Ir.Isetelem (lv_name, sidx, sv))
        end
        else begin
          (* a(sels) = rhs: owner-computes scatter of a section *)
          let sel_of i (a : Ast.expr) =
            with_end i (fun () ->
                match a.node with
                | Ast.Colon -> Ir.Sel_all
                | Ast.Range (lo, step, hi) ->
                    let slo = scalar ctx out lo in
                    let sstep = Option.map (scalar ctx out) step in
                    let shi = scalar ctx out hi in
                    Ir.Sel_range (slo, sstep, shi)
                | _ ->
                    if is_scalar_node ctx a then
                      Ir.Sel_scalar (scalar ctx out a)
                    else Ir.Sel_vec (mat_operand ctx out a))
          in
          let sels = List.mapi sel_of idx in
          List.iteri
            (fun i -> function
              | Ir.Sel_scalar s -> check_growth i s
              | Ir.Sel_range (Ir.Sconst lo, step, Ir.Sconst hi) -> (
                  (* the last index a constant range touches *)
                  let stepv =
                    match step with
                    | None -> Some 1.
                    | Some (Ir.Sconst s) when s <> 0. -> Some s
                    | Some _ -> None
                  in
                  match stepv with
                  | Some sv ->
                      let n = Float.floor (((hi -. lo) /. sv) +. 1e-9) in
                      if n >= 0. then
                        check_growth i
                          (Ir.Sconst (Float.max lo (lo +. (n *. sv))))
                  | None -> ())
              | Ir.Sel_range _ | Ir.Sel_all | Ir.Sel_vec _ -> ())
            sels;
          let src =
            if is_scalar_node ctx rhs then Ir.Ascalar (scalar ctx out rhs)
            else Ir.Amat (mat_operand ctx out rhs)
          in
          emit out (Ir.Isetsection { dst = lv_name; sels; src })
        end
      end;
      if display then emit out (display_inst lv_name vty)
  | Ast.Multi_assign (ls, rhs, display) -> lower_multi ctx out s ls rhs display
  | Ast.Expr ({ node = Ast.Call ("disp", [ arg ]); _ }, _) -> (
      match lower_expr ctx out arg with
      | Oscalar se -> emit out (Ir.Iprint ("", Ir.Pscalar se))
      | Omat v -> emit out (Ir.Iprint ("", Ir.Pmat v))
      | Ostr str -> emit out (Ir.Iprint ("", Ir.Pstr str)))
  | Ast.Expr ({ node = Ast.Call ("fprintf", args); _ }, _) ->
      let sargs =
        List.map
          (fun a ->
            match lower_expr ctx out a with
            | Oscalar se ->
                if (ty_of ctx a).Ty.base = Ty.Literal then
                  unsupported a.Ast.ann.pos
                    "fprintf of a string variable is not supported by \
                     compiled code; pass the string literal directly";
                se
            | Ostr str -> Ir.Sstr str
            | Omat _ -> unsupported s.spos "fprintf of a whole matrix")
          args
      in
      emit out (Ir.Iprintf sargs)
  | Ast.Expr ({ node = Ast.Call ("error", [ { node = Ast.Str msg; _ } ]); _ }, _)
    ->
      emit out (Ir.Ierror msg)
  | Ast.Expr ({ node = Ast.Call ("MPI_Send", [ dest; tag; value ]); _ }, _)
    when not (Hashtbl.mem user_funcs_marker "MPI_Send") ->
      let sd = scalar ctx out dest in
      let st = scalar ctx out tag in
      let v = call_arg ctx out value in
      emit out (Ir.Impi_send (sd, st, v))
  | Ast.Expr (e, display) -> (
      match lower_expr ctx out e with
      | Oscalar se -> if display then emit out (Ir.Iprint ("ans", Ir.Pscalar se))
      | Omat v -> if display then emit out (Ir.Iprint ("ans", Ir.Pmat v))
      | Ostr str -> if display then emit out (Ir.Iprint ("ans", Ir.Pstr str)))
  | Ast.If (branches, els) ->
      let lb (c, blk) =
        let sc = lower_cond ctx out c in
        (sc, lower_block ctx blk)
      in
      let branches = List.map lb branches in
      emit out (Ir.Iif (branches, lower_block ctx els))
  | Ast.While (c, blk) ->
      (* The condition is re-evaluated each iteration; its temporaries
         must live inside the loop.  We lower it into the loop head via
         a scalar temp pattern: while (1) { c = ...; if (!c) break; } *)
      let cond_out = ref [] in
      let sc = lower_cond ctx cond_out c in
      let body = lower_block ctx blk in
      if !cond_out = [] then emit out (Ir.Iwhile (sc, body))
      else begin
        let head = List.rev !cond_out in
        let guarded =
          head @ [ Ir.Iif ([ (Ir.Snot sc, [ Ir.Ibreak ]) ], []) ] @ body
        in
        emit out (Ir.Iwhile (Ir.Sconst 1., guarded))
      end
  | Ast.For (v, range, blk) ->
      Hashtbl.replace ctx.vars v Ty.int_scalar;
      (match range.node with
      | Ast.Range (a, st, b) ->
          let start = scalar ctx out a in
          let step = Option.map (scalar ctx out) st in
          let stop = scalar ctx out b in
          let body = lower_block ctx blk in
          emit out (Ir.Ifor (v, start, step, stop, body))
      | _ when is_scalar_node ctx range ->
          let sv = scalar ctx out range in
          let body = lower_block ctx blk in
          emit out (Ir.Ifor (v, sv, None, sv, body))
      | _ ->
          let rty = ty_of ctx range in
          if Ty.is_tensor rty then
            unsupported s.spos
              "for over a tensor is not supported; iterate over an index \
               range";
          if not (Ty.is_vector rty || rty.Ty.shape = Ty.unknown_shape) then
            unsupported s.spos
              "for over the columns of a full matrix is not supported; \
               iterate over an index range";
          (* for x = vec: hidden index loop, one element broadcast per
             iteration *)
          let vec = mat_operand ctx out range in
          let k = fresh ctx Ty.int_scalar in
          let body = lower_block ctx blk in
          let fetch = Ir.Ibcast (v, vec, [ Ir.Svar k ]) in
          emit out
            (Ir.Ifor (k, Ir.Sconst 1., None, Ir.Sdim (vec, 0), fetch :: body)))
  | Ast.Break -> emit out Ir.Ibreak
  | Ast.Continue -> emit out Ir.Icontinue
  | Ast.Return -> emit out Ir.Ireturn

and lower_multi ctx out s ls rhs display =
  match rhs.node with
  | Ast.Call ("size", [ a ]) when List.length ls = 2 ->
      if Ty.is_tensor (ty_of ctx a) then
        unsupported s.spos
          "[r, c] = size(...) is not defined for tensors; use size(T, d)";
      let v = mat_operand ctx out a in
      List.iteri
        (fun i (l : Ast.lhs) ->
          if l.lv_indices <> None then
            unsupported l.lv_pos "indexed targets in [r,c] = size(...)";
          Hashtbl.replace ctx.vars l.lv_name Ty.int_scalar;
          emit out (Ir.Iscalar (l.lv_name, Ir.Sdim (v, i + 1))))
        ls
  | Ast.Call ("sort", [ arg ]) when List.length ls = 2
         && not (Hashtbl.mem user_funcs_marker "sort") ->
      let v = mat_operand ctx out arg in
      (match ls with
      | [ lv; li ] ->
          if lv.lv_indices <> None || li.lv_indices <> None then
            unsupported s.spos "indexed targets in [s, i] = sort(...)";
          if not (Hashtbl.mem ctx.vars lv.lv_name) then
            Hashtbl.replace ctx.vars lv.lv_name (ty_of ctx rhs);
          if not (Hashtbl.mem ctx.vars li.lv_name) then
            Hashtbl.replace ctx.vars li.lv_name
              (Ty.matrix Ty.Integer);
          emit out
            (Ir.Isort { vdst = lv.lv_name; idst = Some li.lv_name; arg = v })
      | _ -> assert false)
  | Ast.Call (name, [ arg ])
    when List.length ls = 2
         && (not (Hashtbl.mem user_funcs_marker name))
         && Option.is_some (minmax_kind name) ->
      (* [m, i] = min(v) / max(v) *)
      let v = mat_operand ctx out arg in
      let kind = Option.get (minmax_kind name) in
      (match ls with
      | [ lm; li ] ->
          if lm.lv_indices <> None || li.lv_indices <> None then
            unsupported s.spos "indexed targets in [m, i] = %s(...)" name;
          if not (Hashtbl.mem ctx.vars lm.lv_name) then
            Hashtbl.replace ctx.vars lm.lv_name Ty.real_scalar;
          if not (Hashtbl.mem ctx.vars li.lv_name) then
            Hashtbl.replace ctx.vars li.lv_name Ty.int_scalar;
          emit out
            (Ir.Ireduce_loc
               { vdst = lm.lv_name; idst = li.lv_name; kind; arg = v })
      | _ -> assert false)
  | Ast.Call (name, args) when Hashtbl.mem user_funcs_marker name ->
      let cargs = List.map (call_arg ctx out) args in
      let rets =
        List.map
          (fun (l : Ast.lhs) ->
            if l.lv_indices <> None then
              unsupported l.lv_pos "indexed targets in multiple assignment";
            l.lv_name)
          ls
      in
      (* Return types were recorded during inference. *)
      (match Hashtbl.find_opt ctx.info.Analysis.Infer.func_returns name with
      | Some tys ->
          List.iteri
            (fun i r ->
              match List.nth_opt tys i with
              | Some t ->
                  if not (Hashtbl.mem ctx.vars r) then
                    Hashtbl.replace ctx.vars r t
              | None -> ())
            rets
      | None -> ());
      emit out (Ir.Icalluser { rets; name; args = cargs });
      if display then
        List.iter
          (fun r ->
            match Hashtbl.find_opt ctx.vars r with
            | Some t -> emit out (display_inst r t)
            | None -> ())
          rets
  | _ ->
      unsupported s.spos
        "multiple assignment requires size(...) or a user function"

and lower_block ctx (b : Ast.block) : Ir.block =
  let out = ref [] in
  List.iter (lower_stmt ctx out) b;
  List.rev !out

(* --- program ------------------------------------------------------------ *)

let vars_alist tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let lower_func info (f : Ast.func) : Ir.func =
  let vars = Hashtbl.create 16 in
  (match Hashtbl.find_opt info.Analysis.Infer.func_var_ty f.Ast.fname with
  | Some tys -> Hashtbl.iter (fun k v -> Hashtbl.replace vars k v) tys
  | None -> ());
  let ctx = { info; vars; tmp = 0; end_subst = None } in
  let body = lower_block ctx f.Ast.fbody in
  let ty_of_var v =
    match Hashtbl.find_opt vars v with Some t -> t | None -> Ty.real_scalar
  in
  {
    Ir.f_name = f.Ast.fname;
    f_params = List.map (fun p -> (p, ty_of_var p)) f.Ast.params;
    f_rets = List.map (fun r -> (r, ty_of_var r)) f.Ast.returns;
    f_vars = List.sort compare (vars_alist vars);
    f_body = body;
  }

let lower_program (info : Analysis.Infer.result) (p : Ast.program) : Ir.prog =
  Hashtbl.reset user_funcs_marker;
  List.iter
    (fun (f : Ast.func) -> Hashtbl.replace user_funcs_marker f.Ast.fname ())
    p.funcs;
  let vars = Hashtbl.create 32 in
  Hashtbl.iter (fun k v -> Hashtbl.replace vars k v) info.Analysis.Infer.var_ty;
  let ctx = { info; vars; tmp = 0; end_subst = None } in
  let body = lower_block ctx p.script in
  {
    Ir.p_vars = List.sort compare (vars_alist vars);
    p_body = body;
    p_funcs = List.map (lower_func info) p.funcs;
  }
