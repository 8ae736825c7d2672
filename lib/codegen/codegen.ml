(* Pass 7: emit the SPMD IR as a C program with run-time library calls,
   in the style of the paper's section 3 examples (ML_matrix_multiply,
   ML_broadcast, owner-computes guards, 0-based index adjustment).

   The output links against one run-time library, [C_runtime.impl],
   built either with a real MPI or with the one-machine MPI of
   [Mpi_shim] (what the tests and the fuzz oracle execute). *)

module Ty = Analysis.Ty

(* A program outside the C back end's subset: a compile error. *)
exception Unsupported of string

(* The C runtime carries only scalars and rows-by-cols matrices. *)
let no_tensors fmt =
  Printf.ksprintf
    (fun what ->
      raise
        (Unsupported
           ("codegen: " ^ what
          ^ "; the C back end supports scalars and matrices only")))
    fmt

let c_keywords =
  [
    "auto"; "break"; "case"; "char"; "const"; "continue"; "default"; "do";
    "double"; "else"; "enum"; "extern"; "float"; "for"; "goto"; "if"; "int";
    "long"; "register"; "return"; "short"; "signed"; "sizeof"; "static";
    "struct"; "switch"; "typedef"; "union"; "unsigned"; "void"; "volatile";
    "while"; "main"; "argc"; "argv";
  ]

let mangle name =
  let name = String.map (fun c -> if c = '@' then '_' else c) name in
  if List.mem name c_keywords then name ^ "_" else name

let c_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

type scope = { types : (string, Ty.t) Hashtbl.t }

let scope_of vars =
  let types = Hashtbl.create 32 in
  List.iter (fun (v, t) -> Hashtbl.replace types v t) vars;
  { types }

let is_matrix_var sc v =
  match Hashtbl.find_opt sc.types v with
  | Some t -> t.Ty.rank = Ty.Rmatrix
  | None -> false

(* Scalar variables of the Literal base type hold character strings and
   are declared [const char *] rather than [double]. *)
let is_str_var sc v =
  match Hashtbl.find_opt sc.types v with
  | Some t -> t.Ty.rank = Ty.Rscalar && t.Ty.base = Ty.Literal
  | None -> false

(* A call of an element-wise builtin under the C name the registry
   gives it; [double]'s C name is empty, the identity. *)
let c_call name args =
  match (Analysis.Builtins.c_name name, args) with
  | Some "", [ a ] -> a
  | Some c, _ -> Printf.sprintf "%s(%s)" c (String.concat ", " args)
  | None, _ -> failwith ("codegen: unknown scalar builtin " ^ name)

(* --- expressions -------------------------------------------------------- *)

let rec sexpr_c (s : Spmd.Ir.sexpr) : string =
  match s with
  | Spmd.Ir.Sconst f -> float_lit f
  | Spmd.Ir.Sstr str -> Printf.sprintf "\"%s\"" (c_escape str)
  | Spmd.Ir.Svar v -> mangle v
  | Spmd.Ir.Sbin (op, a, b) -> binop_c op (sexpr_c a) (sexpr_c b)
  | Spmd.Ir.Sneg a -> Printf.sprintf "(-%s)" (sexpr_c a)
  | Spmd.Ir.Snot a -> Printf.sprintf "((double)(%s == 0))" (sexpr_c a)
  | Spmd.Ir.Scall (name, args) -> c_call name (List.map sexpr_c args)
  | Spmd.Ir.Sdim (v, 0) -> Printf.sprintf "ML_numel(%s)" (mangle v)
  | Spmd.Ir.Sdim (v, 1) -> Printf.sprintf "((double)%s->rows)" (mangle v)
  | Spmd.Ir.Sdim (v, 2) -> Printf.sprintf "((double)%s->cols)" (mangle v)
  | Spmd.Ir.Sdim (v, _) -> Printf.sprintf "ML_length(%s)" (mangle v)

and binop_c (op : Mlang.Ast.binop) a b =
  let cmp c = Printf.sprintf "((double)(%s %s %s))" a c b in
  match op with
  | Mlang.Ast.Add -> Printf.sprintf "(%s + %s)" a b
  | Mlang.Ast.Sub -> Printf.sprintf "(%s - %s)" a b
  | Mlang.Ast.Mul | Mlang.Ast.Emul -> Printf.sprintf "(%s * %s)" a b
  | Mlang.Ast.Div | Mlang.Ast.Ediv -> Printf.sprintf "(%s / %s)" a b
  | Mlang.Ast.Ldiv | Mlang.Ast.Eldiv -> Printf.sprintf "(%s / %s)" b a
  | Mlang.Ast.Pow | Mlang.Ast.Epow -> Printf.sprintf "pow(%s, %s)" a b
  | Mlang.Ast.Lt -> cmp "<"
  | Mlang.Ast.Le -> cmp "<="
  | Mlang.Ast.Gt -> cmp ">"
  | Mlang.Ast.Ge -> cmp ">="
  | Mlang.Ast.Eq -> cmp "=="
  | Mlang.Ast.Ne -> cmp "!="
  | Mlang.Ast.And | Mlang.Ast.Shortand ->
      Printf.sprintf "((double)((%s != 0) && (%s != 0)))" a b
  | Mlang.Ast.Or | Mlang.Ast.Shortor ->
      Printf.sprintf "((double)((%s != 0) || (%s != 0)))" a b

(* Element expressions: scalar subtrees are hoisted into ML_s<k> consts
   emitted just before the loop. *)
let eexpr_c ~(model : string) (e : Spmd.Ir.eexpr) :
    (string * string) list * string =
  let hoisted = ref [] in
  let count = ref 0 in
  let rec go = function
    | Spmd.Ir.Emat v -> Printf.sprintf "%s->data[ML_i]" (mangle v)
    | Spmd.Ir.Eeye -> Printf.sprintf "ML_eye_at(%s, ML_i)" (mangle model)
    | Spmd.Ir.Escalar s ->
        incr count;
        let name = Printf.sprintf "ML_s%d" !count in
        hoisted := (name, sexpr_c s) :: !hoisted;
        name
    | Spmd.Ir.Ebin (op, a, b) -> binop_c op (go a) (go b)
    | Spmd.Ir.Eneg a -> Printf.sprintf "(-%s)" (go a)
    | Spmd.Ir.Enot a -> Printf.sprintf "((double)(%s == 0))" (go a)
    | Spmd.Ir.Ecall1 (name, a) -> c_call name [ go a ]
    | Spmd.Ir.Ecall2 (name, a, b) -> c_call name [ go a; go b ]
  in
  let body = go e in
  (List.rev !hoisted, body)

let red_c = function
  | Spmd.Ir.Rsum -> "ML_SUM"
  | Spmd.Ir.Rprod -> "ML_PROD"
  | Spmd.Ir.Rmin -> "ML_MIN"
  | Spmd.Ir.Rmax -> "ML_MAX"
  | Spmd.Ir.Rmean -> "ML_MEAN"
  | Spmd.Ir.Rany -> "ML_ANY"
  | Spmd.Ir.Rall -> "ML_ALL"

let sel_c = function
  | Spmd.Ir.Sel_all -> "ML_sel_all()"
  | Spmd.Ir.Sel_scalar s -> Printf.sprintf "ML_sel_scalar(%s)" (sexpr_c s)
  | Spmd.Ir.Sel_range (lo, step, hi) ->
      Printf.sprintf "ML_sel_range(%s, %s, %s)" (sexpr_c lo)
        (match step with Some s -> sexpr_c s | None -> "1.0")
        (sexpr_c hi)
  | Spmd.Ir.Sel_vec v -> Printf.sprintf "ML_sel_vec(%s)" (mangle v)

(* --- statements --------------------------------------------------------- *)

type emitter = {
  buf : Buffer.t;
  mutable indent : int;
  sc : scope;
  mutable has_return : bool;
  mutable tmp : int;
}

let line em fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string em.buf (String.make em.indent ' ');
      Buffer.add_string em.buf s;
      Buffer.add_char em.buf '\n')
    fmt

let fresh_c em prefix =
  em.tmp <- em.tmp + 1;
  Printf.sprintf "%s%d" prefix em.tmp

let rec emit_inst em (i : Spmd.Ir.inst) =
  match i with
  | Spmd.Ir.Iscalar (v, s) -> line em "%s = %s;" (mangle v) (sexpr_c s)
  | Spmd.Ir.Ielem { dst; model; expr } ->
      let hoisted, body = eexpr_c ~model expr in
      line em "{";
      em.indent <- em.indent + 2;
      List.iter (fun (n, e) -> line em "const double %s = %s;" n e) hoisted;
      line em "int ML_i;";
      line em "ML_reshape(&%s, %s->rows, %s->cols);" (mangle dst) (mangle model)
        (mangle model);
      line em "for (ML_i = ML_local_els(%s) - 1; ML_i >= 0; ML_i--)" (mangle dst);
      line em "  %s->data[ML_i] = %s;" (mangle dst) body;
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Icopy (d, s) -> line em "ML_copy(&%s, %s);" (mangle d) (mangle s)
  | Spmd.Ir.Ilib { dst; fn; args } -> (
      let d = mangle dst in
      match (fn, List.map mangle args) with
      | Spmd.Ir.Lmatmul, [ a; b ] ->
          line em "ML_matrix_multiply(%s, %s, &%s);" a b d
      | Spmd.Ir.Lmatmul_t, [ a; b ] -> line em "ML_matmul_t(%s, %s, &%s);" a b d
      | Spmd.Ir.Ldot, [ a; b ] -> line em "%s = ML_dot(%s, %s);" d a b
      | Spmd.Ir.Ltranspose, [ a ] -> line em "ML_transpose(%s, &%s);" a d
      | Spmd.Ir.Ldiag, [ a ] -> line em "ML_diag(%s, &%s);" a d
      | Spmd.Ir.Louter, [ a; b ] -> line em "ML_outer(%s, %s, &%s);" a b d
      | Spmd.Ir.Lreduce_all k, [ a ] ->
          line em "%s = ML_reduce_all(%s, %s);" d (red_c k) a
      | Spmd.Ir.Lreduce_cols k, [ a ] ->
          line em "ML_reduce_cols(%s, %s, &%s);" (red_c k) a d
      | Spmd.Ir.Lnorm, [ a ] -> line em "%s = ML_norm(%s);" d a
      | Spmd.Ir.Lscan k, [ a ] ->
          line em "ML_cumulative(%s, %s, &%s);"
            (match k with Spmd.Ir.Scumsum -> "0" | Spmd.Ir.Scumprod -> "1")
            a d
      | Spmd.Ir.Ltrapz, [ y ] -> line em "%s = ML_trapz(NULL, %s);" d y
      | Spmd.Ir.Ltrapz, [ x; y ] -> line em "%s = ML_trapz(%s, %s);" d x y
      | Spmd.Ir.Lshift k, [ a ] ->
          line em "ML_circshift(%s, (int)(%s), &%s);" a (sexpr_c k) d
      | Spmd.Ir.Lreplicate, [ a ] ->
          (* only lowered for the cell of a tensor's frame broadcast *)
          no_tensors "'%s' is broadcast over a rank-N tensor" a
      | _ -> failwith "codegen: bad library call arity")
  | Spmd.Ir.Isort { vdst; idst; arg } ->
      line em "ML_sort(%s, &%s, %s);" (mangle arg) (mangle vdst)
        (match idst with Some i -> "&" ^ mangle i | None -> "NULL")
  | Spmd.Ir.Ireduce_loc { vdst; idst; kind; arg } ->
      line em "%s = ML_reduce_index(%s, %s, &%s);" (mangle vdst) (red_c kind)
        (mangle arg) (mangle idst)
  | Spmd.Ir.Ibcast (d, m, [ i ]) ->
      line em "%s = ML_broadcast_linear(%s, (int)(%s) - 1);" (mangle d)
        (mangle m) (sexpr_c i)
  | Spmd.Ir.Ibcast (d, m, [ i; j ]) ->
      line em "%s = ML_broadcast(%s, (int)(%s) - 1, (int)(%s) - 1);" (mangle d)
        (mangle m) (sexpr_c i) (sexpr_c j)
  | Spmd.Ir.Ibcast _ -> failwith "codegen: bad broadcast arity"
  | Spmd.Ir.Ibcast_batch (items, m) ->
      (* row index -1 marks a linear (column-major) index carried in
         the column slot, decoded per shape by the run time *)
      let n = List.length items in
      line em "{";
      em.indent <- em.indent + 2;
      line em "int ML_bi[%d], ML_bj[%d]; double ML_bv[%d];" n n n;
      List.iteri
        (fun k (_, idx) ->
          match idx with
          | [ i ] ->
              line em "ML_bi[%d] = -1; ML_bj[%d] = (int)(%s) - 1;" k k
                (sexpr_c i)
          | [ i; j ] ->
              line em "ML_bi[%d] = (int)(%s) - 1; ML_bj[%d] = (int)(%s) - 1;"
                k (sexpr_c i) k (sexpr_c j)
          | _ -> failwith "codegen: bad broadcast arity")
        items;
      line em "ML_broadcast_batch(%s, %d, ML_bi, ML_bj, ML_bv);" (mangle m) n;
      List.iteri
        (fun k (d, _) -> line em "%s = ML_bv[%d];" (mangle d) k)
        items;
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Ireduce_fused items ->
      let n = List.length items in
      line em "{";
      em.indent <- em.indent + 2;
      line em "int ML_fk[%d]; const MATRIX *ML_fa[%d], *ML_fb[%d];" n n n;
      line em "double ML_fv[%d];" n;
      List.iteri
        (fun k (_, r) ->
          let kind, a, b =
            match r with
            | Spmd.Ir.Fsum m -> ("ML_FUSE_SUM", m, None)
            | Spmd.Ir.Fmean m -> ("ML_FUSE_MEAN", m, None)
            | Spmd.Ir.Fdot (a, b) -> ("ML_FUSE_DOT", a, Some b)
            | Spmd.Ir.Fnorm m -> ("ML_FUSE_NORM", m, None)
          in
          line em "ML_fk[%d] = %s; ML_fa[%d] = %s; ML_fb[%d] = %s;" k kind k
            (mangle a) k
            (match b with Some b -> mangle b | None -> "NULL"))
        items;
      line em "ML_reduce_fused(%d, ML_fk, ML_fa, ML_fb, ML_fv);" n;
      List.iteri
        (fun k (d, _) -> line em "%s = ML_fv[%d];" (mangle d) k)
        items;
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Isetelem (m, [ i ], v) ->
      line em "{";
      em.indent <- em.indent + 2;
      line em "int ML_ix = (int)(%s) - 1;" (sexpr_c i);
      line em "if (ML_owner_linear(%s, ML_ix))" (mangle m);
      line em "  *ML_realaddr1(%s, ML_ix) = %s;" (mangle m) (sexpr_c v);
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Isetelem (m, [ i; j ], v) ->
      line em "{";
      em.indent <- em.indent + 2;
      line em "int ML_ix = (int)(%s) - 1, ML_jx = (int)(%s) - 1;" (sexpr_c i)
        (sexpr_c j);
      line em "if (ML_owner(%s, ML_ix, ML_jx))" (mangle m);
      line em "  *ML_realaddr2(%s, ML_ix, ML_jx) = %s;" (mangle m) (sexpr_c v);
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Isetelem _ -> failwith "codegen: bad element-store arity"
  | Spmd.Ir.Iload { dst; file } ->
      line em "ML_load(&%s, \"%s\");" (mangle dst) (c_escape file)
  | Spmd.Ir.Iconstruct { dst; kind; args } -> emit_construct em dst kind args
  | Spmd.Ir.Iliteral { dst; rows; cols; elems } ->
      line em "{";
      em.indent <- em.indent + 2;
      (* an empty initializer list is not legal C, so pad with one 0 *)
      line em "double ML_lit[] = { %s };"
        (match elems with
        | [] -> "0.0"
        | _ -> String.concat ", " (List.map sexpr_c elems));
      line em "ML_literal(&%s, %d, %d, ML_lit);" (mangle dst) rows cols;
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Isection { dst; src; sels } -> (
      match sels with
      | [ s ] ->
          line em "ML_section(%s, %s, ML_sel_all(), 1, &%s);" (mangle src)
            (sel_c s) (mangle dst)
      | [ s1; s2 ] ->
          line em "ML_section(%s, %s, %s, 2, &%s);" (mangle src) (sel_c s1)
            (sel_c s2) (mangle dst)
      | _ -> failwith "codegen: bad section arity")
  | Spmd.Ir.Isetsection { dst; sels; src } ->
      let s1, s2, nsel =
        match sels with
        | [ s ] -> (sel_c s, "ML_sel_all()", 1)
        | [ s1; s2 ] -> (sel_c s1, sel_c s2, 2)
        | _ -> failwith "codegen: bad section arity"
      in
      (match src with
      | Spmd.Ir.Ascalar s ->
          line em "ML_set_section(%s, %s, %s, %d, NULL, %s);" (mangle dst) s1
            s2 nsel (sexpr_c s)
      | Spmd.Ir.Amat v ->
          line em "ML_set_section(%s, %s, %s, %d, %s, 0.0);" (mangle dst) s1 s2
            nsel (mangle v))
  | Spmd.Ir.Iconcat { dst; grid_rows; grid_cols; parts } ->
      line em "{";
      em.indent <- em.indent + 2;
      line em "const MATRIX *ML_parts[] = { %s };"
        (String.concat ", " (List.map mangle parts));
      line em "ML_concat(&%s, %d, %d, ML_parts);" (mangle dst) grid_rows
        grid_cols;
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Icalluser { rets; name; args } -> emit_call em rets name args
  | Spmd.Ir.Iprint (name, Spmd.Ir.Pscalar (Spmd.Ir.Svar v))
    when is_str_var em.sc v ->
      line em "ML_print_str(\"%s\", %s);" (c_escape name) (mangle v)
  | Spmd.Ir.Iprint (name, Spmd.Ir.Pscalar s) ->
      line em "ML_print_scalar(\"%s\", %s);" (c_escape name) (sexpr_c s)
  | Spmd.Ir.Iprint (name, Spmd.Ir.Pmat v) ->
      line em "ML_print_matrix(\"%s\", %s);" (c_escape name) (mangle v)
  | Spmd.Ir.Iprint (name, Spmd.Ir.Pstr s) ->
      line em "ML_print_str(\"%s\", \"%s\");" (c_escape name) (c_escape s)
  | Spmd.Ir.Iprintf (Spmd.Ir.Sstr fmt :: rest) ->
      let args =
        List.map (fun a -> Printf.sprintf "(double)(%s)" (sexpr_c a)) rest
      in
      line em "ML_printf(\"%s\", %d%s);" (c_escape fmt) (List.length rest)
        (if args = [] then "" else ", " ^ String.concat ", " args)
  | Spmd.Ir.Iprintf _ -> raise (Unsupported "codegen: fprintf needs a literal format")
  | Spmd.Ir.Ierror msg -> line em "ML_error(\"%s\");" (c_escape msg)
  | Spmd.Ir.Iif (branches, els) ->
      List.iteri
        (fun n (c, blk) ->
          line em "%s ((%s) != 0) {" (if n = 0 then "if" else "} else if")
            (sexpr_c c);
          em.indent <- em.indent + 2;
          emit_block em blk;
          em.indent <- em.indent - 2)
        branches;
      if els <> [] then begin
        line em "} else {";
        em.indent <- em.indent + 2;
        emit_block em els;
        em.indent <- em.indent - 2
      end;
      line em "}"
  | Spmd.Ir.Iwhile (c, blk) ->
      line em "while ((%s) != 0) {" (sexpr_c c);
      em.indent <- em.indent + 2;
      emit_block em blk;
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Ifor (v, start, step, stop, blk) ->
      (* Iterate on a hidden induction variable and assign the MATLAB
         loop variable at the top of each pass: after the loop (or a
         break) the variable holds the last iterated value, not one
         step past it, and a body that assigns the variable cannot
         change the trip count — both as in MATLAB. *)
      let st = fresh_c em "ML_step" and sp = fresh_c em "ML_stop" in
      let it = fresh_c em "ML_it" in
      line em "{";
      em.indent <- em.indent + 2;
      line em "double %s = %s, %s = %s, %s;" st
        (match step with Some s -> sexpr_c s | None -> "1.0")
        sp (sexpr_c stop) it;
      line em
        "for (%s = %s; (%s >= 0) ? (%s <= %s + 1e-12) : (%s >= %s - 1e-12); \
         %s += %s) {"
        it (sexpr_c start) st it sp it sp it st;
      em.indent <- em.indent + 2;
      line em "%s = %s;" (mangle v) it;
      emit_block em blk;
      em.indent <- em.indent - 2;
      line em "}";
      em.indent <- em.indent - 2;
      line em "}"
  | Spmd.Ir.Impi_rank _ | Spmd.Ir.Impi_size _ | Spmd.Ir.Impi_send _
  | Spmd.Ir.Impi_recv _ | Spmd.Ir.Impi_bcast _ | Spmd.Ir.Impi_probe _ ->
      raise
        (Unsupported
           "codegen: explicit MPI builtins are not supported by the C back end")
  | Spmd.Ir.Ibreak -> line em "break;"
  | Spmd.Ir.Icontinue -> line em "continue;"
  | Spmd.Ir.Ireturn ->
      em.has_return <- true;
      line em "goto ML_done;"

and emit_construct em dst kind args =
  let d = mangle dst in
  let a n = sexpr_c (List.nth args n) in
  let dims () =
    match args with
    | [ n ] ->
        let s = Printf.sprintf "(int)(%s)" (sexpr_c n) in
        (s, s)
    | [ r; c ] ->
        ( Printf.sprintf "(int)(%s)" (sexpr_c r),
          Printf.sprintf "(int)(%s)" (sexpr_c c) )
    | _ -> failwith "codegen: constructor arity"
  in
  match kind with
  | Spmd.Ir.Czeros ->
      let r, c = dims () in
      line em "ML_zeros(&%s, %s, %s);" d r c
  | Spmd.Ir.Cones ->
      let r, c = dims () in
      line em "ML_ones(&%s, %s, %s);" d r c
  | Spmd.Ir.Ceye ->
      let r, c = dims () in
      line em "ML_eye(&%s, %s, %s);" d r c
  | Spmd.Ir.Crand ->
      let r, c = dims () in
      line em "ML_rand(&%s, %s, %s);" d r c
  | Spmd.Ir.Crandn ->
      let r, c = dims () in
      line em "ML_randn(&%s, %s, %s);" d r c
  | Spmd.Ir.Clinspace ->
      line em "ML_linspace(&%s, %s, %s, (int)(%s));" d (a 0) (a 1) (a 2)
  | Spmd.Ir.Crange -> line em "ML_range(&%s, %s, %s, %s);" d (a 0) (a 1) (a 2)

and emit_call em rets name args =
  line em "{";
  em.indent <- em.indent + 2;
  let actuals =
    List.mapi
      (fun k (arg : Spmd.Ir.call_arg) ->
        match arg with
        | Spmd.Ir.Ascalar s -> sexpr_c s
        | Spmd.Ir.Amat v ->
            let tmp = Printf.sprintf "ML_arg%d" (k + 1) in
            line em "MATRIX *%s = NULL;" tmp;
            line em "ML_copy(&%s, %s);" tmp (mangle v);
            tmp)
      args
  in
  let ret_actuals = List.map (fun r -> "&" ^ mangle r) rets in
  line em "u_%s(%s);" (mangle name) (String.concat ", " (actuals @ ret_actuals));
  List.iteri
    (fun k (arg : Spmd.Ir.call_arg) ->
      match arg with
      | Spmd.Ir.Amat _ -> line em "ML_free(&ML_arg%d);" (k + 1)
      | Spmd.Ir.Ascalar _ -> ())
    args;
  em.indent <- em.indent - 2;
  line em "}"

and emit_block em (b : Spmd.Ir.block) = List.iter (emit_inst em) b

(* --- declarations, functions, program ------------------------------------ *)

let emit_decls em vars ~skip =
  List.iter
    (fun (v, (t : Ty.t)) ->
      if not (List.mem v skip) then
        if t.Ty.rank = Ty.Rmatrix then line em "MATRIX *%s = NULL;" (mangle v)
        else if t.Ty.base = Ty.Literal then
          line em "const char *%s = \"\";" (mangle v)
        else line em "double %s = 0;" (mangle v))
    vars

let emit_frees em vars ~skip =
  List.iter
    (fun (v, (t : Ty.t)) ->
      if t.Ty.rank = Ty.Rmatrix && not (List.mem v skip) then
        line em "ML_free(&%s);" (mangle v))
    vars

let func_signature (f : Spmd.Ir.func) =
  let params =
    List.map
      (fun (p, (t : Ty.t)) ->
        if t.Ty.rank = Ty.Rmatrix then
          Printf.sprintf "const MATRIX *%s_in" (mangle p)
        else Printf.sprintf "double %s" (mangle p))
      f.Spmd.Ir.f_params
  in
  let rets =
    List.map
      (fun (r, (t : Ty.t)) ->
        if t.Ty.rank = Ty.Rmatrix then
          Printf.sprintf "MATRIX **ML_ret_%s" (mangle r)
        else Printf.sprintf "double *ML_ret_%s" (mangle r))
      f.Spmd.Ir.f_rets
  in
  Printf.sprintf "static void u_%s(%s)" (mangle f.Spmd.Ir.f_name)
    (String.concat ", " (params @ rets))

let emit_func buf (f : Spmd.Ir.func) =
  let em =
    { buf; indent = 0; sc = scope_of f.Spmd.Ir.f_vars; has_return = false; tmp = 0 }
  in
  line em "%s {" (func_signature f);
  em.indent <- 2;
  (* Matrix parameters arrive by reference but MATLAB semantics are by
     value: make local working copies. *)
  let param_names = List.map fst f.Spmd.Ir.f_params in
  emit_decls em f.Spmd.Ir.f_vars
    ~skip:(List.filter (fun p -> not (is_matrix_var em.sc p)) param_names);
  List.iter
    (fun (p, (t : Ty.t)) ->
      if t.Ty.rank = Ty.Rmatrix then
        line em "ML_copy(&%s, %s_in);" (mangle p) (mangle p))
    f.Spmd.Ir.f_params;
  let body_start = Buffer.length buf in
  ignore body_start;
  emit_block em f.Spmd.Ir.f_body;
  if em.has_return then line em "ML_done: (void)0;";
  List.iter
    (fun (r, (t : Ty.t)) ->
      if t.Ty.rank = Ty.Rmatrix then
        line em "ML_copy(ML_ret_%s, %s);" (mangle r) (mangle r)
      else line em "*ML_ret_%s = %s;" (mangle r) (mangle r))
    f.Spmd.Ir.f_rets;
  emit_frees em f.Spmd.Ir.f_vars ~skip:[];
  em.indent <- 0;
  line em "}";
  line em ""

(* Emit the whole program as one C translation unit. *)
let emit_c ?(name = "otter program") (p : Spmd.Ir.prog) : string =
  (* A rank-N tensor anywhere in the program is a clear compile error
     rather than a downstream C compile failure. *)
  let check_vars where vars =
    List.iter
      (fun (v, t) ->
        if Analysis.Ty.is_tensor t then
          no_tensors "'%s' (%s) is a rank-N tensor" v where)
      vars
  in
  check_vars "script" p.Spmd.Ir.p_vars;
  List.iter
    (fun (f : Spmd.Ir.func) -> check_vars f.Spmd.Ir.f_name f.Spmd.Ir.f_vars)
    p.Spmd.Ir.p_funcs;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "/* %s -- SPMD C generated by the Otter MATLAB compiler.\n\
       \   Link with otter_rt.c and an MPI, or with otter_mpi_shim.c to run\n\
       \   OTTER_NP processes on one machine. */\n\
        #include \"otter_rt.h\"\n\n"
       name);
  List.iter
    (fun f -> Buffer.add_string buf (func_signature f ^ ";\n"))
    p.Spmd.Ir.p_funcs;
  if p.Spmd.Ir.p_funcs <> [] then Buffer.add_char buf '\n';
  let em =
    { buf; indent = 0; sc = scope_of p.Spmd.Ir.p_vars; has_return = false; tmp = 0 }
  in
  line em "int main(int argc, char **argv) {";
  em.indent <- 2;
  emit_decls em p.Spmd.Ir.p_vars ~skip:[];
  line em "ML_init(&argc, &argv);";
  emit_block em p.Spmd.Ir.p_body;
  if em.has_return then line em "ML_done: (void)0;";
  emit_frees em p.Spmd.Ir.p_vars ~skip:[];
  line em "ML_finalize();";
  line em "return 0;";
  em.indent <- 0;
  line em "}";
  line em "";
  List.iter (emit_func buf) p.Spmd.Ir.p_funcs;
  Buffer.contents buf

(* Files a user needs next to the generated program. *)
let support_files =
  [
    ("otter_rt.h", C_runtime.header);
    ("otter_rt.c", C_runtime.impl);
    ("mpi.h", Mpi_shim.header);
    ("otter_mpi_shim.c", Mpi_shim.impl);
  ]
