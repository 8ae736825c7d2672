(* Human-readable rendering of the SPMD IR (for --dump-ir and tests). *)

let rkind_name = function
  | Ir.Rsum -> "sum"
  | Ir.Rprod -> "prod"
  | Ir.Rmin -> "min"
  | Ir.Rmax -> "max"
  | Ir.Rmean -> "mean"
  | Ir.Rany -> "any"
  | Ir.Rall -> "all"

let ckind_name = function
  | Ir.Czeros -> "zeros"
  | Ir.Cones -> "ones"
  | Ir.Ceye -> "eye"
  | Ir.Crand -> "rand"
  | Ir.Crandn -> "randn"
  | Ir.Clinspace -> "linspace"
  | Ir.Crange -> "range"

let lib_name = function
  | Ir.Lmatmul -> "matmul"
  | Ir.Lmatmul_t -> "matmul_t"
  | Ir.Ldot -> "dot"
  | Ir.Ltranspose -> "transpose"
  | Ir.Ldiag -> "diag"
  | Ir.Louter -> "outer"
  | Ir.Lnorm -> "norm"
  | Ir.Lreduce_all k -> "reduce_" ^ rkind_name k
  | Ir.Lreduce_cols k -> "colreduce_" ^ rkind_name k
  | Ir.Lscan Ir.Scumsum -> "cumsum"
  | Ir.Lscan Ir.Scumprod -> "cumprod"
  | Ir.Ltrapz -> "trapz"
  | Ir.Lshift _ -> "circshift"
  | Ir.Lreplicate -> "replicate"

let rec sexpr ppf = function
  | Ir.Sconst f ->
      if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.0f" f
      else Fmt.pf ppf "%g" f
  | Ir.Sstr s -> Fmt.pf ppf "%S" s
  | Ir.Svar v -> Fmt.string ppf v
  | Ir.Sbin (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" sexpr a (Mlang.Ast.binop_name op) sexpr b
  | Ir.Sneg a -> Fmt.pf ppf "(-%a)" sexpr a
  | Ir.Snot a -> Fmt.pf ppf "(~%a)" sexpr a
  | Ir.Scall (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") sexpr) args
  | Ir.Sdim (v, 0) -> Fmt.pf ppf "numel(%s)" v
  | Ir.Sdim (v, 1) -> Fmt.pf ppf "rows(%s)" v
  | Ir.Sdim (v, 2) -> Fmt.pf ppf "cols(%s)" v
  | Ir.Sdim (v, _) -> Fmt.pf ppf "length(%s)" v

let rec eexpr ppf = function
  | Ir.Emat v -> Fmt.pf ppf "%s[i]" v
  | Ir.Eeye -> Fmt.pf ppf "eye[i]"
  | Ir.Escalar s -> sexpr ppf s
  | Ir.Ebin (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" eexpr a (Mlang.Ast.binop_name op) eexpr b
  | Ir.Eneg a -> Fmt.pf ppf "(-%a)" eexpr a
  | Ir.Enot a -> Fmt.pf ppf "(~%a)" eexpr a
  | Ir.Ecall1 (f, a) -> Fmt.pf ppf "%s(%a)" f eexpr a
  | Ir.Ecall2 (f, a, b) -> Fmt.pf ppf "%s(%a, %a)" f eexpr a eexpr b

let sel ppf = function
  | Ir.Sel_all -> Fmt.string ppf ":"
  | Ir.Sel_scalar s -> sexpr ppf s
  | Ir.Sel_range (a, None, b) -> Fmt.pf ppf "%a:%a" sexpr a sexpr b
  | Ir.Sel_range (a, Some st, b) ->
      Fmt.pf ppf "%a:%a:%a" sexpr a sexpr st sexpr b
  | Ir.Sel_vec v -> Fmt.pf ppf "<%s>" v

let fused ppf = function
  | Ir.Fsum m -> Fmt.pf ppf "sum(%s)" m
  | Ir.Fmean m -> Fmt.pf ppf "mean(%s)" m
  | Ir.Fdot (a, b) -> Fmt.pf ppf "dot(%s, %s)" a b
  | Ir.Fnorm m -> Fmt.pf ppf "norm(%s)" m

let print_arg ppf = function
  | Ir.Pscalar s -> sexpr ppf s
  | Ir.Pmat v -> Fmt.string ppf v
  | Ir.Pstr s -> Fmt.pf ppf "%S" s

let rec inst ~indent ppf (i : Ir.inst) =
  let pad ppf = Fmt.pf ppf "%s" (String.make indent ' ') in
  match i with
  | Ir.Iscalar (v, s) -> Fmt.pf ppf "%t%s = %a" pad v sexpr s
  | Ir.Ielem { dst; model; expr } ->
      Fmt.pf ppf "%t%s = elemwise[shape %s] %a" pad dst model eexpr expr
  | Ir.Icopy (d, s) -> Fmt.pf ppf "%t%s = copy %s" pad d s
  | Ir.Ilib { dst; fn; args } ->
      let k = match fn with Ir.Lshift k -> [ Fmt.str "%a" sexpr k ] | _ -> [] in
      Fmt.pf ppf "%t%s = %s(%s)" pad dst (lib_name fn)
        (String.concat ", " (args @ k))
  | Ir.Isort { vdst; idst = None; arg } ->
      Fmt.pf ppf "%t%s = sort(%s)" pad vdst arg
  | Ir.Isort { vdst; idst = Some i; arg } ->
      Fmt.pf ppf "%t[%s, %s] = sort(%s)" pad vdst i arg
  | Ir.Ireduce_loc { vdst; idst; kind; arg } ->
      Fmt.pf ppf "%t[%s, %s] = %s(%s)" pad vdst idst (rkind_name kind) arg
  | Ir.Ibcast (d, m, idx) ->
      Fmt.pf ppf "%t%s = broadcast %s(%a)" pad d m
        (Fmt.list ~sep:(Fmt.any ", ") sexpr)
        idx
  | Ir.Ibcast_batch (items, m) ->
      Fmt.pf ppf "%t[%a] = broadcast_batch %s{%a}" pad
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        (List.map fst items) m
        (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (_, idx) ->
             Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") sexpr) idx))
        items
  | Ir.Ireduce_fused items ->
      Fmt.pf ppf "%t[%a] = allreduce_fused[%a]" pad
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        (List.map fst items)
        (Fmt.list ~sep:(Fmt.any "; ") fused)
        (List.map snd items)
  | Ir.Isetelem (m, idx, v) ->
      Fmt.pf ppf "%tif owner: %s(%a) = %a" pad m
        (Fmt.list ~sep:(Fmt.any ", ") sexpr)
        idx sexpr v
  | Ir.Iload { dst; file } -> Fmt.pf ppf "%t%s = load(%S)" pad dst file
  | Ir.Iconstruct { dst; kind; args } ->
      Fmt.pf ppf "%t%s = %s(%a)" pad dst (ckind_name kind)
        (Fmt.list ~sep:(Fmt.any ", ") sexpr)
        args
  | Ir.Iliteral { dst; rows; cols; elems } ->
      Fmt.pf ppf "%t%s = literal %dx%d [%a]" pad dst rows cols
        (Fmt.list ~sep:(Fmt.any ", ") sexpr)
        elems
  | Ir.Isetsection { dst; sels; src } ->
      let arg ppf = function
        | Ir.Ascalar s -> sexpr ppf s
        | Ir.Amat v -> Fmt.string ppf v
      in
      Fmt.pf ppf "%tif owner: %s(%a) = %a" pad dst
        (Fmt.list ~sep:(Fmt.any ", ") sel)
        sels arg src
  | Ir.Iconcat { dst; grid_rows; grid_cols; parts } ->
      Fmt.pf ppf "%t%s = concat %dx%d [%a]" pad dst grid_rows grid_cols
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        parts
  | Ir.Isection { dst; src; sels } ->
      Fmt.pf ppf "%t%s = section %s(%a)" pad dst src
        (Fmt.list ~sep:(Fmt.any ", ") sel)
        sels
  | Ir.Icalluser { rets; name; args } ->
      let arg ppf = function
        | Ir.Ascalar s -> sexpr ppf s
        | Ir.Amat v -> Fmt.string ppf v
      in
      Fmt.pf ppf "%t[%a] = call %s(%a)" pad
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        rets name
        (Fmt.list ~sep:(Fmt.any ", ") arg)
        args
  | Ir.Impi_rank d -> Fmt.pf ppf "%t%s = mpi_rank()" pad d
  | Ir.Impi_size d -> Fmt.pf ppf "%t%s = mpi_size()" pad d
  | Ir.Impi_send (dest, tag, v) ->
      let arg ppf = function
        | Ir.Ascalar s -> sexpr ppf s
        | Ir.Amat m -> Fmt.string ppf m
      in
      Fmt.pf ppf "%tmpi_send(dest=%a, tag=%a, %a)" pad sexpr dest sexpr tag
        arg v
  | Ir.Impi_recv (d, src, tag, is_mat) ->
      Fmt.pf ppf "%t%s = mpi_recv(src=%a, tag=%a)%s" pad d sexpr src sexpr tag
        (if is_mat then " [matrix]" else "")
  | Ir.Impi_bcast (d, root, v) ->
      let arg ppf = function
        | Ir.Ascalar s -> sexpr ppf s
        | Ir.Amat m -> Fmt.string ppf m
      in
      Fmt.pf ppf "%t%s = mpi_bcast(root=%a, %a)" pad d sexpr root arg v
  | Ir.Impi_probe (d, src, tag) ->
      Fmt.pf ppf "%t%s = mpi_probe(src=%a, tag=%a)" pad d sexpr src sexpr tag
  | Ir.Iprint (name, a) -> Fmt.pf ppf "%tprint %s %a" pad name print_arg a
  | Ir.Iprintf args ->
      Fmt.pf ppf "%tprintf(%a)" pad (Fmt.list ~sep:(Fmt.any ", ") sexpr) args
  | Ir.Ierror msg -> Fmt.pf ppf "%terror %S" pad msg
  | Ir.Iif (branches, els) ->
      List.iteri
        (fun n (c, b) ->
          Fmt.pf ppf "%t%s %a@\n%a" pad
            (if n = 0 then "if" else "elseif")
            sexpr c (block ~indent:(indent + 2)) b)
        branches;
      if els <> [] then
        Fmt.pf ppf "%telse@\n%a" pad (block ~indent:(indent + 2)) els;
      Fmt.pf ppf "%tend" pad
  | Ir.Iwhile (c, b) ->
      Fmt.pf ppf "%twhile %a@\n%a%tend" pad sexpr c
        (block ~indent:(indent + 2))
        b pad
  | Ir.Ifor (v, a, st, b, body) ->
      (match st with
      | None -> Fmt.pf ppf "%tfor %s = %a:%a" pad v sexpr a sexpr b
      | Some st -> Fmt.pf ppf "%tfor %s = %a:%a:%a" pad v sexpr a sexpr st sexpr b);
      Fmt.pf ppf "@\n%a%tend" (block ~indent:(indent + 2)) body pad
  | Ir.Ibreak -> Fmt.pf ppf "%tbreak" pad
  | Ir.Icontinue -> Fmt.pf ppf "%tcontinue" pad
  | Ir.Ireturn -> Fmt.pf ppf "%treturn" pad

and block ~indent ppf (b : Ir.block) =
  List.iter (fun i -> Fmt.pf ppf "%a@\n" (inst ~indent) i) b

let prog ppf (p : Ir.prog) =
  Fmt.pf ppf "-- variables --@\n";
  List.iter
    (fun (v, t) -> Fmt.pf ppf "  %s : %a@\n" v Analysis.Ty.pp t)
    p.Ir.p_vars;
  Fmt.pf ppf "-- script --@\n%a" (block ~indent:0) p.Ir.p_body;
  List.iter
    (fun (f : Ir.func) ->
      Fmt.pf ppf "-- function %s(%a) -> [%a] --@\n%a" f.f_name
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, _) -> Fmt.string ppf v))
        f.f_params
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (v, _) -> Fmt.string ppf v))
        f.f_rets (block ~indent:0) f.f_body)
    p.Ir.p_funcs

let prog_to_string p = Fmt.str "%a" prog p
