(* Pretty-printing of the AST back to MATLAB concrete syntax.

   [expr] inserts parentheses wherever the operator nesting requires
   them, so print-then-reparse yields a structurally equal tree (the
   round-trip property checked by the test suite). *)

let prec_of_binop = function
  | Ast.Shortor -> 1
  | Ast.Shortand -> 2
  | Ast.Or -> 3
  | Ast.And -> 4
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> 5
  | Ast.Add | Ast.Sub -> 7
  | Ast.Mul | Ast.Div | Ast.Ldiv | Ast.Emul | Ast.Ediv | Ast.Eldiv -> 8
  | Ast.Pow | Ast.Epow -> 10

let prec_range = 6
let prec_unary = 9
let prec_postfix = 11

let rec expr_prec ppf (prec, e) =
  let open Ast in
  let wrap p body =
    if p < prec then Fmt.pf ppf "(%t)" body else body ppf
  in
  match e.node with
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Fmt.pf ppf "%.0f" f
      else Fmt.pf ppf "%.17g" f
  | Str s ->
      let escaped = String.concat "''" (String.split_on_char '\'' s) in
      Fmt.pf ppf "'%s'" escaped
  | Ident name | Varref name -> Fmt.string ppf name
  | Colon -> Fmt.string ppf ":"
  | End_marker -> Fmt.string ppf "end"
  | Binop (op, a, b) ->
      let p = prec_of_binop op in
      wrap p (fun ppf ->
          Fmt.pf ppf "%a %s %a" expr_prec (p, a) (binop_name op) expr_prec
            (p + 1, b))
  | Unop ((Transpose | Ctranspose) as op, a) ->
      wrap prec_postfix (fun ppf ->
          Fmt.pf ppf "%a%s" expr_prec (prec_postfix, a) (unop_name op))
  | Unop (op, a) ->
      wrap prec_unary (fun ppf ->
          Fmt.pf ppf "%s%a" (unop_name op) expr_prec (prec_unary, a))
  | Range (a, None, b) ->
      wrap prec_range (fun ppf ->
          Fmt.pf ppf "%a:%a" expr_prec
            (prec_range + 1, a)
            expr_prec
            (prec_range + 1, b))
  | Range (a, Some step, b) ->
      wrap prec_range (fun ppf ->
          Fmt.pf ppf "%a:%a:%a" expr_prec
            (prec_range + 1, a)
            expr_prec
            (prec_range + 1, step)
            expr_prec
            (prec_range + 1, b))
  | Apply (name, args) | Call (name, args) | Index (name, args) ->
      Fmt.pf ppf "%s(%a)" name
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf a -> expr_prec ppf (0, a)))
        args
  | Matrix rows ->
      let pp_row ppf row =
        Fmt.list ~sep:(Fmt.any ", ") (fun ppf a -> expr_prec ppf (0, a)) ppf row
      in
      Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp_row) rows

and binop_name op = Ast.binop_name op
and unop_name op = Ast.unop_name op

let expr ppf e = expr_prec ppf (0, e)

let lhs ppf (l : Ast.lhs) =
  match l.lv_indices with
  | None -> Fmt.string ppf l.lv_name
  | Some args ->
      Fmt.pf ppf "%s(%a)" l.lv_name (Fmt.list ~sep:(Fmt.any ", ") expr) args

let rec stmt ?(indent = 0) ppf (s : Ast.stmt) =
  let pad ppf = Fmt.pf ppf "%s" (String.make indent ' ') in
  let semi display = if display then "" else ";" in
  match s.sdesc with
  | Assign (l, e, display) ->
      Fmt.pf ppf "%t%a = %a%s" pad lhs l expr e (semi display)
  | Multi_assign (ls, e, display) ->
      Fmt.pf ppf "%t[%a] = %a%s" pad
        (Fmt.list ~sep:(Fmt.any ", ") lhs)
        ls expr e (semi display)
  | Expr (e, display) -> Fmt.pf ppf "%t%a%s" pad expr e (semi display)
  | If (branches, els) ->
      List.iteri
        (fun i (c, b) ->
          Fmt.pf ppf "%t%s %a@\n%a" pad
            (if i = 0 then "if" else "elseif")
            expr c (block ~indent:(indent + 2)) b)
        branches;
      if els <> [] then
        Fmt.pf ppf "%telse@\n%a" pad (block ~indent:(indent + 2)) els;
      Fmt.pf ppf "%tend" pad
  | While (c, b) ->
      Fmt.pf ppf "%twhile %a@\n%a%tend" pad expr c
        (block ~indent:(indent + 2))
        b pad
  | For (v, e, b) ->
      Fmt.pf ppf "%tfor %s = %a@\n%a%tend" pad v expr e
        (block ~indent:(indent + 2))
        b pad
  | Break -> Fmt.pf ppf "%tbreak" pad
  | Continue -> Fmt.pf ppf "%tcontinue" pad
  | Return -> Fmt.pf ppf "%treturn" pad

and block ?(indent = 0) ppf (b : Ast.block) =
  List.iter (fun s -> Fmt.pf ppf "%a@\n" (stmt ~indent) s) b

let func ppf (f : Ast.func) =
  let pp_rets ppf = function
    | [] -> ()
    | [ r ] -> Fmt.pf ppf "%s = " r
    | rs -> Fmt.pf ppf "[%a] = " (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) rs
  in
  Fmt.pf ppf "function %a%s(%a)@\n%a%s" pp_rets f.returns f.fname
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    f.params (block ~indent:2) f.fbody "end"

let program ppf (p : Ast.program) =
  block ppf p.script;
  List.iter (fun f -> Fmt.pf ppf "@\n%a@\n" func f) p.funcs

let expr_to_string e = Fmt.str "%a" expr e

(* --- annotated dump ------------------------------------------------------ *)

(* [annotated_program_to_string] renders the tree one node per line,
   children indented two spaces, each node followed by the type/shape
   that inference wrote into its annotation and, where the frame/cell
   broadcasting rule lifts a lower-ranked operand, the number of frame
   axes lifted over.  This is the [otterc dump --ast] format; the
   golden tests pin it exactly. *)

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Fmt.str "%.0f" f
  else Fmt.str "%.17g" f

let ann_to_string (a : Ast.ann) =
  let frame = if a.frame > 0 then Fmt.str " [frame-lift %d]" a.frame else "" in
  Fmt.str " : %a%s" Ty.pp_vt a.ty frame

let rec dump_expr buf indent (e : Ast.expr) =
  let pad = String.make indent ' ' in
  let line label kids =
    Buffer.add_string buf (Fmt.str "%s%s%s\n" pad label (ann_to_string e.ann));
    List.iter (dump_expr buf (indent + 2)) kids
  in
  match e.node with
  | Ast.Num f -> line (Fmt.str "Num %s" (num_to_string f)) []
  | Ast.Str s -> line (Fmt.str "Str '%s'" s) []
  | Ast.Ident name -> line (Fmt.str "Ident %s" name) []
  | Ast.Varref name -> line (Fmt.str "Varref %s" name) []
  | Ast.Colon -> line "Colon" []
  | Ast.End_marker -> line "End" []
  | Ast.Binop (op, a, b) ->
      line (Fmt.str "Binop %s" (Ast.binop_name op)) [ a; b ]
  | Ast.Unop (op, a) -> line (Fmt.str "Unop %s" (Ast.unop_name op)) [ a ]
  | Ast.Range (a, None, b) -> line "Range" [ a; b ]
  | Ast.Range (a, Some step, b) -> line "Range" [ a; step; b ]
  | Ast.Apply (name, args) -> line (Fmt.str "Apply %s" name) args
  | Ast.Call (name, args) -> line (Fmt.str "Call %s" name) args
  | Ast.Index (name, args) -> line (Fmt.str "Index %s" name) args
  | Ast.Matrix rows ->
      let cols = match rows with row :: _ -> List.length row | [] -> 0 in
      line (Fmt.str "Matrix %dx%d" (List.length rows) cols) (List.concat rows)

let rec dump_stmt buf indent (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  let line label = Buffer.add_string buf (Fmt.str "%s%s\n" pad label) in
  match s.sdesc with
  | Ast.Assign (l, e, _) ->
      (match l.lv_indices with
      | None -> line (Fmt.str "Assign %s" l.lv_name)
      | Some args ->
          line (Fmt.str "Assign %s(...)" l.lv_name);
          List.iter (dump_expr buf (indent + 2)) args);
      dump_expr buf (indent + 2) e
  | Ast.Multi_assign (ls, e, _) ->
      line
        (Fmt.str "Multi_assign [%s]"
           (String.concat ", " (List.map (fun l -> l.Ast.lv_name) ls)));
      List.iter
        (fun l ->
          Option.iter (List.iter (dump_expr buf (indent + 2))) l.Ast.lv_indices)
        ls;
      dump_expr buf (indent + 2) e
  | Ast.Expr (e, _) ->
      line "Expr";
      dump_expr buf (indent + 2) e
  | Ast.If (branches, els) ->
      List.iteri
        (fun i (c, b) ->
          line (if i = 0 then "If" else "Elseif");
          dump_expr buf (indent + 2) c;
          List.iter (dump_stmt buf (indent + 2)) b)
        branches;
      if els <> [] then begin
        line "Else";
        List.iter (dump_stmt buf (indent + 2)) els
      end
  | Ast.While (c, b) ->
      line "While";
      dump_expr buf (indent + 2) c;
      List.iter (dump_stmt buf (indent + 2)) b
  | Ast.For (v, e, b) ->
      line (Fmt.str "For %s" v);
      dump_expr buf (indent + 2) e;
      List.iter (dump_stmt buf (indent + 2)) b
  | Ast.Break -> line "Break"
  | Ast.Continue -> line "Continue"
  | Ast.Return -> line "Return"

let annotated_program_to_string (p : Ast.program) =
  let buf = Buffer.create 1024 in
  List.iter (dump_stmt buf 0) p.script;
  List.iter
    (fun (f : Ast.func) ->
      Buffer.add_string buf
        (Fmt.str "Function %s(%s) -> [%s]\n" f.fname
           (String.concat ", " f.params)
           (String.concat ", " f.returns));
      List.iter (dump_stmt buf 2) f.fbody)
    p.funcs;
  Buffer.contents buf
