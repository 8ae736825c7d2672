(* Abstract syntax for the MATLAB subset accepted by Otter.

   The expression tree is in Remora-style delayed-recursion form: the
   shape functor ['e expr_f] fixes what a node may contain without
   fixing what a subexpression is, and ['a annotated] ties the knot
   while threading an annotation of type ['a] through every node.  The
   compiler instantiates the annotation with [ann] — source position, a
   unique id, and mutable type/frame slots — so the analysis passes
   write their facts directly onto the tree instead of keeping parallel
   side tables keyed by node id.

   Copies made with [{ e with node = ... }] share the annotation record
   and therefore denote the *same* value as the original (SSA renaming
   and name resolution rely on this: a fact attached to either copy is
   visible through both).  Copies that denote a new computation must be
   rebuilt with [mk], which allocates a fresh annotation. *)

type binop =
  | Add
  | Sub
  | Mul (* matrix multiply *)
  | Div (* matrix right divide *)
  | Ldiv (* matrix left divide *)
  | Pow (* matrix power *)
  | Emul (* .* *)
  | Ediv (* ./ *)
  | Eldiv (* .\ *)
  | Epow (* .^ *)
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And (* & element-wise *)
  | Or (* | element-wise *)
  | Shortand (* && *)
  | Shortor (* || *)

type unop = Neg | Uplus | Not | Transpose (* .' *) | Ctranspose (* ' *)

(* One layer of expression structure; ['e] stands for a subexpression. *)
type 'e expr_f =
  | Num of float
  | Str of string
  | Ident of string (* unresolved name (variable or function) *)
  | Varref of string (* resolved variable reference *)
  | Colon (* bare ':' used as an index *)
  | End_marker (* 'end' used inside an index expression *)
  | Binop of binop * 'e * 'e
  | Unop of unop * 'e
  | Range of 'e * 'e option * 'e (* start : step? : stop *)
  | Apply of string * 'e list (* unresolved name(args) *)
  | Call of string * 'e list (* resolved function call *)
  | Index of string * 'e list (* resolved variable indexing *)
  | Matrix of 'e list list (* [e, e; e, e] rows of elements *)

(* The knot: an annotated tree whose every node carries an ['a]. *)
type 'a annotated = { ann : 'a; node : 'a annotated expr_f }

(* The compiler's concrete annotation.  [ty] is written by type
   inference (joined monotonically across fixpoint passes); [frame] is
   the number of leading (frame) axes a lower-ranked operand is lifted
   over at this node under the frame/cell broadcasting rule — 0 means
   no lift. *)
type ann = {
  pos : Source.pos;
  id : int;
  mutable ty : Ty.vt;
  mutable frame : int;
}

type expr = ann annotated

type lhs = {
  lv_name : string;
  lv_indices : expr list option; (* Some args for a(i,j) = ... *)
  lv_pos : Source.pos;
}

type stmt = { sdesc : sdesc; spos : Source.pos; sid : int }

and sdesc =
  | Assign of lhs * expr * bool (* display result (no ';')? *)
  | Multi_assign of lhs list * expr * bool (* [a, b] = f(...) *)
  | Expr of expr * bool
  | If of (expr * block) list * block (* branches, else-block *)
  | While of expr * block
  | For of string * expr * block
  | Break
  | Continue
  | Return

and block = stmt list

type func = {
  fname : string;
  params : string list;
  returns : string list;
  fbody : block;
}

type program = { script : block; funcs : func list }

let counter = ref 0

let fresh_id () =
  incr counter;
  !counter

let mk_ann ?(pos = Source.no_pos) () =
  { pos; id = fresh_id (); ty = Ty.Bottom; frame = 0 }

let mk ?pos node = { ann = mk_ann ?pos (); node }
let mk_stmt ?(pos = Source.no_pos) sdesc = { sdesc; spos = pos; sid = fresh_id () }

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Ldiv -> "\\"
  | Pow -> "^"
  | Emul -> ".*"
  | Ediv -> "./"
  | Eldiv -> ".\\"
  | Epow -> ".^"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "~="
  | And -> "&"
  | Or -> "|"
  | Shortand -> "&&"
  | Shortor -> "||"

let unop_name = function
  | Neg -> "-"
  | Uplus -> "+"
  | Not -> "~"
  | Transpose -> ".'"
  | Ctranspose -> "'"

(* [is_elementwise op] holds for operators applied independently to each
   element of their (conformable) operands; these never require
   interprocessor communication on identically distributed matrices. *)
let is_elementwise = function
  | Add | Sub | Emul | Ediv | Eldiv | Epow | Lt | Le | Gt | Ge | Eq | Ne | And
  | Or ->
      true
  | Mul | Div | Ldiv | Pow | Shortand | Shortor -> false

(* Structural fold over all expressions of a block, used by analyses. *)
let rec iter_exprs_expr f e =
  f e;
  match e.node with
  | Num _ | Str _ | Ident _ | Varref _ | Colon | End_marker -> ()
  | Binop (_, a, b) ->
      iter_exprs_expr f a;
      iter_exprs_expr f b
  | Unop (_, a) -> iter_exprs_expr f a
  | Range (a, step, b) ->
      iter_exprs_expr f a;
      Option.iter (iter_exprs_expr f) step;
      iter_exprs_expr f b
  | Apply (_, args) | Call (_, args) | Index (_, args) ->
      List.iter (iter_exprs_expr f) args
  | Matrix rows -> List.iter (List.iter (iter_exprs_expr f)) rows

let rec iter_exprs_stmt f s =
  match s.sdesc with
  | Assign (lhs, e, _) ->
      Option.iter (List.iter (iter_exprs_expr f)) lhs.lv_indices;
      iter_exprs_expr f e
  | Multi_assign (lhss, e, _) ->
      List.iter
        (fun l -> Option.iter (List.iter (iter_exprs_expr f)) l.lv_indices)
        lhss;
      iter_exprs_expr f e
  | Expr (e, _) -> iter_exprs_expr f e
  | If (branches, els) ->
      List.iter
        (fun (c, b) ->
          iter_exprs_expr f c;
          List.iter (iter_exprs_stmt f) b)
        branches;
      List.iter (iter_exprs_stmt f) els
  | While (c, b) ->
      iter_exprs_expr f c;
      List.iter (iter_exprs_stmt f) b
  | For (_, e, b) ->
      iter_exprs_expr f e;
      List.iter (iter_exprs_stmt f) b
  | Break | Continue | Return -> ()

let iter_exprs f block = List.iter (iter_exprs_stmt f) block
