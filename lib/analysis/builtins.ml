(* Registry of the built-in MATLAB functions Otter implements.

   Each builtin carries a classification used by the expression-rewriting
   pass (does a call become an element-wise loop, a reduction needing an
   allreduce, a constructor, ...) and a type rule used by inference.
   An element-wise builtin's kind also carries its scalar function and
   its C name: the interpreter, tcode and the constant folder all call
   that function, and the C back end calls that name.
   Type rules operate on abstract values: a type plus, for scalars, an
   optional compile-time constant -- constants feed shape inference
   (e.g. [n = 2048; zeros(n, 1)] yields a known 2048x1 shape). *)

type aval = { aty : Ty.t; aconst : float option }

let of_ty aty = { aty; aconst = None }
let const_int n = { aty = Ty.int_scalar; aconst = Some (float_of_int n) }
let const_real f = { aty = Ty.real_scalar; aconst = Some f }

(* What a reduction combines (the IR carries the same type). *)
type red = Rsum | Rprod | Rmin | Rmax | Rmean | Rany | Rall

(* What a cumulative scan combines. *)
type scan = Scumsum | Scumprod

type kind =
  | Map1 of (float -> float) * string
      (* element-wise unary: the scalar function and its C name *)
  | Map2 of (float -> float -> float) * string
      (* element-wise binary: the scalar function and its C name *)
  | Reduce of red (* reduction: vector -> scalar, matrix -> row vector *)
  | Scan of scan (* cumulative sum/product along a vector *)
  | Norm (* norm(v): the 2-norm of a vector *)
  | Dot (* dot(u, v) *)
  | Minmax of (float -> float -> float) * string * red
      (* reduction ([Rmin]/[Rmax]) with 1 arg; element-wise with 2, as
         [Map2] *)
  | Constructor of string (* zeros, ones, eye, rand, linspace *)
  | Query of string (* size, length, numel *)
  | Trapz (* trapezoidal integration *)
  | Shift (* circshift *)
  | Output of string (* disp, fprintf *)
  | Constant of float (* pi, eps *)
  | Error_fn (* error('message') *)
  | Load (* load('file.txt'): matrix from a whitespace-separated file *)
  | Repmat (* repmat(A, r, c): tile a matrix *)
  | Sort (* sort(v): ascending sort, optional index output *)
  | Diag (* diag(v): vector -> diagonal matrix; matrix -> diagonal vector *)
  | Mpi of mpi_op (* MatlabMPI-style explicit message passing *)

and mpi_op =
  | Mrank (* MPI_Comm_rank() *)
  | Msize (* MPI_Comm_size() *)
  | Msend (* MPI_Send(dest, tag, value) *)
  | Mrecv (* MPI_Recv(source, tag) *)
  | Mbcast (* MPI_Bcast(root, value) *)
  | Mprobe (* MPI_Probe(source, tag) *)

type t = {
  name : string;
  kind : kind;
  min_args : int;
  max_args : int; (* max_int for variadic *)
  infer : aval list -> Mlang.Source.pos -> aval;
}

(* --- type-rule helpers ------------------------------------------------ *)

let dim_of_arg (a : aval) =
  match a.aconst with
  | Some f when f >= 0. && Float.is_integer f -> Ty.Dconst (int_of_float f)
  | Some _ | None -> Ty.Dunknown

(* All the dimensions of a value, leading (frame) axes first; None when
   the value is a scalar (whose dims are trivially 1). *)
let all_dims (t : Ty.t) =
  match t.Ty.rank with
  | Ty.Rscalar -> None
  | Ty.Rmatrix -> Some [ t.Ty.shape.Ty.rows; t.Ty.shape.Ty.cols ]
  | Ty.Rtensor outer -> Some (outer @ [ t.Ty.shape.Ty.rows; t.Ty.shape.Ty.cols ])

let const_dims dims =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Ty.Dconst n :: rest -> go (n :: acc) rest
    | Ty.Dunknown :: _ -> None
  in
  go [] dims

(* Builtins whose lowering has no tensor path reject tensor arguments at
   compile time rather than failing inside an engine. *)
let no_tensor name args pos =
  List.iter
    (fun a ->
      if Ty.is_tensor a.aty then
        Mlang.Source.error pos "%s of a tensor is not supported" name)
    args

let fold1 f (a : aval) base =
  let aconst =
    match a.aconst with
    | Some x when a.aty.Ty.rank = Ty.Rscalar -> Some (f x)
    | Some _ | None -> None
  in
  { aty = { a.aty with Ty.base }; aconst }

(* Unary element-wise rule: result has the argument's rank and shape. *)
let map1_rule ?(result_base = fun _ -> Ty.Real) f args pos =
  match args with
  | [ a ] -> fold1 f a (result_base a.aty.Ty.base)
  | _ -> Mlang.Source.error pos "wrong number of arguments"

let preserve_int_base = function Ty.Integer -> Ty.Integer | b -> b

let map2_rule f args pos =
  match args with
  | [ a; b ] ->
      let ty =
        Ty.elementwise_result
          (fun x y -> preserve_int_base (Ty.join_base x y))
          a.aty b.aty
      in
      let aconst =
        match (a.aconst, b.aconst, ty.Ty.rank) with
        | Some x, Some y, Ty.Rscalar -> Some (f x y)
        | _ -> None
      in
      { aty = ty; aconst }
  | _ -> Mlang.Source.error pos "wrong number of arguments"

(* Reduction rule: vector -> scalar; matrix -> 1 x cols row vector.
   A matrix of unknown shape is optimistically treated as a vector, a
   choice the run time checks. *)
let reduce_rule ?(result_base = fun b -> b) args pos =
  match args with
  | [ a ] ->
      let base = result_base a.aty.Ty.base in
      if Ty.is_scalar a.aty then { aty = Ty.scalar base; aconst = a.aconst }
      else if Ty.is_tensor a.aty then
        (* tensors reduce fully to a scalar (documented divergence from
           MATLAB's dim-1 reduction) *)
        of_ty (Ty.scalar base)
      else if Ty.is_vector a.aty || a.aty.Ty.shape = Ty.unknown_shape then
        of_ty (Ty.scalar base)
      else
        of_ty
          (Ty.matrix ~shape:{ Ty.rows = Ty.Dconst 1; cols = a.aty.Ty.shape.Ty.cols }
             base)
  | _ -> Mlang.Source.error pos "reduction takes one argument"

let constructor_rule ~square ~base args _pos =
  match args with
  | [] -> of_ty (Ty.scalar base)
  | [ n ] ->
      let d = dim_of_arg n in
      let shape =
        if square then { Ty.rows = d; cols = d }
        else { Ty.rows = Ty.Dconst 1; cols = d }
      in
      of_ty (Ty.matrix ~shape base)
  | [ r; c ] ->
      of_ty (Ty.matrix ~shape:{ Ty.rows = dim_of_arg r; cols = dim_of_arg c } base)
  | [ p; r; c ] ->
      (* three size arguments build a rank-3 tensor: pages x rows x cols *)
      of_ty
        (Ty.tensor ~outer:[ dim_of_arg p ]
           ~shape:{ Ty.rows = dim_of_arg r; cols = dim_of_arg c }
           base)
  | _ -> of_ty (Ty.matrix base)

let int_scalar_rule _args _pos = of_ty Ty.int_scalar

let table : (string, t) Hashtbl.t = Hashtbl.create 64

let register name kind min_args max_args infer =
  Hashtbl.replace table name { name; kind; min_args; max_args; infer }

let () =
  let real_of _ = Ty.Real in
  let keep b = b in
  (* element-wise: one line per builtin gives the scalar function, the
     C back end's name for it and the constant folder *)
  let map1 ?(result_base = real_of) name c f =
    register name (Map1 (f, c)) 1 1 (map1_rule ~result_base f)
  and map2 name c f = register name (Map2 (f, c)) 2 2 (map2_rule f) in
  let to_int _ = Ty.Integer in
  map1 "abs" "fabs" Float.abs ~result_base:keep;
  map1 "sqrt" "sqrt" sqrt;
  map1 "exp" "exp" exp;
  map1 "log" "log" log;
  map1 "log10" "log10" log10;
  map1 "log2" "ML_log2" (fun x -> log x /. log 2.);
  map1 "sin" "sin" sin;
  map1 "cos" "cos" cos;
  map1 "tan" "tan" tan;
  map1 "asin" "asin" asin;
  map1 "acos" "acos" acos;
  map1 "atan" "atan" atan;
  map1 "tanh" "tanh" tanh;
  map1 "cosh" "cosh" cosh;
  map1 "sinh" "sinh" sinh;
  map1 "floor" "floor" floor ~result_base:to_int;
  map1 "ceil" "ceil" ceil ~result_base:to_int;
  map1 "round" "ML_round" Float.round ~result_base:to_int;
  map1 "fix" "ML_fix" Float.trunc ~result_base:to_int;
  map1 "sign" "ML_sign" ~result_base:to_int (fun x ->
      if x > 0. then 1. else if x < 0. then -1. else 0.);
  (* the identity: the C back end emits no call *)
  map1 "double" "" (fun x -> x);
  map2 "mod" "ML_mod" (fun a b ->
      if b = 0. then a else a -. (b *. Float.floor (a /. b)));
  map2 "rem" "ML_rem" (fun a b -> if b = 0. then a else Float.rem a b);
  map2 "atan2" "atan2" atan2;
  map2 "hypot" "hypot" Float.hypot;
  map2 "power" "pow" Float.pow;
  (* reductions *)
  register "sum" (Reduce Rsum) 1 1 (reduce_rule ~result_base:keep);
  register "cumsum" (Scan Scumsum) 1 1 (fun args pos ->
      no_tensor "cumsum" args pos;
      match args with
      | [ a ] -> { a with aconst = None }
      | _ -> Mlang.Source.error pos "cumsum takes one argument");
  register "cumprod" (Scan Scumprod) 1 1 (fun args pos ->
      no_tensor "cumprod" args pos;
      match args with
      | [ a ] -> { a with aconst = None }
      | _ -> Mlang.Source.error pos "cumprod takes one argument");
  register "prod" (Reduce Rprod) 1 1 (reduce_rule ~result_base:keep);
  register "mean" (Reduce Rmean) 1 1 (reduce_rule ~result_base:real_of);
  register "norm" Norm 1 1 (fun args pos ->
      no_tensor "norm" args pos;
      ignore (reduce_rule args pos);
      of_ty Ty.real_scalar);
  register "any" (Reduce Rany) 1 1 (fun _ _ -> of_ty Ty.int_scalar);
  register "all" (Reduce Rall) 1 1 (fun _ _ -> of_ty Ty.int_scalar);
  register "dot" Dot 2 2 (fun args pos ->
      no_tensor "dot" args pos;
      of_ty Ty.real_scalar);
  let minmax name c f red =
    register name (Minmax (f, c, red)) 1 2 (fun args pos ->
        match args with
        | [ _ ] -> reduce_rule ~result_base:keep args pos
        | _ -> map2_rule f args pos)
  in
  minmax "min" "ML_min2" Float.min Rmin;
  minmax "max" "ML_max2" Float.max Rmax;
  (* constructors *)
  register "zeros" (Constructor "zeros") 0 3
    (constructor_rule ~square:true ~base:Ty.Real);
  register "ones" (Constructor "ones") 0 3
    (constructor_rule ~square:true ~base:Ty.Real);
  register "rand" (Constructor "rand") 0 3
    (constructor_rule ~square:true ~base:Ty.Real);
  register "randn" (Constructor "randn") 0 3
    (constructor_rule ~square:true ~base:Ty.Real);
  register "eye" (Constructor "eye") 1 2
    (constructor_rule ~square:true ~base:Ty.Real);
  register "linspace" (Constructor "linspace") 3 3 (fun args pos ->
      match args with
      | [ _; _; n ] ->
          of_ty
            (Ty.matrix
               ~shape:{ Ty.rows = Ty.Dconst 1; cols = dim_of_arg n }
               Ty.Real)
      | _ -> Mlang.Source.error pos "linspace takes three arguments");
  (* queries *)
  register "size" (Query "size") 1 2 (fun args _ ->
      match args with
      | [ a ] ->
          let n = max 2 (Ty.total_rank a.aty) in
          of_ty
            (Ty.matrix
               ~shape:{ Ty.rows = Ty.Dconst 1; cols = Ty.Dconst n }
               Ty.Integer)
      | _ -> of_ty Ty.int_scalar);
  register "length" (Query "length") 1 1 (fun args _ ->
      match args with
      | [ a ] -> (
          match all_dims a.aty with
          | None -> const_int 1
          | Some dims -> (
              match const_dims dims with
              | Some ns -> const_int (List.fold_left max 0 ns)
              | None -> of_ty Ty.int_scalar))
      | _ -> of_ty Ty.int_scalar);
  register "numel" (Query "numel") 1 1 (fun args _ ->
      match args with
      | [ a ] -> (
          match all_dims a.aty with
          | None -> const_int 1
          | Some dims -> (
              match const_dims dims with
              | Some ns -> const_int (List.fold_left ( * ) 1 ns)
              | None -> of_ty Ty.int_scalar))
      | _ -> of_ty Ty.int_scalar);
  (* communication-bearing library functions *)
  register "trapz" Trapz 1 2 (fun args pos ->
      no_tensor "trapz" args pos;
      of_ty Ty.real_scalar);
  register "circshift" Shift 2 2 (fun args pos ->
      no_tensor "circshift" args pos;
      match args with
      | [ a; _ ] -> of_ty a.aty
      | _ -> Mlang.Source.error pos "circshift takes two arguments");
  (* output and diagnostics *)
  register "disp" (Output "disp") 1 1 int_scalar_rule;
  register "fprintf" (Output "fprintf") 1 max_int int_scalar_rule;
  register "error" Error_fn 1 1 int_scalar_rule;
  register "repmat" Repmat 3 3 (fun args pos ->
      no_tensor "repmat" args pos;
      match args with
      | [ a; r; c ] -> (
          match (dim_of_arg r, dim_of_arg c, a.aty.Ty.rank) with
          | Ty.Dconst rr, Ty.Dconst cc, Ty.Rscalar ->
              of_ty
                (Ty.matrix
                   ~shape:{ Ty.rows = Ty.Dconst rr; cols = Ty.Dconst cc }
                   a.aty.Ty.base)
          | Ty.Dconst rr, Ty.Dconst cc, Ty.Rmatrix -> (
              match a.aty.Ty.shape with
              | { Ty.rows = Ty.Dconst m; cols = Ty.Dconst n } ->
                  of_ty
                    (Ty.matrix
                       ~shape:{ Ty.rows = Ty.Dconst (rr * m); cols = Ty.Dconst (cc * n) }
                       a.aty.Ty.base)
              | _ -> of_ty (Ty.matrix a.aty.Ty.base))
          | _ -> of_ty (Ty.matrix a.aty.Ty.base))
      | _ -> Mlang.Source.error pos "repmat takes three arguments");
  register "sort" Sort 1 1 (fun args pos ->
      no_tensor "sort" args pos;
      match args with
      | [ a ] -> { a with aconst = None }
      | _ -> Mlang.Source.error pos "sort takes one argument");
  register "diag" Diag 1 1 (fun args pos ->
      no_tensor "diag" args pos;
      match args with
      | [ a ] -> (
          (* vector -> square matrix with the vector on the diagonal;
             matrix -> main diagonal as a column vector; scalar -> 1x1 *)
          match (a.aty.Ty.rank, a.aty.Ty.shape) with
          | Ty.Rscalar, _ -> { a with aconst = a.aconst }
          | Ty.Rmatrix, { Ty.rows = Ty.Dconst 1; cols = d }
          | Ty.Rmatrix, { Ty.rows = d; cols = Ty.Dconst 1 } ->
              of_ty (Ty.matrix ~shape:{ Ty.rows = d; cols = d } a.aty.Ty.base)
          | Ty.Rmatrix, { Ty.rows = Ty.Dconst r; cols = Ty.Dconst c } ->
              of_ty
                (Ty.matrix
                   ~shape:{ Ty.rows = Ty.Dconst (min r c); cols = Ty.Dconst 1 }
                   a.aty.Ty.base)
          | Ty.Rmatrix, _ -> of_ty (Ty.matrix a.aty.Ty.base)
          | Ty.Rtensor _, _ -> assert false (* rejected by no_tensor *))
      | _ -> Mlang.Source.error pos "diag takes one argument");
  (* external file input; the real type rule runs in Infer, which has
     the data directory and the literal filename *)
  register "load" Load 1 1 (fun _ _ -> of_ty Ty.real_matrix);
  (* explicit message passing (MatlabMPI-style).  The Recv type rule is
     a placeholder: Infer joins the types of every Send/Bcast that can
     reach a tag and overrides it. *)
  register "MPI_Comm_rank" (Mpi Mrank) 0 0 int_scalar_rule;
  register "MPI_Comm_size" (Mpi Msize) 0 0 int_scalar_rule;
  register "MPI_Send" (Mpi Msend) 3 3 (fun args pos ->
      no_tensor "MPI_Send" args pos;
      int_scalar_rule args pos);
  register "MPI_Recv" (Mpi Mrecv) 2 2 (fun _ _ -> of_ty Ty.real_matrix);
  register "MPI_Bcast" (Mpi Mbcast) 2 2 (fun args pos ->
      no_tensor "MPI_Bcast" args pos;
      match args with
      | [ _; v ] -> { v with aconst = None }
      | _ -> Mlang.Source.error pos "MPI_Bcast takes two arguments");
  register "MPI_Probe" (Mpi Mprobe) 2 2 int_scalar_rule;
  (* constants *)
  register "pi" (Constant Float.pi) 0 0 (fun _ _ -> const_real Float.pi);
  register "eps" (Constant epsilon_float) 0 0 (fun _ _ ->
      const_real epsilon_float)

let find name = Hashtbl.find_opt table name
let is_builtin name = Hashtbl.mem table name
let all () = Hashtbl.fold (fun _ b acc -> b :: acc) table []

(* The scalar function of an element-wise builtin called with one or
   two arguments (a binary [min]/[max] counts), and its C name. *)
let scalar1 name =
  match find name with Some { kind = Map1 (f, _); _ } -> Some f | _ -> None

let scalar2 name =
  match find name with
  | Some { kind = Map2 (f, _) | Minmax (f, _, _); _ } -> Some f
  | _ -> None

let c_name name =
  match find name with
  | Some { kind = Map1 (_, c) | Map2 (_, c) | Minmax (_, c, _); _ } -> Some c
  | _ -> None

let check_arity b nargs pos =
  if nargs < b.min_args || nargs > b.max_args then
    Mlang.Source.error pos "%s: expects %d..%d arguments, got %d" b.name
      b.min_args
      (if b.max_args = max_int then 99 else b.max_args)
      nargs
