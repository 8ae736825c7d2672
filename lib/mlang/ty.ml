(* The type / rank / shape lattice of the Otter compiler (paper section 3,
   pass 3), extended beyond the paper with a rank-N tensor point.

   A variable has one of four base types -- literal (string), integer,
   real, complex -- a rank (scalar, matrix, or tensor; MATLAB vectors
   are matrices with one unit dimension) and, when it has matrix or
   tensor rank, a shape whose dimensions are compile-time constants
   where derivable and unknown (resolved at run time) otherwise.

   Tensors follow the Remora frame/cell decomposition: [Rtensor outer]
   carries the *leading* (frame) dimensions, and [shape] keeps the
   trailing rows-by-cols cell exactly as for a matrix.  The total rank
   of a tensor is 2 + length outer; the compiler front end today only
   builds rank-3 tensors (one frame axis), but the lattice and the
   runtime are N-d. *)

type base = Literal | Integer | Real | Complex
type dim = Dconst of int | Dunknown
type rank = Rscalar | Rmatrix | Rtensor of dim list (* leading (frame) dims *)
type shape = { rows : dim; cols : dim }
type t = { base : base; rank : rank; shape : shape }

(* Bottom is "no information yet": an unassigned SSA name or an
   yet-unvisited loop back edge. *)
type vt = Bottom | Known of t

let scalar_shape = { rows = Dconst 1; cols = Dconst 1 }
let unknown_shape = { rows = Dunknown; cols = Dunknown }
let scalar base = { base; rank = Rscalar; shape = scalar_shape }
let matrix ?(shape = unknown_shape) base = { base; rank = Rmatrix; shape }

let tensor ?(outer = [ Dunknown ]) ?(shape = unknown_shape) base =
  { base; rank = Rtensor outer; shape }

let int_scalar = scalar Integer
let real_scalar = scalar Real
let real_matrix = matrix Real

let base_le a b =
  let order = function Literal -> 0 | Integer -> 1 | Real -> 2 | Complex -> 3 in
  match (a, b) with
  | Literal, Literal -> true
  | Literal, _ | _, Literal -> false
  | _ -> order a <= order b

let join_base a b =
  match (a, b) with
  | Literal, x | x, Literal -> x (* literals never mix with numerics *)
  | _ -> if base_le a b then b else a

let join_dim a b =
  match (a, b) with
  | Dconst x, Dconst y when x = y -> Dconst x
  | _ -> Dunknown

let join_shape a b = { rows = join_dim a.rows b.rows; cols = join_dim a.cols b.cols }

(* Frame-dim lists of differing length have no common constant frame;
   join them to an all-unknown frame of the larger rank. *)
let join_outer a b =
  if List.length a = List.length b then List.map2 join_dim a b
  else List.map (fun _ -> Dunknown) (if List.length a > List.length b then a else b)

let join_rank a b =
  match (a, b) with
  | Rscalar, Rscalar -> Rscalar
  | Rtensor x, Rtensor y -> Rtensor (join_outer x y)
  | Rtensor x, _ | _, Rtensor x -> Rtensor (List.map (fun _ -> Dunknown) x)
  | _ -> Rmatrix

let join a b =
  {
    base = join_base a.base b.base;
    rank = join_rank a.rank b.rank;
    shape =
      (match (a.rank, b.rank) with
      | Rscalar, Rscalar -> scalar_shape
      | Rscalar, _ -> b.shape
      | _, Rscalar -> a.shape
      | _ -> join_shape a.shape b.shape);
  }

let join_vt a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Known x, Known y -> Known (join x y)

let equal_dim a b =
  match (a, b) with
  | Dconst x, Dconst y -> x = y
  | Dunknown, Dunknown -> true
  | Dconst _, Dunknown | Dunknown, Dconst _ -> false

let equal_rank a b =
  match (a, b) with
  | Rscalar, Rscalar | Rmatrix, Rmatrix -> true
  | Rtensor x, Rtensor y ->
      List.length x = List.length y && List.for_all2 equal_dim x y
  | _ -> false

let equal a b =
  a.base = b.base && equal_rank a.rank b.rank
  && equal_dim a.shape.rows b.shape.rows
  && equal_dim a.shape.cols b.shape.cols

let is_scalar t = t.rank = Rscalar
let is_tensor t = match t.rank with Rtensor _ -> true | _ -> false

(* Total rank: 0 for scalars, 2 for matrices, 2 + frame axes for tensors. *)
let total_rank t =
  match t.rank with
  | Rscalar -> 0
  | Rmatrix -> 2
  | Rtensor outer -> 2 + List.length outer

(* Number of frame (leading) axes a lower-ranked cell operand is lifted
   over when broadcast against [t]. *)
let frame_axes t = match t.rank with Rtensor outer -> List.length outer | _ -> 0

(* A matrix known to be n-by-1 or 1-by-n. *)
let is_vector t =
  t.rank = Rmatrix && (t.shape.rows = Dconst 1 || t.shape.cols = Dconst 1)

let pp_base ppf b =
  Fmt.string ppf
    (match b with
    | Literal -> "literal"
    | Integer -> "integer"
    | Real -> "real"
    | Complex -> "complex")

let pp_dim ppf = function
  | Dconst n -> Fmt.int ppf n
  | Dunknown -> Fmt.string ppf "?"

let pp ppf t =
  match t.rank with
  | Rscalar -> Fmt.pf ppf "%a scalar" pp_base t.base
  | Rmatrix ->
      Fmt.pf ppf "%a matrix [%ax%a]" pp_base t.base pp_dim t.shape.rows pp_dim
        t.shape.cols
  | Rtensor outer ->
      Fmt.pf ppf "%a tensor [%ax%ax%a]" pp_base t.base
        (Fmt.list ~sep:(Fmt.any "x") pp_dim)
        outer pp_dim t.shape.rows pp_dim t.shape.cols

let pp_vt ppf = function
  | Bottom -> Fmt.string ppf "bottom"
  | Known t -> pp ppf t

let to_string t = Fmt.str "%a" pp t

(* Result type of an element-wise binary operation on conformable
   operands: scalar op matrix broadcasts, and under the frame/cell rule
   a scalar or cell-shaped matrix lifts over the frame of a tensor. *)
let elementwise_result op_base a b =
  let base = op_base a.base b.base in
  match (a.rank, b.rank) with
  | Rscalar, Rscalar -> scalar base
  | _, Rscalar -> { a with base }
  | Rscalar, _ -> { b with base }
  | Rmatrix, Rmatrix ->
      { base; rank = Rmatrix; shape = join_shape a.shape b.shape }
  | Rtensor _, Rmatrix ->
      (* frame broadcast: the matrix is the cell *)
      { a with base; shape = join_shape a.shape b.shape }
  | Rmatrix, Rtensor _ -> { b with base; shape = join_shape a.shape b.shape }
  | Rtensor x, Rtensor y ->
      { base; rank = Rtensor (join_outer x y); shape = join_shape a.shape b.shape }

let arith_base a b = join_base a b

(* Comparisons and logical operators yield 0/1 integer data. *)
let logical_base _ _ = Integer

(* Base type of a division: integer / integer is real in MATLAB. *)
let div_base a b =
  match join_base a b with
  | Literal -> Real
  | Integer -> Real
  | (Real | Complex) as t -> t

let transpose_shape s = { rows = s.cols; cols = s.rows }
