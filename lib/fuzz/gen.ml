(* Random well-formed, well-typed MATLAB scripts for the differential
   fuzzing oracle.

   The generator threads a symbol table of live variables (scalars and
   matrices with statically known, small dimensions) through statement
   generation, so every produced script is shape-consistent by
   construction: matrix operands always conform, indices are in bounds,
   loop ranges terminate, and control-flow bodies only reassign
   existing variables with their established rank and shape.  The
   interpreter therefore only fails on a generated script when one of
   the back ends is genuinely wrong, which keeps QCheck2's integrated
   shrinking sound (a shrunk candidate that the front end rejects is
   simply discarded, never reported).

   Every script ends with a deterministic epilogue printing each live
   variable element-by-element with %.17g, so the sequential-C leg of
   the oracle can be compared numerically against the interpreter. *)

module G = QCheck2.Gen

let ( let* ) = G.( let* )

type kind =
  | Kscalar
  | Kmat of int * int
  | Ktens of int * int * int (* pages x rows x cols, rank-3 grammar only *)

type env = {
  vars : (string * kind) list; (* newest first *)
  ro : string list;
      (* live scalars that expressions may read but statements must not
         reassign: loop counters (reassigning one inside its own body
         can make the loop non-terminating) *)
  counter : int;
  funcs : string list; (* generated helper functions, arity 1 *)
  rank3 : bool; (* admit rank-3 tensor statements into the grammar *)
}

let empty_env = { vars = []; ro = []; counter = 0; funcs = []; rank3 = false }

let fresh env prefix =
  let name = Printf.sprintf "%s%d" prefix (env.counter + 1) in
  (name, { env with counter = env.counter + 1 })

let scalars env =
  List.filter_map (function n, Kscalar -> Some n | _ -> None) env.vars

(* matrices with at least one element (the empty ones only feed concat) *)
let mats env =
  List.filter_map
    (function n, Kmat (r, c) when r * c > 0 -> Some (n, r, c) | _ -> None)
    env.vars

let empties env =
  List.filter_map
    (function n, Kmat (r, c) when r * c = 0 -> Some n | _ -> None)
    env.vars

let vectors env = List.filter (fun (_, r, c) -> r = 1 || c = 1) (mats env)

let tens env =
  List.filter_map
    (function n, Ktens (p, r, c) -> Some (n, p, r, c) | _ -> None)
    env.vars

(* --- scalar expressions -------------------------------------------------- *)

(* The element-wise builtins by registry kind, so a builtin added to
   [Analysis.Builtins] joins the grammar with no edit here. *)
let elementwise pick =
  Analysis.Builtins.all ()
  |> List.filter_map (fun (b : Analysis.Builtins.t) ->
         if pick b.kind then Some b.name else None)
  |> List.sort compare

let unary_g =
  G.oneofl (elementwise (function Analysis.Builtins.Map1 _ -> true | _ -> false))

let binary_g =
  G.oneofl
    (elementwise (function
      | Analysis.Builtins.Map2 _ | Analysis.Builtins.Minmax _ -> true
      | _ -> false))

(* The arguments of a drawn element-wise call: each [a] becomes
   [sin(a) + d].  That keeps every argument bounded, so no call blows a
   value up for a later sum to cancel (2.6e23 - 2.6e23 + 1 is 0 or 1
   by summation order), and off 0, +-0.5, +-1 and the integers, where
   floor, round, sign, mod, log and asin jump.  Reductions differ in
   their last bits across P, which the oracle tolerates; a call on a
   tame argument cannot turn that into a different answer. *)
let tame args =
  String.concat ", "
    (List.mapi
       (fun i a ->
         Printf.sprintf "sin(%s) + %s" a (if i = 0 then "0.3183" else "0.2718"))
       args)

let const_g =
  G.oneofl [ "0"; "1"; "2"; "3"; "5"; "0.5"; "1.5"; "-1"; "-2"; "10" ]

(* Comparison thresholds sit off the integers, as [tame]'s offsets do:
   a reduction that is 1 at P=1 may be 1 - ulp at P=2, and a threshold
   of 1 would then flip the branch, leaving two right answers. *)
let threshold_g = G.oneofl [ "0.3183"; "1.2718"; "2.3183"; "-0.2718" ]

(* a shape query or a thresholded any/all of array [n] of rank [rank] *)
let query_g n rank =
  let* d = G.int_range 1 rank in
  let* t = threshold_g in
  G.oneofl
    [
      Printf.sprintf "numel(%s)" n;
      Printf.sprintf "length(%s)" n;
      Printf.sprintf "size(%s, %d)" n d;
      Printf.sprintf "any(%s > %s)" n t;
      Printf.sprintf "all(%s < %s)" n t;
    ]

let rec sexpr env depth : string G.t =
  let leaves =
    (3, const_g)
    :: (1, G.oneofl [ "pi"; "eps" ])
    ::
    (match scalars env @ env.ro with
    | [] -> []
    | ss -> [ (4, G.oneofl ss) ])
  in
  if depth <= 0 then G.frequency leaves
  else
    let sub = sexpr env (depth - 1) in
    let bin =
      let* op = G.oneofl [ "+"; "-"; "*"; "/" ] in
      let* a = sub in
      let* b = sub in
      G.return (Printf.sprintf "(%s %s %s)" a op b)
    in
    let call =
      G.frequency
        [
          ( 2,
            let* f = unary_g in
            let* a = sub in
            G.return (Printf.sprintf "%s(%s)" f (tame [ a ])) );
          ( 1,
            let* f = binary_g in
            let* a = sub in
            let* b = sub in
            G.return (Printf.sprintf "%s(%s)" f (tame [ a; b ])) );
        ]
    in
    let sqrt_abs =
      let* a = sub in
      G.return (Printf.sprintf "sqrt(abs(%s))" a)
    in
    let extras =
      (match mats env with
      | [] -> []
      | ms ->
          [
            (* reduction of a matrix to a scalar *)
            ( 2,
              let* n, r, c = G.oneofl ms in
              let* red = G.oneofl [ "sum"; "mean"; "max"; "min" ] in
              G.return
                (if r = 1 || c = 1 then Printf.sprintf "%s(%s)" red n
                 else Printf.sprintf "%s(%s(%s))" red red n) );
            (* in-bounds element read *)
            ( 2,
              let* n, r, c = G.oneofl ms in
              let* i = G.int_range 1 r in
              let* j = G.int_range 1 c in
              G.return
                (if r = 1 then Printf.sprintf "%s(%d)" n j
                 else if c = 1 then Printf.sprintf "%s(%d)" n i
                 else Printf.sprintf "%s(%d, %d)" n i j) );
            ( 1,
              let* n, _, _ = G.oneofl ms in
              query_g n 2 );
          ])
      @ (match vectors env with
        | [] -> []
        | vs ->
            [
              (* run-time library functionals of vectors *)
              ( 1,
                let* n, r, c = G.oneofl vs in
                let peers = List.filter (fun (_, r', c') -> r' * c' = r * c) vs in
                let* p, _, _ = G.oneofl peers in
                G.oneofl
                  [
                    Printf.sprintf "norm(%s)" n;
                    Printf.sprintf "trapz(%s)" n;
                    Printf.sprintf "trapz(%s, %s)" p n;
                    Printf.sprintf "dot(%s, %s)" n p;
                  ] );
            ])
      @ (match tens env with
        | [] -> []
        | ts ->
            [
              (* full reduction of a tensor to a scalar *)
              ( 2,
                let* n, _, _, _ = G.oneofl ts in
                let* red = G.oneofl [ "sum"; "mean"; "max"; "min" ] in
                G.return (Printf.sprintf "%s(%s)" red n) );
              (* in-bounds element read *)
              ( 2,
                let* n, p, r, c = G.oneofl ts in
                let* i = G.int_range 1 p in
                let* j = G.int_range 1 r in
                let* k = G.int_range 1 c in
                G.return (Printf.sprintf "%s(%d, %d, %d)" n i j k) );
              ( 1,
                let* n, _, _, _ = G.oneofl ts in
                query_g n 3 );
            ])
      @
      match env.funcs with
      | [] -> []
      | fs ->
          [
            ( 2,
              let* f = G.oneofl fs in
              let* a = sub in
              G.return (Printf.sprintf "%s(%s)" f a) );
          ]
    in
    G.frequency (leaves @ [ (3, bin); (2, call); (1, sqrt_abs) ] @ extras)

(* --- matrix-producing statements ----------------------------------------- *)

(* A statement generator yields the emitted lines plus the updated
   symbol table. *)
type stmt = string list * env

let dim_g = G.int_range 1 4

let literal_stmt env : stmt G.t =
  let name, env = fresh env "m" in
  let* r = G.int_range 1 3 in
  let* c = G.int_range 1 3 in
  let elem =
    match scalars env with
    | [] -> const_g
    | ss -> G.frequency [ (3, const_g); (1, G.oneofl ss) ]
  in
  let* rows =
    G.flatten_l
      (List.init r (fun _ ->
           let* es = G.flatten_l (List.init c (fun _ -> elem)) in
           G.return (String.concat ", " es)))
  in
  let body = String.concat "; " rows in
  G.return
    ( [ Printf.sprintf "%s = [%s];" name body ],
      { env with vars = (name, Kmat (r, c)) :: env.vars } )

let empty_stmt env : stmt G.t =
  let name, env = fresh env "e" in
  G.return
    ( [ Printf.sprintf "%s = [];" name ],
      { env with vars = (name, Kmat (0, 0)) :: env.vars } )

(* Every constructor with each argument count compiled code takes:
   rand() and randn() have no compiled form. *)
let construct_stmt env : stmt G.t =
  let* kind = G.oneofl [ "zeros"; "ones"; "eye"; "rand"; "randn" ] in
  let* nargs = G.int_range 0 2 in
  let* r = dim_g in
  let* c = dim_g in
  let args, k =
    match nargs with
    | 0 when kind = "zeros" || kind = "ones" -> ("", Kscalar)
    | 1 -> (string_of_int r, Kmat (r, r))
    | _ -> (Printf.sprintf "%d, %d" r c, Kmat (r, c))
  in
  let name, env = fresh env (if k = Kscalar then "s" else "m") in
  G.return
    ( [ Printf.sprintf "%s = %s(%s);" name kind args ],
      { env with vars = (name, k) :: env.vars } )

let repmat_stmt env : stmt G.t =
  let* src, r, c = G.oneofl (mats env) in
  let* a = G.int_range 1 2 in
  let* b = G.int_range 1 2 in
  let name, env = fresh env "m" in
  G.return
    ( [ Printf.sprintf "%s = repmat(%s, %d, %d);" name src a b ],
      { env with vars = (name, Kmat (r * a, c * b)) :: env.vars } )

(* size with one and with two outputs *)
let size_stmt env : stmt G.t =
  let* src, _, _ = G.oneofl (mats env) in
  let* two = G.bool in
  if two then
    let rname, env = fresh env "s" in
    let cname, env = fresh env "s" in
    G.return
      ( [ Printf.sprintf "[%s, %s] = size(%s);" rname cname src ],
        { env with vars = (cname, Kscalar) :: (rname, Kscalar) :: env.vars } )
  else
    let name, env = fresh env "v" in
    G.return
      ( [ Printf.sprintf "%s = size(%s);" name src ],
        { env with vars = (name, Kmat (1, 2)) :: env.vars } )

let range_stmt env : stmt G.t =
  let name, env = fresh env "v" in
  let* lo = G.int_range 1 3 in
  let* step = G.oneofl [ 1; 2 ] in
  let* n = G.int_range 2 5 in
  let hi = lo + (step * (n - 1)) in
  let line =
    if step = 1 then Printf.sprintf "%s = %d:%d;" name lo hi
    else Printf.sprintf "%s = %d:%d:%d;" name lo step hi
  in
  G.return ([ line ], { env with vars = (name, Kmat (1, n)) :: env.vars })

let linspace_stmt env : stmt G.t =
  let name, env = fresh env "v" in
  let* a = G.int_range (-3) 3 in
  let* b = G.int_range (-3) 9 in
  let* n = G.int_range 2 5 in
  G.return
    ( [ Printf.sprintf "%s = linspace(%d, %d, %d);" name a b n ],
      { env with vars = (name, Kmat (1, n)) :: env.vars } )

let transpose_stmt env : stmt G.t =
  let* src, r, c = G.oneofl (mats env) in
  let name, env = fresh env "m" in
  G.return
    ( [ Printf.sprintf "%s = %s';" name src ],
      { env with vars = (name, Kmat (c, r)) :: env.vars } )

let diag_stmt env : stmt G.t =
  let* src, r, c = G.oneofl (mats env) in
  let name, env = fresh env "m" in
  let kind = if r = 1 || c = 1 then Kmat (r * c, r * c) else Kmat (min r c, 1) in
  G.return
    ( [ Printf.sprintf "%s = diag(%s);" name src ],
      { env with vars = (name, kind) :: env.vars } )

let matmul_stmt env : stmt G.t =
  let ms = mats env in
  let pairs =
    List.concat_map
      (fun (a, r1, c1) ->
        List.filter_map
          (fun (b, r2, c2) -> if c1 = r2 then Some (a, b, r1, c2) else None)
          ms)
      ms
  in
  let* a, b, r, c = G.oneofl pairs in
  let name, env = fresh env "m" in
  G.return
    ( [ Printf.sprintf "%s = %s * %s;" name a b ],
      { env with vars = (name, Kmat (r, c)) :: env.vars } )

(* element-wise expression over matrices of one common shape + scalars *)
let elemwise_rhs env (r, c) : string G.t =
  let peers =
    List.filter_map
      (function n, Kmat (r', c') when r' = r && c' = c -> Some n | _ -> None)
      env.vars
  in
  let* m1 = G.oneofl peers in
  let* op = G.oneofl [ ".*"; "+"; "-"; "./" ] in
  let* rhs =
    G.frequency
      ((2, sexpr env 1) :: (match peers with [] -> [] | _ -> [ (3, G.oneofl peers) ]))
  in
  let e = Printf.sprintf "%s %s %s" m1 op rhs in
  G.frequency
    [
      (2, G.return e);
      ( 1,
        let* f = unary_g in
        G.return (Printf.sprintf "%s(%s)" f (tame [ e ])) );
      ( 1,
        let* f = binary_g in
        let* s = sexpr env 0 in
        G.return (Printf.sprintf "%s(%s)" f (tame [ e; s ])) );
    ]

let elemwise_stmt env : stmt G.t =
  let* _, r, c = G.oneofl (mats env) in
  let* rhs = elemwise_rhs env (r, c) in
  let name, env = fresh env "m" in
  G.return
    ( [ Printf.sprintf "%s = %s;" name rhs ],
      { env with vars = (name, Kmat (r, c)) :: env.vars } )

let vec_op_stmt env : stmt G.t =
  let* src, r, c = G.oneofl (vectors env) in
  let name, env = fresh env "v" in
  let* line, kind =
    G.oneofl
      [
        (Printf.sprintf "%s = cumsum(%s);" name src, Kmat (r, c));
        (Printf.sprintf "%s = cumprod(%s);" name src, Kmat (r, c));
        (Printf.sprintf "%s = sort(%s);" name src, Kmat (r, c));
        (Printf.sprintf "%s = circshift(%s, 1);" name src, Kmat (r, c));
        (Printf.sprintf "%s = circshift(%s, -1);" name src, Kmat (r, c));
      ]
  in
  G.return ([ line ], { env with vars = (name, kind) :: env.vars })

let colreduce_stmt env : stmt G.t =
  let full = List.filter (fun (_, r, c) -> r > 1 && c > 1) (mats env) in
  let* src, _, c = G.oneofl full in
  let* red = G.oneofl [ "sum"; "prod"; "mean" ] in
  let name, env = fresh env "v" in
  G.return
    ( [ Printf.sprintf "%s = %s(%s);" name red src ],
      { env with vars = (name, Kmat (1, c)) :: env.vars } )

let concat_stmt env : stmt G.t =
  let ms = mats env in
  let* horizontal = G.bool in
  let compat (_, r1, c1) (_, r2, c2) =
    if horizontal then r1 = r2 else c1 = c2
  in
  let pairs =
    List.concat_map (fun a -> List.filter_map (fun b ->
        if compat a b then Some (a, b) else None) ms) ms
  in
  let* (a, r1, c1), (b, r2, c2) = G.oneofl pairs in
  (* occasionally thread an empty operand through, which MATLAB drops *)
  let* with_empty =
    match empties env with
    | [] -> G.return None
    | es -> G.frequency [ (3, G.return None); (1, G.map (fun e -> Some e) (G.oneofl es)) ]
  in
  let name, env = fresh env "m" in
  let sep = if horizontal then ", " else "; " in
  let parts =
    match with_empty with
    | None -> [ a; b ]
    | Some e -> [ e; a; b ]
  in
  let kind =
    if horizontal then Kmat (r1, c1 + c2) else Kmat (r1 + r2, c1)
  in
  G.return
    ( [ Printf.sprintf "%s = [%s];" name (String.concat sep parts) ],
      { env with vars = (name, kind) :: env.vars } )

let section_stmt env : stmt G.t =
  let* src, r, c = G.oneofl (mats env) in
  let name, env = fresh env "m" in
  if r = 1 || c = 1 then begin
    let n = r * c in
    let* k = G.int_range 1 n in
    let kind = if c = 1 then Kmat (k, 1) else Kmat (1, k) in
    G.return
      ( [ Printf.sprintf "%s = %s(1:%d);" name src k ],
        { env with vars = (name, kind) :: env.vars } )
  end
  else
    let* k = G.int_range 1 r in
    let* whole_cols = G.bool in
    if whole_cols then
      G.return
        ( [ Printf.sprintf "%s = %s(1:%d, :);" name src k ],
          { env with vars = (name, Kmat (k, c)) :: env.vars } )
    else
      let* k2 = G.int_range 1 c in
      G.return
        ( [ Printf.sprintf "%s = %s(1:%d, 1:%d);" name src k k2 ],
          { env with vars = (name, Kmat (k, k2)) :: env.vars } )

(* --- rank-3 tensors (enabled by [env.rank3]) ------------------------------ *)

(* Tensors are block-distributed over the leading (page) axis, so the
   grammar sticks to the operations with bit-identical parallel
   semantics: element-wise combination with equal-shape tensors,
   frame-broadcast against a cell-shaped matrix or a scalar,
   rank-preserving leading-axis sections, full reductions, and single
   element reads/writes. *)

let tensor_construct_stmt env : stmt G.t =
  let name, env = fresh env "t" in
  let* kind = G.oneofl [ "zeros"; "ones"; "rand"; "randn" ] in
  let* p = G.int_range 1 3 in
  let* r = G.int_range 1 3 in
  let* c = G.int_range 1 3 in
  G.return
    ( [ Printf.sprintf "%s = %s(%d, %d, %d);" name kind p r c ],
      { env with vars = (name, Ktens (p, r, c)) :: env.vars } )

(* element-wise expression over tensors of one shape: a same-shape
   tensor peer, a frame-broadcast cell matrix, or a scalar *)
let tensor_elemwise_rhs env (p, r, c) : string G.t =
  let peers =
    List.filter_map
      (function
        | n, Ktens (p', r', c') when p' = p && r' = r && c' = c -> Some n
        | _ -> None)
      env.vars
  in
  let cells =
    List.filter_map
      (function n, Kmat (r', c') when r' = r && c' = c -> Some n | _ -> None)
      env.vars
  in
  let* t1 = G.oneofl peers in
  let* op = G.oneofl [ ".*"; "+"; "-"; "./" ] in
  let* rhs =
    G.frequency
      ((2, sexpr env 1)
      :: ((match peers with [] -> [] | _ -> [ (3, G.oneofl peers) ])
         @ match cells with [] -> [] | _ -> [ (3, G.oneofl cells) ]))
  in
  G.return (Printf.sprintf "%s %s %s" t1 op rhs)

let tensor_elemwise_stmt env : stmt G.t =
  let* _, p, r, c = G.oneofl (tens env) in
  let* rhs = tensor_elemwise_rhs env (p, r, c) in
  let name, env = fresh env "t" in
  G.return
    ( [ Printf.sprintf "%s = %s;" name rhs ],
      { env with vars = (name, Ktens (p, r, c)) :: env.vars } )

(* rank-preserving section along the distributed leading axis *)
let tensor_section_stmt env : stmt G.t =
  let* src, p, r, c = G.oneofl (tens env) in
  let* lo = G.int_range 1 p in
  let* hi = G.int_range lo p in
  let name, env = fresh env "t" in
  G.return
    ( [ Printf.sprintf "%s = %s(%d:%d, :, :);" name src lo hi ],
      { env with vars = (name, Ktens (hi - lo + 1, r, c)) :: env.vars } )

let scalar_stmt env : stmt G.t =
  let name, env = fresh env "s" in
  let* e = sexpr env 2 in
  G.return
    ( [ Printf.sprintf "%s = %s;" name e ],
      { env with vars = (name, Kscalar) :: env.vars } )

let string_stmt env : stmt G.t =
  let name, env = fresh env "st" in
  let* word = G.oneofl [ "alpha"; "beta"; "gamma delta"; "x" ] in
  G.return
    ( [ Printf.sprintf "%s = '%s';" name word; Printf.sprintf "disp(%s);" name ],
      env (* strings stay out of the numeric symbol table *) )

(* fprintf with one and with three arguments (the epilogue has two);
   the C back end prints numbers only *)
let print_stmt env : stmt G.t =
  let* word = G.oneofl [ "alpha"; "beta" ] in
  let* a = sexpr env 0 in
  let* b = sexpr env 0 in
  G.oneofl
    [
      ([ Printf.sprintf "fprintf('%s\\n');" word ], env);
      ([ Printf.sprintf "fprintf('%%.17g %%.17g\\n', %s, %s);" a b ], env);
    ]

(* --- explicit message passing --------------------------------------------- *)

(* MPI statements must keep the one-rank interpreter a valid oracle:
   ranks only address themselves (loopback queues), and broadcasts only
   replicate values every rank computes identically.  The rank variable
   is deliberately NOT registered in the symbol table — feeding a
   rank-divergent scalar into later control flow around distributed
   matrices would deadlock by design, not by bug.  (The oracle still
   captures it; rank 0's value matches the interpreter's.)  A matrix
   broadcast yields a rank-local replica, which must not meet a
   distributed matrix element-wise, so its result stays unregistered
   too. *)
let mpi_stmt env : stmt G.t =
  let roundtrip =
    let rname, env = fresh env "mpr" in
    let vname, env = fresh env "mpv" in
    let tag = 100 + env.counter in
    let* e = sexpr env 1 in
    let* with_probe = G.bool in
    let probe =
      (* probing the drained queue is deterministically 0 *)
      if with_probe then
        [ Printf.sprintf "%s_q = MPI_Probe(%s, %d);" vname rname tag ]
      else []
    in
    G.return
      ( [
          Printf.sprintf "%s = MPI_Comm_rank();" rname;
          Printf.sprintf "MPI_Send(%s, %d, %s);" rname tag e;
          Printf.sprintf "%s = MPI_Recv(%s, %d);" vname rname tag;
        ]
        @ probe,
        { env with vars = (vname, Kscalar) :: env.vars } )
  in
  let bcast_scalar =
    let name, env = fresh env "mpb" in
    let* e = sexpr env 1 in
    G.return
      ( [ Printf.sprintf "%s = MPI_Bcast(0, %s);" name e ],
        { env with vars = (name, Kscalar) :: env.vars } )
  in
  let bcast_mat =
    match mats env with
    | [] -> []
    | ms ->
        [
          ( 2,
            let name, env = fresh env "mpm" in
            let* src, _, _ = G.oneofl ms in
            G.return
              ( [ Printf.sprintf "%s = MPI_Bcast(0, %s);" name src ],
                env (* replica: captured, but kept out of the pool *) ) );
        ]
  in
  let size =
    (* the machine size differs across P; only its positivity does not *)
    let name, env = fresh env "mps" in
    G.return
      ( [ Printf.sprintf "%s = double(MPI_Comm_size() > 0);" name ],
        { env with vars = (name, Kscalar) :: env.vars } )
  in
  G.frequency ([ (3, roundtrip); (2, bcast_scalar); (1, size) ] @ bcast_mat)

(* --- mutating statements (shape-preserving; safe inside control flow) ---- *)

let mutate_stmt env : string G.t =
  let reassign_scalar =
    match scalars env with
    | [] -> []
    | ss ->
        [
          ( 3,
            let* n = G.oneofl ss in
            let* e = sexpr env 1 in
            G.return (Printf.sprintf "%s = %s;" n e) );
        ]
  in
  let setelem =
    match mats env with
    | [] -> []
    | ms ->
        [
          ( 2,
            let* n, r, c = G.oneofl ms in
            let* i = G.int_range 1 r in
            let* j = G.int_range 1 c in
            let* e = sexpr env 1 in
            G.return
              (if r = 1 then Printf.sprintf "%s(%d) = %s;" n j e
               else if c = 1 then Printf.sprintf "%s(%d) = %s;" n i e
               else Printf.sprintf "%s(%d, %d) = %s;" n i j e) );
        ]
  in
  let setsection =
    match mats env with
    | [] -> []
    | ms ->
        [
          ( 1,
            let* n, r, c = G.oneofl ms in
            let* e = sexpr env 0 in
            if r = 1 || c = 1 then
              let* k = G.int_range 1 (r * c) in
              G.return (Printf.sprintf "%s(1:%d) = %s;" n k e)
            else
              let* k = G.int_range 1 r in
              G.return (Printf.sprintf "%s(1:%d, :) = %s;" n k e) );
        ]
  in
  let reassign_mat =
    match mats env with
    | [] -> []
    | ms ->
        [
          ( 2,
            let* n, r, c = G.oneofl ms in
            let* rhs = elemwise_rhs env (r, c) in
            G.return (Printf.sprintf "%s = %s;" n rhs) );
        ]
  in
  let tensor_mut =
    match tens env with
    | [] -> []
    | ts ->
        [
          (* single element write *)
          ( 2,
            let* n, p, r, c = G.oneofl ts in
            let* i = G.int_range 1 p in
            let* j = G.int_range 1 r in
            let* k = G.int_range 1 c in
            let* e = sexpr env 1 in
            G.return (Printf.sprintf "%s(%d, %d, %d) = %s;" n i j k e) );
          (* shape-preserving element-wise reassignment *)
          ( 1,
            let* n, p, r, c = G.oneofl ts in
            let* rhs = tensor_elemwise_rhs env (p, r, c) in
            G.return (Printf.sprintf "%s = %s;" n rhs) );
        ]
  in
  match reassign_scalar @ setelem @ setsection @ reassign_mat @ tensor_mut with
  | [] -> G.return "" (* nothing mutable yet *)
  | choices -> G.frequency choices

let mutate_block env size : string list G.t =
  let* lines = G.flatten_l (List.init size (fun _ -> mutate_stmt env)) in
  G.return (List.filter (fun l -> l <> "") lines)

(* --- control flow --------------------------------------------------------- *)

let for_stmt env : stmt G.t =
  let ivar, env = fresh env "i" in
  let* zero_trip = G.frequency [ (4, G.return false); (1, G.return true) ] in
  let* stop = G.int_range 2 3 in
  let header =
    if zero_trip then Printf.sprintf "for %s = 1:0" ivar
    else Printf.sprintf "for %s = 1:%d" ivar stop
  in
  (* inside the body the loop variable is readable but must not be
     reassigned *)
  let benv = { env with ro = ivar :: env.ro } in
  let* body = mutate_block benv 2 in
  let body = List.map (fun l -> "  " ^ l) body in
  (* after a zero-trip loop the variable is left undefined in every
     back end, so it must stay out of the symbol table (the oracle
     still captures it: missing-in-both must verify clean) *)
  let env' =
    if zero_trip then env
    else { env with vars = (ivar, Kscalar) :: env.vars }
  in
  G.return (((header :: body) @ [ "end" ]), env')

let while_stmt env : stmt G.t =
  let wvar, env = fresh env "w" in
  let* stop = G.int_range 2 3 in
  (* the counter is read-only in the body: the closing increment alone
     drives termination *)
  let benv = { env with ro = wvar :: env.ro } in
  let* body = mutate_block benv 1 in
  let lines =
    [ Printf.sprintf "%s = 0;" wvar; Printf.sprintf "while %s < %d" wvar stop ]
    @ List.map (fun l -> "  " ^ l) body
    @ [ Printf.sprintf "  %s = %s + 1;" wvar wvar; "end" ]
  in
  G.return (lines, { env with vars = (wvar, Kscalar) :: env.vars })

let if_stmt env : stmt G.t =
  let* cond = sexpr env 1 in
  let* cmp = G.oneofl [ ">"; "<"; ">="; "<=" ] in
  let* thr = threshold_g in
  let* then_b = mutate_block env 1 in
  let* with_else = G.bool in
  let* else_b = if with_else then mutate_block env 1 else G.return [] in
  let lines =
    [ Printf.sprintf "if %s %s %s" cond cmp thr ]
    @ List.map (fun l -> "  " ^ l) then_b
    @ (if with_else then "else" :: List.map (fun l -> "  " ^ l) else_b else [])
    @ [ "end" ]
  in
  G.return (lines, env)

(* --- whole scripts -------------------------------------------------------- *)

let stmt env : stmt G.t =
  let has_mats = mats env <> [] in
  let has_vecs = vectors env <> [] in
  let has_full = List.exists (fun (_, r, c) -> r > 1 && c > 1) (mats env) in
  let has_matmul =
    List.exists
      (fun (_, _, c1) -> List.exists (fun (_, r2, _) -> c1 = r2) (mats env))
      (mats env)
  in
  let has_concat =
    List.exists
      (fun (_, r1, c1) ->
        List.exists (fun (_, r2, c2) -> r1 = r2 || c1 = c2) (mats env))
      (mats env)
  in
  G.frequency
    ([
       (4, scalar_stmt env);
       (3, literal_stmt env);
       (2, construct_stmt env);
       (2, range_stmt env);
       (1, linspace_stmt env);
       (1, empty_stmt env);
       (1, string_stmt env);
       (1, print_stmt env);
       (2, for_stmt env);
       (1, while_stmt env);
       (2, if_stmt env);
       (1, mpi_stmt env);
     ]
    @ (if has_mats then
         [
           (3, elemwise_stmt env);
           (2, transpose_stmt env);
           (2, diag_stmt env);
           (2, section_stmt env);
           (1, repmat_stmt env);
           (1, size_stmt env);
           ( 2,
             let* l = mutate_stmt env in
             G.return ((if l = "" then [] else [ l ]), env) );
         ]
       else [])
    @ (if has_vecs then [ (2, vec_op_stmt env) ] else [])
    @ (if has_full then [ (1, colreduce_stmt env) ] else [])
    @ (if has_matmul then [ (2, matmul_stmt env) ] else [])
    @ (if has_concat then [ (2, concat_stmt env) ] else [])
    @ (if env.rank3 then [ (2, tensor_construct_stmt env) ] else [])
    @
    if tens env <> [] then
      [ (3, tensor_elemwise_stmt env); (2, tensor_section_stmt env) ]
    else [])

let rec stmts env n : (string list * env) G.t =
  if n <= 0 then G.return ([], env)
  else
    let* lines, env = stmt env in
    let* rest, env = stmts env (n - 1) in
    G.return (lines @ rest, env)

(* Print every live variable element-by-element so the sequential-C
   leg can be compared numerically against the interpreter. *)
let epilogue env : string list =
  List.concat_map
    (fun (n, k) ->
      match k with
      | Kscalar -> [ Printf.sprintf "fprintf('%%.17g\\n', %s);" n ]
      | Kmat (r, c) when r * c = 0 -> []
      | Kmat (r, c) when r = 1 || c = 1 ->
          List.init (r * c) (fun g ->
              Printf.sprintf "fprintf('%%.17g\\n', %s(%d));" n (g + 1))
      | Kmat (r, c) ->
          List.concat_map
            (fun i ->
              List.init c (fun j ->
                  Printf.sprintf "fprintf('%%.17g\\n', %s(%d, %d));" n (i + 1)
                    (j + 1)))
            (List.init r (fun i -> i))
      | Ktens (p, r, c) ->
          List.concat_map
            (fun g ->
              List.concat_map
                (fun i ->
                  List.init c (fun j ->
                      Printf.sprintf "fprintf('%%.17g\\n', %s(%d, %d, %d));" n
                        (g + 1) (i + 1) (j + 1)))
                (List.init r (fun i -> i)))
            (List.init p (fun g -> g)))
    (List.rev env.vars)

let helper_func name : string list G.t =
  let fenv = { empty_env with vars = [ ("x", Kscalar) ] } in
  let* e = sexpr fenv 2 in
  G.return
    [ Printf.sprintf "function r = %s(x)" name; Printf.sprintf "r = %s;" e ]

let script_with ~rank3 : string G.t =
  let* with_func = G.frequency [ (3, G.return false); (1, G.return true) ] in
  let env = { empty_env with rank3 } in
  let env = if with_func then { env with funcs = [ "uf" ] } else env in
  let* n = G.int_range 3 12 in
  let* lines, env = stmts env n in
  let* func_lines = if with_func then helper_func "uf" else G.return [] in
  let all = lines @ epilogue env @ func_lines in
  G.return (String.concat "\n" all ^ "\n")

let script : string G.t = script_with ~rank3:false
let script_rank3 : string G.t = script_with ~rank3:true
