(* The loosely synchronous SPMD intermediate representation.

   This is what the expression-rewriting pass (paper pass 4) produces:
   communication-bearing operations have been lifted to statement level
   as run-time library calls; remaining element-wise matrix arithmetic
   is a single fused loop over locally owned elements ([Ielem]);
   statements touching individual matrix elements carry owner guards
   ([Isetelem]) or broadcasts ([Ibcast]).

   Every library call with one destination and no index list is one
   instruction, [Ilib], whose [fn] names the call: generic code treats
   them alike, and only comm, peephole, the printers and the back ends
   look at [fn].

   Scalars are replicated: a scalar expression ([sexpr]) is evaluated
   identically by every process, which keeps control flow loosely
   synchronous.  Both back ends consume this IR: the C emitter prints
   it as SPMD C with ML_* calls, and the VM executes it on the
   simulator. *)

type var = string

(* Replicated scalar expressions. *)
type sexpr =
  | Sconst of float
  | Sstr of string (* string literal (only as a call argument) *)
  | Svar of var
  | Sbin of Mlang.Ast.binop * sexpr * sexpr
  | Sneg of sexpr
  | Snot of sexpr
  | Scall of string * sexpr list (* scalar builtin: sqrt, mod, ... *)
  | Sdim of var * int (* 0 = numel, 1 = rows, 2 = cols, 3 = length *)

(* Per-element expressions for fused element-wise loops.  Every [Emat]
   operand either has the model's dims and distribution or, under a
   tensor model, is the cell of a frame broadcast; lowering binds such
   a cell to a [Lreplicate] temporary first, so evaluation is purely
   local.  (A cell whose rank is known only at run time is still
   gathered by the loop itself.) *)
type eexpr =
  | Emat of var (* local element i of a distributed matrix *)
  | Eeye
    (* 1.0 when the current element lies on the main diagonal of the
       model matrix, else 0.0: an eye(...) operand folded into the
       loop instead of materialized (see the fold-construct pass) *)
  | Escalar of sexpr (* replicated scalar, hoisted out of the loop *)
  | Ebin of Mlang.Ast.binop * eexpr * eexpr
  | Eneg of eexpr
  | Enot of eexpr
  | Ecall1 of string * eexpr (* element-wise builtin *)
  | Ecall2 of string * eexpr * eexpr

(* Reductions provided by the run-time library: the registry's kinds. *)
type rkind = Analysis.Builtins.red =
  | Rsum | Rprod | Rmin | Rmax | Rmean | Rany | Rall

type scan_kind = Analysis.Builtins.scan = Scumsum | Scumprod

(* The run-time library's one-result calls ([Ilib]): each reads the
   matrices in [args] and defines one destination. *)
type lib =
  | Lmatmul (* a * b (ML_matrix_multiply) *)
  | Lmatmul_t
    (* a' * b (ML_matmul_t): the transpose is never materialized, so
       the all-to-all redistribution it implies is skipped *)
  | Ldot (* scalar a . b *)
  | Ltranspose
  | Ldiag (* vector -> diagonal matrix, matrix -> diagonal *)
  | Louter (* u * v' *)
  | Lnorm (* scalar 2-norm *)
  | Lreduce_all of rkind (* scalar reduce(matrix) *)
  | Lreduce_cols of rkind (* 1 x cols column reduction *)
  | Lscan of scan_kind (* cumsum/cumprod(vector) *)
  | Ltrapz (* scalar trapz(y) / trapz(x, y): args [y] or [x; y] *)
  | Lshift of sexpr (* circshift(src, k): the call carries k *)
  | Lreplicate
    (* rank-local replica of a matrix (one allgather; a no-op on a
       replica or a scalar): the cell of a frame broadcast, lifted out
       of the element loop so licm can hoist it *)

(* One slot of a fused vector allreduce ([Ireduce_fused]).  Every
   alternative combines by summation, so a whole batch travels as a
   single Sum allreduce; the per-slot postprocessing (mean's division,
   norm's square root) is replicated local arithmetic. *)
type fused =
  | Fsum of var (* sum over all elements *)
  | Fmean of var (* sum / numel, division after the combine *)
  | Fdot of var * var (* inner product *)
  | Fnorm of var (* 2-norm: sqrt of the summed squares *)

(* Matrix constructors. *)
type ckind =
  | Czeros
  | Cones
  | Ceye
  | Crand
  | Crandn
  | Clinspace
  | Crange (* start : step : stop  ->  1 x n row vector *)

(* One index slot of a section. *)
type sel =
  | Sel_all (* ':' *)
  | Sel_scalar of sexpr (* single index *)
  | Sel_range of sexpr * sexpr option * sexpr (* lo : step? : hi *)
  | Sel_vec of var (* index vector held in a matrix variable *)

type print_arg = Pscalar of sexpr | Pmat of var | Pstr of string

type inst =
  | Iscalar of var * sexpr (* replicated scalar assignment *)
  | Ielem of { dst : var; model : var; expr : eexpr }
    (* dst gets the shape of [model]; one fused local loop *)
  | Icopy of var * var (* matrix copy (assignment between matrix vars) *)
  | Ilib of { dst : var; fn : lib; args : var list } (* dst = fn(args) *)
  | Isort of { vdst : var; idst : var option; arg : var }
    (* sorted = sort(v) / [sorted, perm] = sort(v) *)
  | Ireduce_loc of { vdst : var; idst : var; kind : rkind; arg : var }
    (* [m, i] = min/max(vector) *)
  | Ibcast of var * var * sexpr list (* scalar dst = mat(i[,j]): ML_broadcast *)
  | Ibcast_batch of (var * sexpr list) list * var
    (* scalar dsts = mat(i[,j]) each: adjacent element broadcasts from
       one matrix coalesced into a single ML_broadcast_batch *)
  | Ireduce_fused of (var * fused) list
    (* scalar dsts = sum-combining reductions fused into one vector
       allreduce (ML_reduce_fused) *)
  | Isetelem of var * sexpr list * sexpr (* mat(i[,j]) = scalar: owner guard *)
  | Iload of { dst : var; file : string } (* matrix from a data file *)
  | Iconstruct of { dst : var; kind : ckind; args : sexpr list }
  | Iliteral of { dst : var; rows : int; cols : int; elems : sexpr list }
  | Isection of { dst : var; src : var; sels : sel list } (* 1 or 2 sels *)
  | Isetsection of { dst : var; sels : sel list; src : call_arg }
    (* dst(sels) = src: owner-computes scatter of a section *)
  | Iconcat of { dst : var; grid_rows : int; grid_cols : int; parts : var list }
    (* matrix literal of matrix blocks: [A, B; C, D] *)
  | Icalluser of { rets : var list; name : string; args : call_arg list }
  | Impi_rank of var (* scalar dst = calling process's rank *)
  | Impi_size of var (* scalar dst = number of processes *)
  | Impi_send of sexpr * sexpr * call_arg (* MPI_Send(dest, tag, value) *)
  | Impi_recv of var * sexpr * sexpr * bool
    (* dst = MPI_Recv(source, tag); the flag is true when the inferred
       payload is a matrix (replicated on the receiver) *)
  | Impi_bcast of var * sexpr * call_arg (* dst = MPI_Bcast(root, value) *)
  | Impi_probe of var * sexpr * sexpr (* scalar dst = MPI_Probe(src, tag) *)
  | Iprint of string * print_arg (* named display: "x =" *)
  | Iprintf of sexpr list (* fprintf-style output, fmt first *)
  | Ierror of string
  | Iif of (sexpr * block) list * block
  | Iwhile of sexpr * block
  | Ifor of var * sexpr * sexpr option * sexpr * block
  | Ibreak
  | Icontinue
  | Ireturn

and call_arg = Ascalar of sexpr | Amat of var

and block = inst list

type func = {
  f_name : string;
  f_params : (var * Analysis.Ty.t) list;
  f_rets : (var * Analysis.Ty.t) list;
  f_vars : (var * Analysis.Ty.t) list; (* all locals incl. params, temps *)
  f_body : block;
}

type prog = {
  p_vars : (var * Analysis.Ty.t) list; (* script variables and temps *)
  p_body : block;
  p_funcs : func list;
}

(* --- library calls ------------------------------------------------------- *)

(* Does the call return a replicated scalar (rather than a distributed
   matrix)? *)
let lib_scalar = function
  | Ldot | Lnorm | Lreduce_all _ | Ltrapz -> true
  | _ -> false

(* Is [n] a valid operand count for the call? *)
let lib_arity_ok fn n =
  match fn with
  | Lmatmul | Lmatmul_t | Ldot | Louter -> n = 2
  | Ltrapz -> n = 1 || n = 2
  | _ -> n = 1

(* --- traversal helpers -------------------------------------------------- *)

let rec iter_insts f (b : block) =
  List.iter
    (fun i ->
      f i;
      match i with
      | Iif (branches, els) ->
          List.iter (fun (_, blk) -> iter_insts f blk) branches;
          iter_insts f els
      | Iwhile (_, blk) -> iter_insts f blk
      | Ifor (_, _, _, _, blk) -> iter_insts f blk
      | Iscalar _ | Ielem _ | Icopy _ | Ilib _ | Isort _ | Ireduce_loc _
      | Ibcast _ | Ibcast_batch _ | Ireduce_fused _ | Isetelem _
      | Isetsection _ | Iload _ | Iconstruct _ | Iliteral _ | Isection _
      | Iconcat _ | Icalluser _ | Impi_rank _ | Impi_size _ | Impi_send _
      | Impi_recv _ | Impi_bcast _ | Impi_probe _ | Iprint _ | Iprintf _
      | Ierror _ | Ibreak | Icontinue | Ireturn ->
          ())
    b

(* Variables read by a scalar expression. *)
let rec sexpr_uses acc = function
  | Sconst _ | Sstr _ -> acc
  | Svar v -> v :: acc
  | Sbin (_, a, b) -> sexpr_uses (sexpr_uses acc a) b
  | Sneg a | Snot a -> sexpr_uses acc a
  | Scall (_, args) -> List.fold_left sexpr_uses acc args
  | Sdim (v, _) -> v :: acc

let rec eexpr_uses acc = function
  | Emat v -> v :: acc
  | Eeye -> acc
  | Escalar s -> sexpr_uses acc s
  | Ebin (_, a, b) -> eexpr_uses (eexpr_uses acc a) b
  | Eneg a | Enot a -> eexpr_uses acc a
  | Ecall1 (_, a) -> eexpr_uses acc a
  | Ecall2 (_, a, b) -> eexpr_uses (eexpr_uses acc a) b

let sel_uses acc = function
  | Sel_all -> acc
  | Sel_scalar s -> sexpr_uses acc s
  | Sel_range (a, step, b) ->
      let acc = sexpr_uses acc a in
      let acc = match step with Some s -> sexpr_uses acc s | None -> acc in
      sexpr_uses acc b
  | Sel_vec v -> v :: acc

(* Variables read (not defined) by one instruction, non-recursively for
   control flow (conditions only). *)
let inst_uses = function
  | Iscalar (_, s) -> sexpr_uses [] s
  | Ielem { model; expr; _ } -> model :: eexpr_uses [] expr
  | Icopy (_, src) -> [ src ]
  | Ilib { fn; args; _ } -> (
      match fn with Lshift k -> args @ sexpr_uses [] k | _ -> args)
  | Ireduce_loc { arg; _ } -> [ arg ]
  | Isort { arg; _ } -> [ arg ]
  | Ibcast (_, m, idx) -> m :: List.fold_left sexpr_uses [] idx
  | Ibcast_batch (items, m) ->
      m
      :: List.fold_left
           (fun acc (_, idx) -> List.fold_left sexpr_uses acc idx)
           [] items
  | Ireduce_fused items ->
      List.concat_map
        (fun (_, r) ->
          match r with
          | Fsum m | Fmean m | Fnorm m -> [ m ]
          | Fdot (a, b) -> [ a; b ])
        items
  | Isetelem (m, idx, v) -> m :: sexpr_uses (List.fold_left sexpr_uses [] idx) v
  | Iload _ -> []
  | Iconstruct { args; _ } -> List.fold_left sexpr_uses [] args
  | Iliteral { elems; _ } -> List.fold_left sexpr_uses [] elems
  | Isection { src; sels; _ } -> src :: List.fold_left sel_uses [] sels
  | Isetsection { dst; sels; src } ->
      let acc = dst :: List.fold_left sel_uses [] sels in
      (match src with Ascalar s -> sexpr_uses acc s | Amat v -> v :: acc)
  | Iconcat { parts; _ } -> parts
  | Icalluser { args; _ } ->
      List.fold_left
        (fun acc -> function
          | Ascalar s -> sexpr_uses acc s
          | Amat v -> v :: acc)
        [] args
  | Impi_rank _ | Impi_size _ -> []
  | Impi_send (dest, tag, v) -> (
      let acc = sexpr_uses (sexpr_uses [] dest) tag in
      match v with Ascalar s -> sexpr_uses acc s | Amat m -> m :: acc)
  | Impi_recv (_, src, tag, _) | Impi_probe (_, src, tag) ->
      sexpr_uses (sexpr_uses [] src) tag
  | Impi_bcast (_, root, v) -> (
      let acc = sexpr_uses [] root in
      match v with Ascalar s -> sexpr_uses acc s | Amat m -> m :: acc)
  | Iprint (_, Pscalar s) -> sexpr_uses [] s
  | Iprint (_, Pmat v) -> [ v ]
  | Iprint (_, Pstr _) -> []
  | Iprintf args -> List.fold_left sexpr_uses [] args
  | Ierror _ -> []
  | Iif (branches, _) -> List.concat_map (fun (c, _) -> sexpr_uses [] c) branches
  | Iwhile (c, _) -> sexpr_uses [] c
  | Ifor (_, a, step, b, _) ->
      let acc = sexpr_uses (sexpr_uses [] a) b in
      (match step with Some s -> sexpr_uses acc s | None -> acc)
  | Ibreak | Icontinue | Ireturn -> []

(* Variables defined by one instruction (non-recursive). *)
let inst_defs = function
  | Iscalar (d, _) -> [ d ]
  | Ielem { dst; _ } -> [ dst ]
  | Icopy (d, _) | Ibcast (d, _, _) -> [ d ]
  | Ireduce_loc { vdst; idst; _ } -> [ vdst; idst ]
  | Ibcast_batch (items, _) -> List.map fst items
  | Ireduce_fused items -> List.map fst items
  | Isort { vdst; idst; _ } -> (
      match idst with Some i -> [ vdst; i ] | None -> [ vdst ])
  | Isetelem (m, _, _) -> [ m ] (* in-place update *)
  | Ilib { dst; _ } | Iconstruct { dst; _ } | Iliteral { dst; _ }
  | Isection { dst; _ } | Iconcat { dst; _ } | Iload { dst; _ } ->
      [ dst ]
  | Isetsection { dst; _ } -> [ dst ] (* in-place update *)
  | Icalluser { rets; _ } -> rets
  | Impi_rank d | Impi_size d | Impi_recv (d, _, _, _) | Impi_bcast (d, _, _)
  | Impi_probe (d, _, _) ->
      [ d ]
  | Impi_send _ -> []
  | Ifor (v, _, _, _, _) -> [ v ]
  | Iprint _ | Iprintf _ | Ierror _ | Iif _ | Iwhile _ | Ibreak | Icontinue
  | Ireturn ->
      []

(* Is the instruction free of observable effects other than its
   definitions?  Used by dead-code elimination. *)
let inst_pure = function
  | Iscalar _ | Ielem _ | Icopy _ | Ilib _ | Ibcast _ | Ibcast_batch _
  | Ireduce_fused _ | Iconstruct _ | Iliteral _ | Isection _ | Iconcat _
  | Ireduce_loc _ | Iload _ | Isort _ ->
      true
  | Isetelem _ | Isetsection _ | Icalluser _ | Impi_rank _ | Impi_size _
  | Impi_send _ | Impi_recv _ | Impi_bcast _ | Impi_probe _ | Iprint _
  | Iprintf _ | Ierror _ | Iif _ | Iwhile _ | Ifor _ | Ibreak | Icontinue
  | Ireturn ->
      false
