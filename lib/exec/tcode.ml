(* The pre-decoded threaded-code SPMD executor: the fast path.

   Walking the IR directly would pay on every instruction for
   environment hashes, constructor matches and closure rebuilding
   inside element loops.  This engine pays those costs once, in a
   decode pass, and then runs flat code:

   - variables are interned into array-indexed frame slots (a tag word,
     an unboxed float for scalars, a boxed value for matrices/strings);
   - scalar expressions become closure trees, one direct call per IR
     node, with builtins and operators resolved at decode time and the
     flop charge precomputed (operand counts are static because
     [&&]/[||] on replicated scalars evaluate both sides);
   - element-wise loops become a fetch prelude (operands resolved in
     tree order, so embedded broadcasts and conformance errors happen
     exactly where the IR tree puts them) plus a stack machine that runs
     each opcode over a block of consecutive local elements at a time
     (vector-at-a-time, as in MonetDB/X100): one dispatch per opcode per
     block, not per element;
   - control flow becomes resolved jump targets: an op returns the
     next pc, and break/continue inside decoded loops are plain jumps.

   Semantics follow the IR in tree order: evaluation order, flop
   charges, error messages and the checkpoint format (see [State]) are
   fixed, so modeled time and message counts are deterministic under
   verify, fuzz, and chaos recovery.  Decoding is
   per rank — preallocated operand buffers may be live across a
   communication suspension, so they cannot be shared between ranks.
   The element loops' block scratch, in contrast, is one array shared
   by every rank: a block loop performs no effect, so nothing else can
   run while it holds the scratch (see [scratch]). *)

open Spmd
module Dmat = Runtime.Dmat
module Ops = Runtime.Ops
module B = Analysis.Builtins

let error = State.error

type value = State.value =
  | Vscalar of float
  | Vmat of Dmat.t
  | Vstr of string

(* --- per-rank shared execution state ------------------------------------- *)

(* One per rank per attempt, shared by every frame of that rank (the
   top-level frame and each user-function call frame), which is what
   makes rand_calls copy-back across calls automatic. *)
type rstate = {
  out : Buffer.t;
  mutable rand_calls : int;
  calls : int ref;
  seed : int;
  datadir : string;
  rk : int;
  tix : int array; (* per-rank current trace id (indexes trace_names) *)
}

(* Failure attribution without per-instruction string writes: ops store
   a small int in [tix]; the name is only materialized if the rank
   dies.  Ids 0 and 1 are the engine's own states; the decoder interns
   every other [State.inst_name] on first use. *)
let trace_names = ref [| "startup"; "checkpoint vote" |]

let trace_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let tid_of_inst i =
  let n = State.inst_name i in
  match Hashtbl.find_opt trace_ids n with
  | Some id -> id
  | None ->
      let id = Array.length !trace_names in
      trace_names := Array.append !trace_names [| n |];
      Hashtbl.add trace_ids n id;
      id

(* --- frames --------------------------------------------------------------- *)

(* Slot tags. *)
let t_undef = 0

let t_scalar = 1

let t_mat = 2

let t_str = 3

let novalue = Vscalar nan

type frame = {
  tags : int array;
  sc : float array; (* unboxed scalar slots *)
  vals : value array; (* array / string slots; [novalue] elsewhere *)
  names : string array; (* slot -> variable name, "" for hidden slots *)
  st : rstate;
}

let sets fr slot x =
  fr.tags.(slot) <- t_scalar;
  fr.sc.(slot) <- x

let setm fr slot m =
  fr.tags.(slot) <- t_mat;
  fr.vals.(slot) <- Vmat m

let setstr fr slot s =
  fr.tags.(slot) <- t_str;
  fr.vals.(slot) <- Vstr s

let setv fr slot = function
  | Vscalar x -> sets fr slot x
  | v ->
      fr.tags.(slot) <- (match v with Vstr _ -> t_str | _ -> t_mat);
      fr.vals.(slot) <- v

let getv fr slot =
  match fr.tags.(slot) with
  | 1 -> Vscalar fr.sc.(slot)
  | 0 -> error "variable '%s' used before it is defined" fr.names.(slot)
  | _ -> fr.vals.(slot)

let read_scalar fr slot =
  match fr.tags.(slot) with
  | 1 -> fr.sc.(slot)
  | 2 -> (
      match fr.vals.(slot) with
      | Vmat m when Dmat.numel m = 1 -> Ops.bcast_elem m ~i:0 ~j:0
      | Vmat m when not (Dmat.is_matrix m) ->
          error "variable '%s' is a tensor where a scalar is required"
            fr.names.(slot)
      | _ ->
          error "variable '%s' is a matrix where a scalar is required"
            fr.names.(slot))
  | 3 ->
      error "variable '%s' is a string where a scalar is required"
        fr.names.(slot)
  | _ -> error "variable '%s' used before it is defined" fr.names.(slot)

(* The array in a slot, of any rank. *)
let arr_of fr slot =
  match fr.tags.(slot) with
  | 2 -> ( match fr.vals.(slot) with Vmat m -> m | _ -> assert false)
  | 1 ->
      error "variable '%s' is a scalar where a matrix is required"
        fr.names.(slot)
  | 3 ->
      error "variable '%s' is a string where a matrix is required"
        fr.names.(slot)
  | _ -> error "variable '%s' used before it is defined" fr.names.(slot)

(* The matrix in a slot: the operand of every matrix-only operation. *)
let mat_of fr slot =
  let m = arr_of fr slot in
  if not (Dmat.is_matrix m) then
    error "variable '%s' is a tensor where a matrix is required"
      fr.names.(slot);
  m

let dim_of fr slot code =
  (* codes: 0 numel, 1 rows (trailing cell), 2 cols (trailing cell),
     3 max over all dims, 4 leading frame extent (1 for a matrix) *)
  match fr.tags.(slot) with
  | 1 -> 1.
  | 3 -> error "size of a string"
  | 0 -> error "variable '%s' used before it is defined" fr.names.(slot)
  | _ -> (
      let m = arr_of fr slot in
      let dims = m.Dmat.dims in
      let r = Array.length dims in
      match code with
      | 0 -> float_of_int (Dmat.numel m)
      | 1 -> float_of_int dims.(r - 2)
      | 2 -> float_of_int dims.(r - 1)
      | 4 -> if r = 2 then 1. else float_of_int dims.(0)
      | _ -> float_of_int (Array.fold_left max 0 dims))

(* --- compiled scalar expressions ------------------------------------------- *)

(* A scalar expression compiles once, at decode, to a closure tree: one
   direct call per IR node, evaluating strictly left to right. *)
type cexpr = {
  r_nodes : int; (* IR nodes: one evaluation's share of [State.dispatched] *)
  r_nops : int; (* static flop charge *)
  r_fnops : float; (* the same, pre-converted for the charge call *)
  r_f : frame -> float;
}

(* Operator codes, shared by scalar expressions and element plans. *)
let bin_code (op : Mlang.Ast.binop) =
  match op with
  | Mlang.Ast.Add -> 10
  | Mlang.Ast.Sub -> 11
  | Mlang.Ast.Mul | Mlang.Ast.Emul -> 12
  | Mlang.Ast.Div | Mlang.Ast.Ediv -> 13
  | Mlang.Ast.Ldiv | Mlang.Ast.Eldiv -> 14
  | Mlang.Ast.Pow | Mlang.Ast.Epow -> 15
  | Mlang.Ast.Lt -> 16
  | Mlang.Ast.Le -> 17
  | Mlang.Ast.Gt -> 18
  | Mlang.Ast.Ge -> 19
  | Mlang.Ast.Eq -> 20
  | Mlang.Ast.Ne -> 21
  | Mlang.Ast.And | Mlang.Ast.Shortand -> 22
  | Mlang.Ast.Or | Mlang.Ast.Shortor -> 23

let truthy = State.truthy

let of_bool = State.of_bool

(* Run the compiled evaluator.  No charge: the caller decides
   (element-loop scalar subtrees are uncharged). *)
let exec_cexpr fr (r : cexpr) : float = r.r_f fr

(* Charged evaluation: evaluate fully, then charge the static
   operation count in one flops call. *)
let eval_cexpr fr r =
  State.dispatched := !State.dispatched + r.r_nodes;
  let v = r.r_f fr in
  if r.r_nops > 0 then Mpisim.Sim.flops r.r_fnops;
  v

(* --- decode context -------------------------------------------------------- *)

type code = { c_ops : (frame -> int) array; c_len : int }

(* Decoded user function: fresh frame per call (recursion-safe), code
   shared across calls on this rank. *)
type fentry = {
  fe_code : code;
  fe_nslots : int;
  fe_names : string array;
  fe_params : int list; (* parameter slots, in declaration order *)
  fe_rets : (int * string) list; (* return slots + names *)
  fe_fname : string;
}

type dctx = {
  slot_of : (string, int) Hashtbl.t;
  mutable nslots : int;
  mutable rnames : string list; (* slot names, newest first *)
  funcs : (string, Ir.func) Hashtbl.t;
  fdec : (string, fentry) Hashtbl.t; (* decoded on first call, per rank *)
  lst : Buffer.t option; (* decode listing accumulator *)
}

let slot dc name =
  match Hashtbl.find_opt dc.slot_of name with
  | Some s -> s
  | None ->
      let s = dc.nslots in
      dc.nslots <- s + 1;
      dc.rnames <- name :: dc.rnames;
      Hashtbl.add dc.slot_of name s;
      s

(* Hidden slots carry decoded loop state (iteration counter, frozen
   bounds): unnamed, and frame-resident, so recursive calls cannot
   clobber each other and a checkpoint snapshot of the top frame
   freezes a top-level for loop's bounds with it. *)
let hidden_slot dc =
  let s = dc.nslots in
  dc.nslots <- s + 1;
  dc.rnames <- "" :: dc.rnames;
  s

let frame_names dc = Array.of_list (List.rev dc.rnames)

let mk_frame ~nslots ~names st =
  {
    tags = Array.make nslots t_undef;
    sc = Array.make nslots 0.;
    vals = Array.make nslots novalue;
    names;
    st;
  }

(* --- compiling scalar expressions ------------------------------------------ *)

(* Decode-time failures (strings in numeric position, unknown builtins)
   become closures that first evaluate their operands, then raise, so
   errors surface in operand order. *)
let compile_sexpr dc (s : Ir.sexpr) : cexpr =
  let nodes = ref 0 and nops = ref 0 in
  let rec cc (s : Ir.sexpr) : frame -> float =
    incr nodes;
    match s with
    | Ir.Sconst f -> fun _ -> f
    | Ir.Sstr _ -> fun _ -> error "string literal in numeric context"
    | Ir.Svar v ->
        let sl = slot dc v in
        fun fr -> read_scalar fr sl
    | Ir.Sdim (v, code) ->
        let sl = slot dc v in
        let code = code land 7 in
        fun fr -> dim_of fr sl code
    | Ir.Sneg a ->
        incr nops;
        let fa = cc a in
        fun fr -> -.fa fr
    | Ir.Snot a ->
        incr nops;
        let fa = cc a in
        fun fr -> of_bool (not (truthy (fa fr)))
    | Ir.Sbin (op, a, b) -> (
        incr nops;
        let fa = cc a in
        let fb = cc b in
        match bin_code op with
        | 10 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              x +. y
        | 11 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              x -. y
        | 12 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              x *. y
        | 13 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              x /. y
        | 14 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              y /. x
        | 15 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              Float.pow x y
        | 16 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (x < y)
        | 17 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (x <= y)
        | 18 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (x > y)
        | 19 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (x >= y)
        | 20 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (x = y)
        | 21 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (x <> y)
        | 22 ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (truthy x && truthy y)
        | _ ->
            fun fr ->
              let x = fa fr in
              let y = fb fr in
              of_bool (truthy x || truthy y))
    | Ir.Scall (name, cargs) -> (
        incr nops;
        let fargs = List.map cc cargs in
        match (fargs, B.scalar1 name, B.scalar2 name) with
        | [ f1 ], Some f, _ -> fun fr -> f (f1 fr)
        | [ f1; f2 ], _, Some f ->
            fun fr ->
              let a = f1 fr in
              let b = f2 fr in
              f a b
        | _ ->
            (* an unknown name raises only when executed *)
            let m =
              Printf.sprintf "unknown scalar builtin '%s'/%d" name
                (List.length cargs)
            in
            fun fr ->
              List.iter (fun f -> ignore (f fr)) fargs;
              error "%s" m)
  in
  let f = cc s in
  { r_nodes = !nodes; r_nops = !nops; r_fnops = float_of_int !nops; r_f = f }

(* --- element-wise plans ---------------------------------------------------- *)

(* One fetch/eval step of an element plan's prelude, executed in tree
   order before the loop: operand matrices are bound (and conformance
   -checked) and scalar subtrees evaluated in IR tree order, so
   embedded broadcasts and errors keep their order. *)
type pstep =
  | Pfetch of int * int (* mats.(ix) <- data of matrix at slot *)
  | Peval of int * cexpr (* esc.(ix) <- uncharged scalar evaluation *)
  | Peye (* no-op for matrices; rejected in tree order under a tensor model *)

(* Element opcodes (argument meaning in parentheses):
     0 push esc scratch (index)        1 push operand element (operand index)
     2 negate                          3 logical not
     5 builtin, 1 arg ([e_f1] index)   6 builtin, 2 args ([e_f2] index)
     7 raise (message index)           8 push eye element
     10..23 binary operators ([bin_code]) *)
type eplan = {
  e_prelude : pstep array;
  e_ops : int array;
  e_a : int array;
  e_msgs : string array;
  e_f1 : (float -> float) array; (* builtins resolved at decode time *)
  e_f2 : (float -> float -> float) array;
  e_nops : int; (* per-element static charge *)
  e_nmat : int;
  e_nsc : int;
}

(* Local elements per block of an element loop. *)
let block = 256

(* The block scratch: one block-sized vector per stack level, shared by
   every frame of every rank.  Sharing is safe because [run_elements]
   performs no effect, so no other rank or frame can run while a loop
   holds the scratch: the operand prelude, which may suspend, finishes
   before the loop starts, and the flop charge after it is a direct
   [Sim.flops] update.  The operand buffers ([mats]/[mcell]/[esc]) are
   different: they are live across the prelude, so they stay
   rank-private. *)
let scratch : float array array ref = ref [||]

let ensure_scratch depth =
  let s = !scratch in
  if Array.length s < depth then
    scratch :=
      Array.init depth (fun k ->
          if k < Array.length s then s.(k) else Array.make block 0.)

let compile_eexpr dc (e : Ir.eexpr) : eplan =
  let prelude = ref [] in
  let ops = ref [] and args = ref [] in
  let msgs = ref [] and nmsg = ref 0 in
  let f1s = ref [] and nf1 = ref 0 in
  let f2s = ref [] and nf2 = ref 0 in
  let nops = ref 0 and nmat = ref 0 and nsc = ref 0 in
  let depth = ref 0 and maxd = ref 0 in
  let emit op a d =
    ops := op :: !ops;
    args := a :: !args;
    depth := !depth + d;
    if !depth > !maxd then maxd := !depth
  in
  let intern xs n x =
    xs := x :: !xs;
    incr n;
    !n - 1
  in
  let msg = intern msgs nmsg in
  let rec go (e : Ir.eexpr) =
    match e with
    | Ir.Emat v ->
        let ix = !nmat in
        incr nmat;
        prelude := Pfetch (ix, slot dc v) :: !prelude;
        emit 1 ix 1
    | Ir.Eeye ->
        prelude := Peye :: !prelude;
        emit 8 0 1
    | Ir.Escalar s ->
        let ix = !nsc in
        incr nsc;
        prelude := Peval (ix, compile_sexpr dc s) :: !prelude;
        emit 0 ix 1
    | Ir.Ebin (op, a, b) ->
        incr nops;
        go a;
        go b;
        emit (bin_code op) 0 (-1)
    | Ir.Eneg a ->
        incr nops;
        go a;
        emit 2 0 0
    | Ir.Enot a ->
        incr nops;
        go a;
        emit 3 0 0
    | Ir.Ecall1 (name, a) -> (
        incr nops;
        go a;
        match B.scalar1 name with
        | None ->
            emit 7 (msg (Printf.sprintf "unknown scalar builtin '%s'/1" name)) 1
        | Some f -> emit 5 (intern f1s nf1 f) 0)
    | Ir.Ecall2 (name, a, b) -> (
        incr nops;
        go a;
        go b;
        match B.scalar2 name with
        | None ->
            emit 7 (msg (Printf.sprintf "unknown scalar builtin '%s'/2" name)) 1
        | Some f -> emit 6 (intern f2s nf2 f) (-1))
  in
  go e;
  ensure_scratch !maxd;
  {
    e_prelude = Array.of_list (List.rev !prelude);
    e_ops = Array.of_list (List.rev !ops);
    e_a = Array.of_list (List.rev !args);
    e_msgs = Array.of_list (List.rev !msgs);
    e_f1 = Array.of_list (List.rev !f1s);
    e_f2 = Array.of_list (List.rev !f2s);
    e_nops = !nops;
    e_nmat = !nmat;
    e_nsc = !nsc;
  }

(* The element loop shared by matrix and tensor plans: [len] local
   elements of [out], one block of up to [block] consecutive elements
   at a time.  Each opcode runs over the whole block on the shared
   scratch: an operand load is a blit, each operator one tight loop.
   Every element still sees the same operations in the same order, so
   results are bit-identical to a per-element loop, and since the
   registry's scalar functions are total and pure, no error moves.
   Operand [a] reads its own element when [mcell.(a) = 0] and element
   [i mod mcell.(a)] otherwise (a frame broadcast); [eye b0 bl v]
   writes local elements [b0 .. b0+bl-1] of the identity into [v]. *)
let run_elements (p : eplan) ~(mats : float array array) ~(mcell : int array)
    ~(esc : float array) ~eye (out : float array) len =
  let st = !scratch in
  let ops = p.e_ops and args = p.e_a in
  let n = Array.length ops in
  let b0 = ref 0 in
  while !b0 < len do
    let lo = !b0 in
    let bl = min block (len - lo) in
    let sp = ref 0 in
    for k = 0 to n - 1 do
      let a = args.(k) in
      match ops.(k) with
      | 0 ->
          Array.fill st.(!sp) 0 bl esc.(a);
          incr sp
      | 1 ->
          let c = mcell.(a) and m = mats.(a) and v = st.(!sp) in
          if c = 0 then Array.blit m lo v 0 bl
          else begin
            let r = ref (lo mod c) in
            for j = 0 to bl - 1 do
              v.(j) <- m.(!r);
              r := if !r + 1 = c then 0 else !r + 1
            done
          end;
          incr sp
      | 8 ->
          eye lo bl st.(!sp);
          incr sp
      | 2 ->
          let v = st.(!sp - 1) in
          for j = 0 to bl - 1 do
            v.(j) <- -.v.(j)
          done
      | 3 ->
          let v = st.(!sp - 1) in
          for j = 0 to bl - 1 do
            v.(j) <- of_bool (not (truthy v.(j)))
          done
      | 5 ->
          let v = st.(!sp - 1) and f = p.e_f1.(a) in
          for j = 0 to bl - 1 do
            v.(j) <- f v.(j)
          done
      | 7 -> error "%s" p.e_msgs.(a)
      | op -> (
          (* binary: combine the top two vectors into the lower one *)
          decr sp;
          let x = st.(!sp - 1) and y = st.(!sp) in
          match op with
          | 6 ->
              let f = p.e_f2.(a) in
              for j = 0 to bl - 1 do
                x.(j) <- f x.(j) y.(j)
              done
          | 10 ->
              for j = 0 to bl - 1 do
                x.(j) <- x.(j) +. y.(j)
              done
          | 11 ->
              for j = 0 to bl - 1 do
                x.(j) <- x.(j) -. y.(j)
              done
          | 12 ->
              for j = 0 to bl - 1 do
                x.(j) <- x.(j) *. y.(j)
              done
          | 13 ->
              for j = 0 to bl - 1 do
                x.(j) <- x.(j) /. y.(j)
              done
          | 14 ->
              for j = 0 to bl - 1 do
                x.(j) <- y.(j) /. x.(j)
              done
          | 15 ->
              for j = 0 to bl - 1 do
                x.(j) <- Float.pow x.(j) y.(j)
              done
          | 16 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (x.(j) < y.(j))
              done
          | 17 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (x.(j) <= y.(j))
              done
          | 18 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (x.(j) > y.(j))
              done
          | 19 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (x.(j) >= y.(j))
              done
          | 20 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (x.(j) = y.(j))
              done
          | 21 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (x.(j) <> y.(j))
              done
          | 22 ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (truthy x.(j) && truthy y.(j))
              done
          | _ ->
              for j = 0 to bl - 1 do
                x.(j) <- of_bool (truthy x.(j) || truthy y.(j))
              done)
    done;
    Array.blit st.(0) 0 out lo bl;
    b0 := lo + bl
  done;
  Mpisim.Sim.flops (float_of_int (len * max 1 p.e_nops))

(* Local elements [b0 .. b0+bl-1] of the identity shaped like [model],
   into [v]. *)
let eye_block (model : Dmat.t) b0 bl (v : float array) =
  Dmat.iter_rc model ~lo:b0 ~len:bl (fun i r c ->
      v.(i - b0) <- (if r = c then 1.0 else 0.0))

(* "AxBxC" *)
let shape (m : Dmat.t) =
  String.concat "x" (Array.to_list (Array.map string_of_int m.Dmat.dims))

(* Execute a plan over [model]'s local elements into [dst], an array
   shaped like it.  [mats]/[mcell]/[esc] are the decode-time
   preallocated operand buffers (per rank, so a suspension inside the
   prelude cannot interleave with another rank's use of them).  The
   operands follow the frame/cell rule of [Interp.Eval.zip]: an array of
   the model's dims reads its own local element; under a rank >= 3
   model, a scalar lifts and a lower-rank array whose dims are a suffix
   of the model's (its cell) is frame-broadcast, an [i mod cell] read of
   its dense form (a leading slice holds whole cells).  A matrix model
   takes matrices of its own dims only. *)
let exec_eplan fr (p : eplan) ~(mats : float array array)
    ~(mcell : int array) ~(esc : float array) ~(model : Dmat.t) ~(dst : Dmat.t) =
  let tensor = not (Dmat.is_matrix model) in
  Array.iter
    (fun step ->
      match step with
      | Pfetch (ix, s) when tensor && fr.tags.(s) = t_scalar ->
          mats.(ix) <- [| fr.sc.(s) |];
          mcell.(ix) <- 1
      | Pfetch (ix, s) ->
          let m = if tensor then arr_of fr s else mat_of fr s in
          if Dmat.same_dims m model then begin
            if not (Dmat.same_locality m model) then
              error
                "cannot mix a replicated (message-passing) matrix with a \
                 distributed one element-wise; MPI_Bcast the distributed \
                 operand first";
            mats.(ix) <- m.Dmat.data;
            mcell.(ix) <- 0
          end
          else begin
            let r = Dmat.rank m and rm = Dmat.rank model in
            if not (r < rm && Array.sub model.Dmat.dims (rm - r) r = m.Dmat.dims)
            then
              error "nonconformant element-wise operands (%s vs %s)" (shape m)
                (shape model);
            mats.(ix) <- Dmat.to_dense m;
            mcell.(ix) <- Dmat.numel m
          end
      | Peval (ix, r) -> esc.(ix) <- exec_cexpr fr r
      | Peye -> if tensor then error "eye has no rank-N form")
    p.e_prelude;
  run_elements p ~mats ~mcell ~esc ~eye:(eye_block model) dst.Dmat.data
    (Dmat.local_len dst)

(* --- the code buffer ------------------------------------------------------- *)

(* Ops take the frame as an argument (user-function code is shared by
   every call frame on the rank) and return the next pc; jump targets
   are int refs patched once the target address is known. *)
type codebuf = {
  mutable arr : (frame -> int) array;
  mutable len : int;
  lstb : Buffer.t option;
}

let newbuf lst = { arr = Array.make 64 (fun _ -> 0); len = 0; lstb = lst }

let emit cb name (mk : int -> frame -> int) =
  if cb.len = Array.length cb.arr then begin
    let bigger = Array.make (2 * cb.len) cb.arr.(0) in
    Array.blit cb.arr 0 bigger 0 cb.len;
    cb.arr <- bigger
  end;
  let ix = cb.len in
  cb.len <- ix + 1;
  (match cb.lstb with
  | Some b -> Buffer.add_string b (Printf.sprintf "%4d  %s\n" ix name)
  | None -> ());
  cb.arr.(ix) <- mk ix;
  ix

(* A straight-line op: do the work, fall through. *)
let op1 cb name (f : frame -> unit) =
  ignore
    (emit cb name (fun ix ->
         let nx = ix + 1 in
         fun fr ->
           f fr;
           nx))

(* A straight-line op with trace attribution. *)
let plain cb name tid (f : frame -> unit) =
  op1 cb name (fun fr ->
      fr.st.tix.(fr.st.rk) <- tid;
      f fr)

(* A run-time library call: attribution + the per-rank call counter the
   bench ablation prices. *)
let lib cb name tid (f : frame -> unit) =
  op1 cb name (fun fr ->
      fr.st.tix.(fr.st.rk) <- tid;
      incr fr.st.calls;
      f fr)

let finish cb = { c_ops = Array.sub cb.arr 0 cb.len; c_len = cb.len }

(* The dispatch loop.  Every pc an op returns is either an emitted
   index (>= 0, < len) or the code length (fall off the end), so the
   loop condition is the only bounds check needed. *)
let run_code ?(from = 0) (c : code) fr =
  let pc = ref from in
  let n = ref 0 in
  let stop = c.c_len in
  let ops = c.c_ops in
  try
    while !pc < stop do
      pc := (Array.unsafe_get ops !pc) fr;
      incr n
    done;
    State.dispatched := !State.dispatched + !n
  with e ->
    State.dispatched := !State.dispatched + !n;
    raise e

(* --- indices and selectors ------------------------------------------------- *)

(* The (i, j) address of an element (see [Dmat.owner]).  MATLAB
   indices are 1-based; a matrix takes one subscript (linear indexing,
   column-major) or two, and a rank-N array exactly N, bounds-checked
   and folded into the offset within their leading slice.  Index
   expressions evaluate left to right, so any embedded broadcast
   happens in a fixed order on every rank. *)
let coords fr (m : Dmat.t) (idx : cexpr list) =
  match idx with
  | [ i ] when Dmat.is_matrix m ->
      let g = int_of_float (eval_cexpr fr i) - 1 in
      if m.Dmat.rows = 1 then (0, g)
      else if m.Dmat.cols = 1 then (g, 0)
      else (g mod m.Dmat.rows, g / m.Dmat.rows)
  | [ i; j ] when Dmat.is_matrix m ->
      let a = int_of_float (eval_cexpr fr i) - 1 in
      let b = int_of_float (eval_cexpr fr j) - 1 in
      (a, b)
  | _ when Dmat.is_matrix m -> error "unsupported number of indices"
  | _ ->
      let dims = m.Dmat.dims in
      let r = Array.length dims in
      if List.length idx <> r then
        error
          "a rank-%d tensor must be indexed with exactly %d subscripts (got %d)"
          r r (List.length idx);
      let ix = List.map (fun i -> int_of_float (eval_cexpr fr i) - 1) idx in
      let j = ref 0 in
      List.iteri
        (fun axis i ->
          if i < 0 || i >= dims.(axis) then
            error "tensor index %d out of bounds (extent %d, axis %d)" (i + 1)
              dims.(axis) (axis + 1);
          if axis > 0 then j := (!j * dims.(axis)) + i)
        ix;
      (List.hd ix, !j)

type dsel =
  | Dall
  | Dscalar of cexpr
  | Drange of cexpr * cexpr option * cexpr
  | Dvec of int

let compile_sel dc (s : Ir.sel) : dsel =
  match s with
  | Ir.Sel_all -> Dall
  | Ir.Sel_scalar e -> Dscalar (compile_sexpr dc e)
  | Ir.Sel_range (lo, st, hi) ->
      Drange
        (compile_sexpr dc lo, Option.map (compile_sexpr dc) st,
         compile_sexpr dc hi)
  | Ir.Sel_vec v -> Dvec (slot dc v)

let sel_exec fr (extent : int) (s : dsel) : int array =
  match s with
  | Dall -> Array.init extent (fun i -> i)
  | Dscalar r -> [| int_of_float (eval_cexpr fr r) - 1 |]
  | Drange (lo, step, hi) ->
      let lo = eval_cexpr fr lo in
      let step = match step with Some s -> eval_cexpr fr s | None -> 1. in
      let hi = eval_cexpr fr hi in
      State.range_indices lo step hi
  | Dvec s ->
      let m = mat_of fr s in
      let dense = Dmat.to_dense m in
      Array.map (fun f -> int_of_float f - 1) dense

(* --- printing --------------------------------------------------------------- *)

let is_root fr = fr.st.rk = 0

let print_scalar fr name v =
  if is_root fr then
    if name = "" then Buffer.add_string fr.st.out (Printf.sprintf "%g\n" v)
    else Buffer.add_string fr.st.out (Printf.sprintf "%s = %g\n" name v)

let print_str fr name s =
  if is_root fr then
    if name = "" then Buffer.add_string fr.st.out (s ^ "\n")
    else Buffer.add_string fr.st.out (Printf.sprintf "%s = %s\n" name s)

(* --- section / concat execution ------------------------------------------------ *)

(* One selector per axis: two for a matrix, N for a rank-N array. *)
let axis_sels fr (m : Dmat.t) (sels : dsel list) =
  let r = Dmat.rank m in
  if List.length sels <> r then
    if r = 2 then error "unsupported number of index selectors"
    else
      error "a rank-%d tensor must be sectioned with exactly %d subscripts" r r;
  Array.of_list
    (List.mapi (fun axis s -> sel_exec fr m.Dmat.dims.(axis) s) sels)

let exec_section fr dslot sslot (sels : dsel list) =
  let m = arr_of fr sslot in
  match sels with
  | [ s ] when Dmat.is_matrix m ->
      if not (Dmat.is_vector m) then
        error "linear sections of a full matrix are not supported";
      let n = Dmat.numel m in
      let idx = sel_exec fr n s in
      let len = Array.length idx in
      let rows, cols = if m.Dmat.cols = 1 then (len, 1) else (1, len) in
      setm fr dslot (Ops.section_linear m idx ~rows ~cols)
  | _ -> setm fr dslot (Ops.section m (axis_sels fr m sels))

type dsrc = DSscalar of cexpr | DSmat of int

(* Section assignment.  An array source is gathered once and must have
   as many elements as the selection; a rank >= 3 target also takes a
   scalar variable as its source.  A matrix target reads its source
   before its selectors, a rank >= 3 one after them (and checks the
   source's size before gathering it): each order fixes where the
   selectors' flops fall against the gather, which the modeled clocks
   are pinned to. *)
let exec_setsection fr dslot (sels : dsel list) (src : dsrc) =
  let m = arr_of fr dslot in
  let tensor = not (Dmat.is_matrix m) in
  let early = if tensor then Some (axis_sels fr m sels) else None in
  let selected idxs = Array.fold_left (fun n s -> n * Array.length s) 1 idxs in
  let check_len l n = if l <> n then error "section assignment size mismatch" in
  let value, src_len =
    match src with
    | DSscalar r ->
        let c = eval_cexpr fr r in
        ((fun _ -> c), None)
    | DSmat s when tensor && fr.tags.(s) = t_scalar ->
        let c = fr.sc.(s) in
        ((fun _ -> c), None)
    | DSmat s ->
        let sm = if tensor then arr_of fr s else mat_of fr s in
        if not (Dmat.same_locality m sm) then
          error
            "section assignment cannot mix a replicated (message-passing) \
             matrix with a distributed one";
        Option.iter (fun idxs -> check_len (Dmat.numel sm) (selected idxs)) early;
        let dense = Dmat.to_dense sm in
        ((fun k -> dense.(k)), Some (Dmat.numel sm))
  in
  let check_src_len n = Option.iter (fun l -> check_len l n) src_len in
  match (sels, early) with
  | [ s ], None ->
      if not (Dmat.is_vector m) then
        error "linear section assignment on a full matrix is not supported";
      let n = Dmat.numel m in
      let idx = sel_exec fr n s in
      check_src_len (Array.length idx);
      Array.iteri
        (fun k g ->
          if g < 0 || g >= n then error "index out of bounds";
          let i, j = if m.Dmat.cols = 1 then (g, 0) else (0, g) in
          if Dmat.owner m ~i ~j then Dmat.set_local m ~i ~j (value k))
        idx;
      Mpisim.Sim.flops (float_of_int (Array.length idx))
  | _ ->
      let idxs =
        match early with Some idxs -> idxs | None -> axis_sels fr m sels
      in
      check_src_len (selected idxs);
      Ops.set_section m idxs value

let exec_concat fr dslot grid_rows grid_cols (parts : int list) =
  let blocks = List.map (fun s -> mat_of fr s) parts in
  let n_full = List.length (List.filter (fun b -> b.Dmat.full) blocks) in
  if n_full > 0 && n_full < List.length blocks then
    error
      "matrix literal cannot mix replicated (message-passing) matrices with \
       distributed ones";
  let dense_blocks = List.map (fun b -> (b, Dmat.to_dense b)) blocks in
  let grid0 =
    Array.init grid_rows (fun i ->
        Array.init grid_cols (fun j ->
            List.nth dense_blocks ((i * grid_cols) + j)))
  in
  let grid =
    Array.to_list grid0
    |> List.filter_map (fun row ->
           match
             List.filter (fun (b, _) -> Dmat.numel b > 0) (Array.to_list row)
           with
           | [] -> None
           | kept -> Some (Array.of_list kept))
    |> Array.of_list
  in
  if Array.length grid = 0 then setm fr dslot (Dmat.create ~rows:0 ~cols:0)
  else begin
    let row_heights =
      Array.map
        (fun row ->
          let h = (fst row.(0)).Dmat.rows in
          Array.iter
            (fun (b, _) ->
              if b.Dmat.rows <> h then
                error "inconsistent row counts in matrix literal")
            row;
          h)
        grid
    in
    let total_cols =
      Array.fold_left (fun acc (b, _) -> acc + b.Dmat.cols) 0 grid.(0)
    in
    Array.iter
      (fun row ->
        let w = Array.fold_left (fun acc (b, _) -> acc + b.Dmat.cols) 0 row in
        if w <> total_cols then
          error "inconsistent column counts in matrix literal")
      grid;
    let total_rows = Array.fold_left ( + ) 0 row_heights in
    let out = Array.make (total_rows * total_cols) 0. in
    let roff = ref 0 in
    Array.iter
      (fun row ->
        let h = (fst row.(0)).Dmat.rows in
        let coff = ref 0 in
        Array.iter
          (fun (b, data) ->
            for i = 0 to h - 1 do
              Array.blit data (i * b.Dmat.cols) out
                (((!roff + i) * total_cols) + !coff)
                b.Dmat.cols
            done;
            coff := !coff + b.Dmat.cols)
          row;
        roff := !roff + h)
      grid;
    Mpisim.Sim.flops (float_of_int (total_rows * total_cols));
    let m =
      if n_full > 0 then Dmat.of_full ~rows:total_rows ~cols:total_cols out
      else Dmat.of_dense ~rows:total_rows ~cols:total_cols out
    in
    setm fr dslot m
  end

(* --- constructors ------------------------------------------------------------ *)

(* zeros, ones, rand and randn take one size (square), two, or three
   or more (a rank-N array); rand/randn advance the replicated sequence
   number before their sizes evaluate. *)
let exec_construct fr dslot (kind : Ir.ckind) (rargs : cexpr list) =
  let arg n = List.nth rargs n in
  let dims () =
    let size r = int_of_float (eval_cexpr fr r) in
    match rargs with
    | [ n ] ->
        let n = size n in
        [| n; n |]
    | _ :: _ :: rest when rest = [] || kind <> Ir.Ceye ->
        Array.of_list (List.map size rargs)
    | _ -> error "constructor expects 1 or 2 size arguments"
  in
  let seed () =
    fr.st.rand_calls <- fr.st.rand_calls + 1;
    fr.st.seed + fr.st.rand_calls
  in
  let m =
    match kind with
    | Ir.Czeros -> Dmat.create_dims (dims ())
    | Ir.Cones -> Dmat.init_dims (dims ()) (fun _ -> 1.)
    | Ir.Ceye ->
        let d = dims () in
        Dmat.init_rc ~rows:d.(0) ~cols:d.(1) (fun i j -> if i = j then 1. else 0.)
    | Ir.Crand ->
        let seed = seed () in
        Dmat.init_dims (dims ()) (fun g -> Mpisim.Rng.uniform ~seed g)
    | Ir.Crandn ->
        let seed = seed () in
        Dmat.init_dims (dims ()) (fun g -> Mpisim.Rng.normal ~seed g)
    | Ir.Clinspace ->
        let a = eval_cexpr fr (arg 0) in
        let b = eval_cexpr fr (arg 1) in
        let n = int_of_float (eval_cexpr fr (arg 2)) in
        let d = if n > 1 then (b -. a) /. float_of_int (n - 1) else 0. in
        Dmat.init ~rows:1 ~cols:n (fun g -> a +. (float_of_int g *. d))
    | Ir.Crange ->
        let lo = eval_cexpr fr (arg 0) in
        let step = eval_cexpr fr (arg 1) in
        let hi = eval_cexpr fr (arg 2) in
        let n =
          if step = 0. then 0
          else
            let raw = ((hi -. lo) /. step) +. 1e-9 in
            if raw < 0. then 0 else int_of_float (Float.floor raw) + 1
        in
        Dmat.init ~rows:1 ~cols:(max n 0) (fun g ->
            lo +. (float_of_int g *. step))
  in
  let len = Dmat.local_len m in
  if len > 0 then Mpisim.Sim.flops (float_of_int len);
  setm fr dslot m

(* --- decoded call arguments --------------------------------------------------- *)

type darg = Dstr of string | Dcexpr of cexpr | Dmarg of int

type dfused = DFsum of int | DFmean of int | DFdot of int * int | DFnorm of int

type dprintf = DPstr of string | DPcexpr of cexpr

(* --- checkpoint boundaries ---------------------------------------------------- *)

(* A boundary op votes on a snapshot (see [State.at_boundary]) and
   falls through.  The snapshot is the top frame copied by slot —
   hidden loop slots included, so a top-level for loop's frozen bounds
   and counter come back with it — plus [resume], the pc a replay
   starts from. *)
let checkpoint cb (ck : State.ck) ~resume =
  let save fr () =
    ( Array.copy fr.tags,
      Array.copy fr.sc,
      Array.mapi
        (fun i v -> if fr.tags.(i) >= t_mat then State.copy_value v else novalue)
        fr.vals )
  in
  op1 cb "checkpoint" (fun fr ->
      let st = fr.st in
      st.tix.(st.rk) <- 1 (* checkpoint vote *);
      State.at_boundary ck ~rk:st.rk ~save:(save fr) ~rand_calls:st.rand_calls
        ~calls:!(st.calls) ~out:st.out resume)

(* --- the instruction decoder --------------------------------------------------- *)

(* [lp] is the enclosing decoded loop's (break, continue) jump targets,
   [fend] the end target of the enclosing function or script for
   [return].  Outside any decoded loop, break/continue fall back to the
   [State] control exceptions, which user-call ops re-convert to jumps
   — so a break inside a callee exits the caller's loop.  [ck], given
   for a top-level loop under checkpointing, puts a boundary op at the
   top of every iteration. *)
let rec decode_inst ?ck dc cb ~lp ~fend (i : Ir.inst) =
  let tid = tid_of_inst i in
  match i with
  | Ir.Iscalar (v, Ir.Sstr s) ->
      let d = slot dc v in
      plain cb (Printf.sprintf "str %s" v) tid (fun fr -> setstr fr d s)
  | Ir.Iscalar (v, Ir.Svar w) ->
      let d = slot dc v in
      let ws = slot dc w in
      let r = compile_sexpr dc (Ir.Svar w) in
      plain cb (Printf.sprintf "scalar %s <- %s" v w) tid (fun fr ->
          if fr.tags.(ws) = t_str then begin
            fr.tags.(d) <- t_str;
            fr.vals.(d) <- fr.vals.(ws)
          end
          else sets fr d (eval_cexpr fr r))
  | Ir.Iscalar (v, s) ->
      let d = slot dc v in
      let r = compile_sexpr dc s in
      (* the hottest op there is: flattened to a single closure *)
      ignore
        (emit cb (Printf.sprintf "scalar %s" v) (fun ix ->
             let nx = ix + 1 in
             fun fr ->
               fr.st.tix.(fr.st.rk) <- tid;
               sets fr d (eval_cexpr fr r);
               nx))
  | Ir.Ielem { dst; model; expr } ->
      let d = slot dc dst in
      let ms = slot dc model in
      let p = compile_eexpr dc expr in
      let mats = Array.make (max 1 p.e_nmat) [||] in
      let mcell = Array.make (max 1 p.e_nmat) 0 in
      let esc = Array.make (max 1 p.e_nsc) 0. in
      plain cb (Printf.sprintf "elem %s" dst) tid (fun fr ->
          let m = arr_of fr ms in
          let r = Dmat.create_like m in
          exec_eplan fr p ~mats ~mcell ~esc ~model:m ~dst:r;
          setm fr d r)
  | Ir.Icopy (d, s) ->
      let ds = slot dc d in
      let ss = slot dc s in
      lib cb (Printf.sprintf "copy %s <- %s" d s) tid (fun fr ->
          match getv fr ss with
          | Vmat m ->
              Mpisim.Sim.flops (float_of_int (Dmat.local_len m));
              setm fr ds (Dmat.copy m)
          | v -> setv fr ds v)
  | Ir.Ilib { dst; fn; args } ->
      (* the call is resolved here, once: the op runs one closure *)
      let d = slot dc dst in
      let mat1 f a fr = setm fr d (f (mat_of fr a)) in
      let mat2 f a b fr = setm fr d (f (mat_of fr a) (mat_of fr b)) in
      let sc1 f a fr = sets fr d (f (mat_of fr a)) in
      let op, run =
        match (fn, List.map (slot dc) args) with
        | Ir.Lmatmul, [ a; b ] -> ("matmul", mat2 Ops.matmul a b)
        | Ir.Lmatmul_t, [ a; b ] -> ("matmul_t", mat2 Ops.matmul_t a b)
        | Ir.Louter, [ a; b ] -> ("outer", mat2 Ops.outer a b)
        | Ir.Ldot, [ a; b ] ->
            ("dot", fun fr -> sets fr d (Ops.dot (mat_of fr a) (mat_of fr b)))
        | Ir.Ltranspose, [ a ] -> ("transpose", mat1 Ops.transpose a)
        | Ir.Ldiag, [ a ] -> ("diag", mat1 Ops.diag a)
        | Ir.Lnorm, [ a ] -> ("norm", sc1 Ops.norm2 a)
        | Ir.Lreduce_all k, [ a ] ->
            let f =
              match k with
              | Ir.Rmean -> Ops.mean_all
              | _ -> Ops.reduce_all (State.rkind_to_red k)
            in
            ("reduce_all", fun fr -> sets fr d (f (arr_of fr a)))
        | Ir.Lreduce_cols Ir.Rmean, [ a ] ->
            ("reduce_cols", mat1 Ops.mean_cols a)
        | Ir.Lreduce_cols k, [ a ] ->
            ("reduce_cols", mat1 (Ops.reduce_cols (State.rkind_to_red k)) a)
        | Ir.Lscan Ir.Scumsum, [ a ] ->
            ("scan", mat1 (Ops.cumulative Ops.Cumsum) a)
        | Ir.Lscan Ir.Scumprod, [ a ] ->
            ("scan", mat1 (Ops.cumulative Ops.Cumprod) a)
        | Ir.Ltrapz, [ y ] -> ("trapz", sc1 (Ops.trapz ?x:None) y)
        | Ir.Ltrapz, [ x; y ] ->
            ( "trapz",
              fun fr ->
                let x = mat_of fr x in
                sets fr d (Ops.trapz ~x (mat_of fr y)) )
        | Ir.Lshift k, [ a ] ->
            let rk = compile_sexpr dc k in
            ( "shift",
              fun fr ->
                let k = int_of_float (eval_cexpr fr rk) in
                setm fr d (Ops.circshift (mat_of fr a) k) )
        | _ -> invalid_arg "Tcode: library call with the wrong operand count"
      in
      lib cb (Printf.sprintf "%s %s" op dst) tid run
  | Ir.Isort { vdst; idst; arg } ->
      let vs = slot dc vdst and sa = slot dc arg in
      let is = Option.map (slot dc) idst in
      let with_index = idst <> None in
      lib cb (Printf.sprintf "sort %s" vdst) tid (fun fr ->
          let sorted, perm = Ops.sort_vector ~with_index (mat_of fr sa) in
          setm fr vs sorted;
          match (is, perm) with
          | Some d, Some p -> setm fr d p
          | None, _ -> ()
          | Some _, None -> assert false)
  | Ir.Ireduce_loc { vdst; idst; kind; arg } ->
      let vs = slot dc vdst and is = slot dc idst and sa = slot dc arg in
      let op = State.rkind_to_red kind in
      lib cb (Printf.sprintf "reduce_loc %s" vdst) tid (fun fr ->
          let v, ix = Ops.reduce_with_index op (mat_of fr sa) in
          sets fr vs v;
          sets fr is (float_of_int ix))
  | Ir.Ibcast (d, m, idx) ->
      let ds = slot dc d and ms = slot dc m in
      let ridx = List.map (compile_sexpr dc) idx in
      lib cb (Printf.sprintf "bcast %s" d) tid (fun fr ->
          let mm = arr_of fr ms in
          let i, j = coords fr mm ridx in
          sets fr ds (Ops.bcast_elem mm ~i ~j))
  | Ir.Ibcast_batch (items, m) ->
      let ms = slot dc m in
      let ditems =
        List.map
          (fun (d, idx) -> (slot dc d, List.map (compile_sexpr dc) idx))
          items
      in
      lib cb (Printf.sprintf "bcast_batch x%d" (List.length items)) tid
        (fun fr ->
          let mm = mat_of fr ms in
          let cs = List.map (fun (_, ridx) -> coords fr mm ridx) ditems in
          let values = Ops.bcast_elems mm cs in
          List.iteri (fun k (d, _) -> sets fr d values.(k)) ditems)
  | Ir.Ireduce_fused items ->
      let ditems =
        List.map
          (fun (d, r) ->
            ( slot dc d,
              match r with
              | Ir.Fsum m -> DFsum (slot dc m)
              | Ir.Fmean m -> DFmean (slot dc m)
              | Ir.Fdot (a, b) -> DFdot (slot dc a, slot dc b)
              | Ir.Fnorm m -> DFnorm (slot dc m) ))
          items
      in
      lib cb (Printf.sprintf "reduce_fused x%d" (List.length items)) tid
        (fun fr ->
          let fslots =
            List.map
              (fun (_, r) ->
                match r with
                | DFsum m -> Ops.Fsum (mat_of fr m)
                | DFmean m -> Ops.Fmean (mat_of fr m)
                | DFdot (a, b) -> Ops.Fdot (mat_of fr a, mat_of fr b)
                | DFnorm m -> Ops.Fnorm (mat_of fr m))
              ditems
          in
          let values = Ops.reduce_fused fslots in
          List.iteri (fun k (d, _) -> sets fr d values.(k)) ditems)
  | Ir.Isetelem (m, idx, v) ->
      let ms = slot dc m in
      let ridx = List.map (compile_sexpr dc) idx in
      let rv = compile_sexpr dc v in
      lib cb (Printf.sprintf "setelem %s" m) tid (fun fr ->
          let mm = arr_of fr ms in
          let i, j = coords fr mm ridx in
          let value = eval_cexpr fr rv in
          Ops.set_elem mm ~i ~j value)
  | Ir.Iload { dst; file } ->
      let ds = slot dc dst in
      lib cb (Printf.sprintf "load %s" dst) tid (fun fr ->
          let path = Filename.concat fr.st.datadir file in
          match Mlang.Datafile.read path with
          | rows, cols, data ->
              Mpisim.Sim.flops (float_of_int (rows * cols));
              setm fr ds (Dmat.of_dense ~rows ~cols data)
          | exception Mlang.Datafile.Bad_data msg ->
              error "load(%S): %s" file msg)
  | Ir.Iconstruct { dst; kind; args } ->
      let ds = slot dc dst in
      let rargs = List.map (compile_sexpr dc) args in
      lib cb (Printf.sprintf "construct %s" dst) tid (fun fr ->
          exec_construct fr ds kind rargs)
  | Ir.Iliteral { dst; rows; cols; elems } ->
      let ds = slot dc dst in
      let relems = List.map (compile_sexpr dc) elems in
      lib cb (Printf.sprintf "literal %s %dx%d" dst rows cols) tid (fun fr ->
          let values = List.map (eval_cexpr fr) relems in
          let dense = Array.of_list values in
          setm fr ds (Dmat.of_dense ~rows ~cols dense))
  | Ir.Isection { dst; src; sels } ->
      let ds = slot dc dst and ss = slot dc src in
      let dsels = List.map (compile_sel dc) sels in
      lib cb (Printf.sprintf "section %s" dst) tid (fun fr ->
          exec_section fr ds ss dsels)
  | Ir.Isetsection { dst; sels; src } ->
      let ds = slot dc dst in
      let dsels = List.map (compile_sel dc) sels in
      let dsrc =
        match src with
        | Ir.Ascalar s -> DSscalar (compile_sexpr dc s)
        | Ir.Amat v -> DSmat (slot dc v)
      in
      lib cb (Printf.sprintf "setsection %s" dst) tid (fun fr ->
          exec_setsection fr ds dsels dsrc)
  | Ir.Iconcat { dst; grid_rows; grid_cols; parts } ->
      let ds = slot dc dst in
      let pslots = List.map (slot dc) parts in
      lib cb (Printf.sprintf "concat %s" dst) tid (fun fr ->
          exec_concat fr ds grid_rows grid_cols pslots)
  | Ir.Icalluser { rets; name; args } ->
      let ret_slots = List.map (slot dc) rets in
      let dargs =
        List.map
          (fun a ->
            match a with
            | Ir.Ascalar (Ir.Sstr s) -> Dstr s
            | Ir.Ascalar s -> Dcexpr (compile_sexpr dc s)
            | Ir.Amat v -> Dmarg (slot dc v))
          args
      in
      let nargs = List.length args in
      let label = Printf.sprintf "call %s/%d" name nargs in
      (match lp with
      | None ->
          plain cb label tid (fun fr ->
              exec_call_t dc fr name nargs dargs ret_slots)
      | Some (btgt, ctgt) ->
          (* catch break/continue escaping the callee and turn them back
             into the enclosing loop's jumps *)
          ignore
            (emit cb label (fun ix ->
                 let nx = ix + 1 in
                 fun fr ->
                   fr.st.tix.(fr.st.rk) <- tid;
                   match exec_call_t dc fr name nargs dargs ret_slots with
                   | () -> nx
                   | exception State.Break_exc -> !btgt
                   | exception State.Continue_exc -> !ctgt)))
  | Ir.Iprint (name, Ir.Pscalar (Ir.Svar v)) ->
      let vs = slot dc v in
      let r = compile_sexpr dc (Ir.Svar v) in
      plain cb (Printf.sprintf "print %s" v) tid (fun fr ->
          if fr.tags.(vs) = t_str then
            match fr.vals.(vs) with
            | Vstr s -> print_str fr name s
            | _ -> assert false
          else print_scalar fr name (eval_cexpr fr r))
  | Ir.Iprint (name, Ir.Pscalar s) ->
      let r = compile_sexpr dc s in
      plain cb "print scalar" tid (fun fr -> print_scalar fr name (eval_cexpr fr r))
  | Ir.Iprint (name, Ir.Pmat v) ->
      let vs = slot dc v in
      plain cb (Printf.sprintf "print mat %s" v) tid (fun fr ->
          match Dmat.format_root ~root:0 ~name (arr_of fr vs) with
          | Some text when is_root fr -> Buffer.add_string fr.st.out text
          | _ -> ())
  | Ir.Iprint (name, Ir.Pstr s) ->
      plain cb "print str" tid (fun fr -> print_str fr name s)
  | Ir.Iprintf args -> (
      match args with
      | Ir.Sstr fmt :: rest ->
          let dargs =
            List.map
              (fun a ->
                match a with
                | Ir.Sstr s -> DPstr s
                | _ -> DPcexpr (compile_sexpr dc a))
              rest
          in
          plain cb "printf" tid (fun fr ->
              let values =
                List.map
                  (fun a ->
                    match a with
                    | DPstr s -> Mlang.Fmtutil.S s
                    | DPcexpr r -> Mlang.Fmtutil.F (eval_cexpr fr r))
                  dargs
              in
              if is_root fr then
                Buffer.add_string fr.st.out (Mlang.Fmtutil.format fmt values))
      | _ ->
          plain cb "printf (bad fmt)" tid (fun _ ->
              error "fprintf: first argument must be a format string"))
  | Ir.Ierror msg ->
      plain cb "error" tid (fun _ -> error "%s" msg)
  | Ir.Iif (branches, els) ->
      let endt = ref (-1) in
      List.iter
        (fun (c, blk) ->
          let r = compile_sexpr dc c in
          let nextt = ref (-1) in
          ignore
            (emit cb "if cond" (fun ix ->
                 let nx = ix + 1 in
                 fun fr ->
                   fr.st.tix.(fr.st.rk) <- tid;
                   if truthy (eval_cexpr fr r) then nx else !nextt));
          decode_block dc cb ~lp ~fend blk;
          ignore (emit cb "jump endif" (fun _ _ -> !endt));
          nextt := cb.len)
        branches;
      decode_block dc cb ~lp ~fend els;
      endt := cb.len
  | Ir.Iwhile (c, blk) ->
      let r = compile_sexpr dc c in
      let endt = ref (-1) in
      plain cb "while entry" tid (fun _ -> ());
      let ltop = cb.len in
      ignore
        (emit cb "while cond" (fun ix ->
             let nx = ix + 1 in
             fun fr -> if truthy (eval_cexpr fr r) then nx else !endt));
      (* a replay re-tests the condition, paying for it again *)
      Option.iter (fun ck -> checkpoint cb ck ~resume:ltop) ck;
      let cont = ref ltop in
      decode_block dc cb ~lp:(Some (endt, cont)) ~fend blk;
      ignore (emit cb "jump while" (fun _ _ -> ltop));
      endt := cb.len
  | Ir.Ifor (v, start, step, stop, blk) ->
      let vslot = slot dc v in
      let hs = hidden_slot dc in
      let hp = hidden_slot dc in
      let he = hidden_slot dc in
      let hk = hidden_slot dc in
      let rstart = compile_sexpr dc start in
      let rstep = Option.map (compile_sexpr dc) step in
      let rstop = compile_sexpr dc stop in
      let endt = ref (-1) in
      plain cb (Printf.sprintf "for %s entry" v) tid (fun fr ->
          fr.sc.(hs) <- eval_cexpr fr rstart;
          fr.sc.(hp) <-
            (match rstep with Some r -> eval_cexpr fr r | None -> 1.);
          fr.sc.(he) <- eval_cexpr fr rstop;
          fr.sc.(hk) <- 0.);
      (* The iteration test appears twice — once as the loop header
         (first entry, and the target of continue via the "next" op)
         and once fused into the back edge, so steady-state iterations
         cost one dispatch, not two.  Both run the same arithmetic in
         the same order. *)
      let iter_test fr =
        let st0 = fr.sc.(hs) in
        let sp = fr.sc.(hp) in
        let x = st0 +. (fr.sc.(hk) *. sp) in
        let go =
          if sp >= 0. then x <= fr.sc.(he) +. 1e-12
          else x >= fr.sc.(he) -. 1e-12
        in
        if go then begin
          sets fr vslot x;
          true
        end
        else false
      in
      ignore
        (emit cb (Printf.sprintf "for %s iter" v) (fun ix ->
             let nx = ix + 1 in
             fun fr -> if iter_test fr then nx else !endt));
      let body = cb.len in
      Option.iter (fun ck -> checkpoint cb ck ~resume:body) ck;
      let cont = ref (-1) in
      decode_block dc cb ~lp:(Some (endt, cont)) ~fend blk;
      cont := cb.len;
      ignore
        (emit cb (Printf.sprintf "for %s next" v) (fun _ fr ->
             fr.sc.(hk) <- fr.sc.(hk) +. 1.;
             if iter_test fr then body else !endt));
      endt := cb.len
  | Ir.Impi_rank d ->
      let ds = slot dc d in
      lib cb (Printf.sprintf "mpi_rank %s" d) tid (fun fr ->
          sets fr ds (float_of_int (Mpisim.Sim.rank ())))
  | Ir.Impi_size d ->
      let ds = slot dc d in
      lib cb (Printf.sprintf "mpi_size %s" d) tid (fun fr ->
          sets fr ds (float_of_int (Mpisim.Sim.size ())))
  | Ir.Impi_send (dest, tag, v) ->
      let rd = compile_sexpr dc dest in
      let rt = compile_sexpr dc tag in
      let dv =
        match v with
        | Ir.Ascalar (Ir.Sstr _) -> None (* a run-time error *)
        | Ir.Ascalar s -> Some (DSscalar (compile_sexpr dc s))
        | Ir.Amat m -> Some (DSmat (slot dc m))
      in
      lib cb "mpi_send" tid (fun fr ->
          let dst = int_of_float (eval_cexpr fr rd) in
          let tag = int_of_float (eval_cexpr fr rt) in
          let value =
            match dv with
            | None -> error "MPI_Send: cannot send a string"
            | Some (DSscalar r) -> Vscalar (eval_cexpr fr r)
            | Some (DSmat s) -> getv fr s
          in
          State.mpi_send ~dst ~tag value)
  | Ir.Impi_recv (d, src, tag, is_matrix) ->
      let ds = slot dc d in
      let rs = compile_sexpr dc src in
      let rt = compile_sexpr dc tag in
      lib cb (Printf.sprintf "mpi_recv %s" d) tid (fun fr ->
          let src = int_of_float (eval_cexpr fr rs) in
          let tag = int_of_float (eval_cexpr fr rt) in
          match State.mpi_recv ~src ~tag ~is_matrix with
          | Vscalar f -> sets fr ds f
          | Vmat m -> setm fr ds m
          | Vstr s -> setstr fr ds s)
  | Ir.Impi_bcast (d, root, v) ->
      let ds = slot dc d in
      let rr = compile_sexpr dc root in
      let dv =
        match v with
        | Ir.Ascalar (Ir.Sstr _) -> None
        | Ir.Ascalar s -> Some (DSscalar (compile_sexpr dc s))
        | Ir.Amat m -> Some (DSmat (slot dc m))
      in
      lib cb (Printf.sprintf "mpi_bcast %s" d) tid (fun fr ->
          let root = int_of_float (eval_cexpr fr rr) in
          let value =
            match dv with
            | None -> error "MPI_Bcast: cannot send a string"
            | Some (DSscalar r) -> Vscalar (eval_cexpr fr r)
            | Some (DSmat s) -> getv fr s
          in
          match State.mpi_bcast ~root value with
          | Vscalar f -> sets fr ds f
          | Vmat m -> setm fr ds m
          | Vstr s -> setstr fr ds s)
  | Ir.Impi_probe (d, src, tag) ->
      let ds = slot dc d in
      let rs = compile_sexpr dc src in
      let rt = compile_sexpr dc tag in
      lib cb (Printf.sprintf "mpi_probe %s" d) tid (fun fr ->
          let src = int_of_float (eval_cexpr fr rs) in
          let tag = int_of_float (eval_cexpr fr rt) in
          sets fr ds (State.mpi_probe ~src ~tag))
  | Ir.Ibreak -> (
      match lp with
      | Some (bt, _) ->
          ignore
            (emit cb "break" (fun _ fr ->
                 fr.st.tix.(fr.st.rk) <- tid;
                 !bt))
      | None ->
          plain cb "break (stray)" tid (fun _ -> raise State.Break_exc))
  | Ir.Icontinue -> (
      match lp with
      | Some (_, ct) ->
          ignore
            (emit cb "continue" (fun _ fr ->
                 fr.st.tix.(fr.st.rk) <- tid;
                 !ct))
      | None ->
          plain cb "continue (stray)" tid (fun _ -> raise State.Continue_exc))
  | Ir.Ireturn ->
      ignore
        (emit cb "return" (fun _ fr ->
             fr.st.tix.(fr.st.rk) <- tid;
             !fend))

and decode_block dc cb ~lp ~fend (b : Ir.block) =
  List.iter (decode_inst dc cb ~lp ~fend) b

(* Decode a user function on first call (per rank), memoized; lazy
   decoding keeps recursion trivially safe because a callee's code is
   always resolved at execution time. *)
and get_fentry dc fname =
  match Hashtbl.find_opt dc.fdec fname with
  | Some fe -> fe
  | None -> (
      match Hashtbl.find_opt dc.funcs fname with
      | None -> error "unknown function '%s'" fname
      | Some f -> decode_func dc f)

and decode_func dc (f : Ir.func) =
  let fdc =
    {
      slot_of = Hashtbl.create 32;
      nslots = 0;
      rnames = [];
      funcs = dc.funcs;
      fdec = dc.fdec;
      lst = dc.lst;
    }
  in
  (match fdc.lst with
  | Some b -> Buffer.add_string b (Printf.sprintf "function %s:\n" f.Ir.f_name)
  | None -> ());
  let params = List.map (fun (p, _) -> slot fdc p) f.Ir.f_params in
  let rets = List.map (fun (r, _) -> (slot fdc r, r)) f.Ir.f_rets in
  let cb = newbuf fdc.lst in
  let fend = ref 0 in
  decode_block fdc cb ~lp:None ~fend f.Ir.f_body;
  fend := cb.len;
  let fe =
    {
      fe_code = finish cb;
      fe_nslots = fdc.nslots;
      fe_names = frame_names fdc;
      fe_params = params;
      fe_rets = rets;
      fe_fname = f.Ir.f_name;
    }
  in
  Hashtbl.replace dc.fdec f.Ir.f_name fe;
  fe

(* Call-by-value user call: arguments evaluate left to right in the
   caller's frame, the callee gets a fresh frame over shared rank
   state, and return values copy back by slot. *)
and exec_call_t dc fr fname nargs (dargs : darg list) (ret_slots : int list) =
  let fe = get_fentry dc fname in
  if nargs <> List.length fe.fe_params then
    error "function '%s' expects %d arguments" fname (List.length fe.fe_params);
  let cfr =
    mk_frame ~nslots:fe.fe_nslots ~names:fe.fe_names fr.st
  in
  List.iter2
    (fun pslot a ->
      match a with
      | Dstr s -> setstr cfr pslot s
      | Dcexpr r -> sets cfr pslot (eval_cexpr fr r)
      | Dmarg s -> (
          match getv fr s with
          | Vmat m -> setm cfr pslot (Dmat.copy m) (* call by value *)
          | v -> setv cfr pslot v))
    fe.fe_params dargs;
  run_code fe.fe_code cfr;
  List.iter2
    (fun r (rv, rname) ->
      if cfr.tags.(rv) = t_undef then
        error "function '%s' did not assign return value '%s'" fname rname
      else setv fr r (getv cfr rv))
    ret_slots fe.fe_rets

(* --- whole-program decode ---------------------------------------------------- *)

(* The script decodes into one code array.  With checkpointing on
   ([ckpt]), boundary ops land before every top-level statement and at
   the top of every iteration of a top-level loop: top-level control
   flow is replicated on every rank, so each is a consistent cut. *)
type decoded = {
  d_code : code;
  d_slot_of : (string, int) Hashtbl.t;
  d_nslots : int;
  d_names : string array;
}

let decode (prog : Ir.prog) ~ckpt ~lst : decoded =
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Ir.func) -> Hashtbl.replace funcs f.Ir.f_name f)
    prog.Ir.p_funcs;
  let dc =
    {
      slot_of = Hashtbl.create 64;
      nslots = 0;
      rnames = [];
      funcs;
      fdec = Hashtbl.create 8;
      lst;
    }
  in
  (* intern the declared variables first: stable slot numbering *)
  List.iter (fun (v, _) -> ignore (slot dc v)) prog.Ir.p_vars;
  let cb = newbuf lst in
  let fend = ref 0 in
  List.iter
    (fun inst ->
      match (ckpt, inst) with
      | None, _ -> decode_inst dc cb ~lp:None ~fend inst
      | Some ck, (Ir.Ifor _ | Ir.Iwhile _) ->
          decode_inst ~ck dc cb ~lp:None ~fend inst
      | Some ck, _ ->
          checkpoint cb ck ~resume:cb.len;
          decode_inst dc cb ~lp:None ~fend inst)
    prog.Ir.p_body;
  fend := cb.len;
  (* a listing run forces every function so the output is complete *)
  (match lst with
  | Some _ -> List.iter (fun (f : Ir.func) -> ignore (decode_func dc f)) prog.Ir.p_funcs
  | None -> ());
  {
    d_code = finish cb;
    d_slot_of = dc.slot_of;
    d_nslots = dc.nslots;
    d_names = frame_names dc;
  }

let listing (prog : Ir.prog) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "main:\n";
  ignore (decode prog ~ckpt:None ~lst:(Some b));
  Buffer.contents b

(* --- entry points -------------------------------------------------------------- *)

let attempt ~capture ~seed ~datadir ~machine ~nprocs ~ckpt_interval
    (prog : Ir.prog) ~attempt:att ~slots ~restore :
    State.run_result * Mpisim.Sim.report =
  let out = Buffer.create 256 in
  (match restore with
  | Some (snaps : State.snapshot array) ->
      Buffer.add_string out snaps.(0).State.sn_out
  | None -> ());
  let tix = Array.make nprocs 0 (* "startup" *) in
  Array.fill slots 0 nprocs [];
  let outcome, report =
    Mpisim.Sim.run_report ~attempt:att ~machine ~nprocs (fun rank ->
        let st =
          { out; rand_calls = 0; calls = ref 0; seed; datadir; rk = rank; tix }
        in
        let ckpt =
          if ckpt_interval > 0. then
            Some
              {
                State.ck_interval = ckpt_interval;
                ck_slots = slots;
                ck_next = 0.;
                ck_boundary = 0;
              }
          else None
        in
        (* decode per rank: preallocated operand buffers may be live
           across a communication suspension, so they are rank-private *)
        let d = decode prog ~ckpt ~lst:None in
        let fr =
          mk_frame ~nslots:d.d_nslots ~names:d.d_names st
        in
        let from =
          match restore with
          | None -> 0
          | Some snaps ->
              let s = snaps.(rank) in
              Array.blit s.State.sn_tags 0 fr.tags 0 d.d_nslots;
              Array.blit s.State.sn_sc 0 fr.sc 0 d.d_nslots;
              Array.iteri
                (fun i v -> fr.vals.(i) <- State.copy_value v)
                s.State.sn_vals;
              st.rand_calls <- s.State.sn_rand_calls;
              st.calls := s.State.sn_calls;
              s.State.sn_pc
        in
        run_code d.d_code fr ~from;
        let caps =
          List.filter_map
            (fun name ->
              match Hashtbl.find_opt d.d_slot_of name with
              | None -> None
              | Some s -> (
                  match fr.tags.(s) with
                  | 1 -> Some (name, State.Cscalar fr.sc.(s))
                  | 2 -> (
                      match fr.vals.(s) with
                      | Vmat m ->
                          let dense = Dmat.to_dense m in
                          Some
                            ( name,
                              if Dmat.is_matrix m then
                                State.Cmat (m.Dmat.rows, m.Dmat.cols, dense)
                              else State.Cnd (Array.copy m.Dmat.dims, dense) )
                      | _ -> None)
                  | _ -> None))
            capture
        in
        (caps, !(st.calls)))
  in
  let result =
    match outcome with
    | Ok results ->
        let captures, lib_calls = results.(0) in
        State.Complete
          { output = Buffer.contents out; captures; lib_calls; report }
    | Error (Mpisim.Sim.Rank_failure { rank; exn }) ->
        State.Partial
          {
            failed_rank = rank;
            operation = !trace_names.(tix.(rank));
            detail = State.describe_failure exn;
            kind = State.classify_failure exn;
            report;
          }
    | Error e -> raise e
  in
  (result, report)

let run_recovering ~capture ~seed ~datadir ~ckpt_interval ~max_recoveries
    ~machine ~nprocs (prog : Ir.prog) : State.recovery =
  State.run_recovering_with ~nprocs ~ckpt_interval ~max_recoveries
    (attempt ~capture ~seed ~datadir ~machine ~nprocs ~ckpt_interval prog)
