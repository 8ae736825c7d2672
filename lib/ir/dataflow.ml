(* Dataflow analyses over the structured SPMD IR.

   The middle-end passes (LICM, redundancy elimination, copy
   propagation, liveness DCE -- see pass.ml) all consume the same small
   set of facts about a program: which variables an instruction reads
   and writes, how often each variable is used, which variables a whole
   region may define, and which variables are live at a point.  This
   module computes them once over the structured IR, replacing the flat
   [count_uses] the peephole pass grew up with.

   The IR has no unstructured jumps: control flow is [Iif]/[Iwhile]/
   [Ifor] nesting plus the early exits [Ibreak]/[Icontinue]/[Ireturn]/
   [Ierror].  Liveness therefore runs as a backward walk over the
   instruction list with a fixpoint at loops; may-define sets are a
   simple recursive union. *)

module VSet = Set.Make (String)

let is_temp v = String.length v > 6 && String.sub v 0 6 = "ML_tmp"

(* --- use counts --------------------------------------------------------- *)

type counts = (string, int) Hashtbl.t

(* Occurrences of each variable in a use position anywhere in [b],
   nested blocks included. *)
let use_counts (b : Ir.block) : counts =
  let tbl = Hashtbl.create 64 in
  let bump v =
    Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v))
  in
  Ir.iter_insts (fun i -> List.iter bump (Ir.inst_uses i)) b;
  tbl

let uses (c : counts) v = Option.value ~default:0 (Hashtbl.find_opt c v)

(* Static definition sites of each variable (each instruction counted
   once, however many times a loop would execute it). *)
let def_counts (b : Ir.block) : counts =
  let tbl = Hashtbl.create 64 in
  let bump v =
    Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v))
  in
  Ir.iter_insts (fun i -> List.iter bump (Ir.inst_defs i)) b;
  tbl

(* --- region summaries --------------------------------------------------- *)

(* Every variable [b] may define: ordinary destinations, in-place
   updates and loop variables, any nesting depth. *)
let block_defs (b : Ir.block) : VSet.t =
  let acc = ref VSet.empty in
  Ir.iter_insts
    (fun i -> List.iter (fun v -> acc := VSet.add v !acc) (Ir.inst_defs i))
    b;
  !acc

(* Every variable [i] reads, nested blocks included. *)
let inst_uses_rec (i : Ir.inst) : VSet.t =
  let acc = ref VSet.empty in
  Ir.iter_insts
    (fun i -> List.iter (fun v -> acc := VSet.add v !acc) (Ir.inst_uses i))
    [ i ];
  !acc

(* Does [i] contain an early exit (anywhere inside)?  An instruction
   after one of these in a loop body is only conditionally executed,
   which blocks code motion past it. *)
let has_early_exit (i : Ir.inst) : bool =
  let found = ref false in
  Ir.iter_insts
    (fun i ->
      match i with
      | Ir.Ibreak | Ir.Icontinue | Ir.Ireturn | Ir.Ierror _ -> found := true
      | _ -> ())
    [ i ];
  !found

(* rand/randn draw from a replicated sequence keyed by how many calls
   ran before them, so they may never be removed, duplicated or
   reordered relative to each other -- pure, but not deterministic. *)
let is_rand (i : Ir.inst) : bool =
  match i with
  | Ir.Iconstruct { kind = Ir.Crand | Ir.Crandn; _ } -> true
  | _ -> false

(* --- substitution over use positions ------------------------------------ *)

let rec map_sexpr f (s : Ir.sexpr) : Ir.sexpr =
  match s with
  | Ir.Sconst _ | Ir.Sstr _ -> s
  | Ir.Svar v -> Ir.Svar (f v)
  | Ir.Sbin (op, a, b) -> Ir.Sbin (op, map_sexpr f a, map_sexpr f b)
  | Ir.Sneg a -> Ir.Sneg (map_sexpr f a)
  | Ir.Snot a -> Ir.Snot (map_sexpr f a)
  | Ir.Scall (name, args) -> Ir.Scall (name, List.map (map_sexpr f) args)
  | Ir.Sdim (v, k) -> Ir.Sdim (f v, k)

let rec map_eexpr f (e : Ir.eexpr) : Ir.eexpr =
  match e with
  | Ir.Emat v -> Ir.Emat (f v)
  | Ir.Eeye -> Ir.Eeye
  | Ir.Escalar s -> Ir.Escalar (map_sexpr f s)
  | Ir.Ebin (op, a, b) -> Ir.Ebin (op, map_eexpr f a, map_eexpr f b)
  | Ir.Eneg a -> Ir.Eneg (map_eexpr f a)
  | Ir.Enot a -> Ir.Enot (map_eexpr f a)
  | Ir.Ecall1 (n, a) -> Ir.Ecall1 (n, map_eexpr f a)
  | Ir.Ecall2 (n, a, b) -> Ir.Ecall2 (n, map_eexpr f a, map_eexpr f b)

let map_sel f (s : Ir.sel) : Ir.sel =
  match s with
  | Ir.Sel_all -> Ir.Sel_all
  | Ir.Sel_scalar e -> Ir.Sel_scalar (map_sexpr f e)
  | Ir.Sel_range (a, st, b) ->
      Ir.Sel_range (map_sexpr f a, Option.map (map_sexpr f) st, map_sexpr f b)
  | Ir.Sel_vec v -> Ir.Sel_vec (f v)

let map_call_arg f = function
  | Ir.Ascalar s -> Ir.Ascalar (map_sexpr f s)
  | Ir.Amat v -> Ir.Amat (f v)

(* Rewrite every variable in a *use* position of one instruction
   (destinations and in-place update targets are left alone; for
   control flow only the conditions and bounds are rewritten -- nested
   blocks are the caller's business). *)
let map_uses (f : string -> string) (i : Ir.inst) : Ir.inst =
  match i with
  | Ir.Iscalar (d, s) -> Ir.Iscalar (d, map_sexpr f s)
  | Ir.Ielem e -> Ir.Ielem { e with model = f e.model; expr = map_eexpr f e.expr }
  | Ir.Icopy (d, s) -> Ir.Icopy (d, f s)
  | Ir.Ilib l ->
      let fn =
        match l.fn with Ir.Lshift k -> Ir.Lshift (map_sexpr f k) | fn -> fn
      in
      Ir.Ilib { l with fn; args = List.map f l.args }
  | Ir.Isort s -> Ir.Isort { s with arg = f s.arg }
  | Ir.Ireduce_loc r -> Ir.Ireduce_loc { r with arg = f r.arg }
  | Ir.Ibcast (d, m, idx) -> Ir.Ibcast (d, f m, List.map (map_sexpr f) idx)
  | Ir.Ibcast_batch (items, m) ->
      Ir.Ibcast_batch
        (List.map (fun (d, idx) -> (d, List.map (map_sexpr f) idx)) items, f m)
  | Ir.Ireduce_fused items ->
      Ir.Ireduce_fused
        (List.map
           (fun (d, r) ->
             ( d,
               match r with
               | Ir.Fsum m -> Ir.Fsum (f m)
               | Ir.Fmean m -> Ir.Fmean (f m)
               | Ir.Fdot (a, b) -> Ir.Fdot (f a, f b)
               | Ir.Fnorm m -> Ir.Fnorm (f m) ))
           items)
  | Ir.Isetelem (m, idx, v) ->
      (* [m] is the in-place update target, not a forwardable read *)
      Ir.Isetelem (m, List.map (map_sexpr f) idx, map_sexpr f v)
  | Ir.Iload _ -> i
  | Ir.Iconstruct c -> Ir.Iconstruct { c with args = List.map (map_sexpr f) c.args }
  | Ir.Iliteral l -> Ir.Iliteral { l with elems = List.map (map_sexpr f) l.elems }
  | Ir.Isection s ->
      Ir.Isection { s with src = f s.src; sels = List.map (map_sel f) s.sels }
  | Ir.Isetsection s ->
      Ir.Isetsection
        { s with sels = List.map (map_sel f) s.sels; src = map_call_arg f s.src }
  | Ir.Iconcat c -> Ir.Iconcat { c with parts = List.map f c.parts }
  | Ir.Icalluser c ->
      Ir.Icalluser { c with args = List.map (map_call_arg f) c.args }
  | Ir.Impi_rank _ | Ir.Impi_size _ -> i
  | Ir.Impi_send (dest, tag, v) ->
      Ir.Impi_send (map_sexpr f dest, map_sexpr f tag, map_call_arg f v)
  | Ir.Impi_recv (d, src, tag, m) ->
      Ir.Impi_recv (d, map_sexpr f src, map_sexpr f tag, m)
  | Ir.Impi_bcast (d, root, v) ->
      Ir.Impi_bcast (d, map_sexpr f root, map_call_arg f v)
  | Ir.Impi_probe (d, src, tag) ->
      Ir.Impi_probe (d, map_sexpr f src, map_sexpr f tag)
  | Ir.Iprint (n, Ir.Pscalar s) -> Ir.Iprint (n, Ir.Pscalar (map_sexpr f s))
  | Ir.Iprint (n, Ir.Pmat v) -> Ir.Iprint (n, Ir.Pmat (f v))
  | Ir.Iprint (_, Ir.Pstr _) -> i
  | Ir.Iprintf args -> Ir.Iprintf (List.map (map_sexpr f) args)
  | Ir.Ierror _ -> i
  | Ir.Iif (branches, els) ->
      Ir.Iif (List.map (fun (c, b) -> (map_sexpr f c, b)) branches, els)
  | Ir.Iwhile (c, b) -> Ir.Iwhile (map_sexpr f c, b)
  | Ir.Ifor (v, a, st, b, body) ->
      Ir.Ifor (v, map_sexpr f a, Option.map (map_sexpr f) st, map_sexpr f b, body)
  | Ir.Ibreak | Ir.Icontinue | Ir.Ireturn -> i

(* --- liveness ----------------------------------------------------------- *)

(* [live_in b out] is the set of variables whose values on entry to [b]
   may still be read, given [out] live on exit.  Loops iterate to a
   fixpoint (sets only grow, so this terminates).  Early exits are
   over-approximated: [out] always flows through, which can only make
   more variables live -- safe for DCE. *)
let rec live_in (b : Ir.block) (out : VSet.t) : VSet.t =
  List.fold_right inst_live b out

and inst_live (i : Ir.inst) (out : VSet.t) : VSet.t =
  match i with
  | Ir.Iif (branches, els) ->
      let ins = List.map (fun (_, blk) -> live_in blk out) branches in
      let acc = List.fold_left VSet.union (live_in els out) ins in
      VSet.union acc (VSet.of_list (Ir.inst_uses i))
  | Ir.Iwhile (_, body) ->
      let rec fix x =
        let x' = VSet.union x (live_in body x) in
        if VSet.equal x' x then x else fix x'
      in
      fix (VSet.union out (VSet.of_list (Ir.inst_uses i)))
  | Ir.Ifor (v, _, _, _, body) ->
      (* [v] is reassigned at the top of each iteration, so body uses of
         it never reach back before the loop; it can still flow through
         via [out] (a zero-trip loop keeps the prior value). *)
      let rec fix x =
        let x' = VSet.union x (VSet.remove v (live_in body x)) in
        if VSet.equal x' x then x else fix x'
      in
      fix (VSet.union out (VSet.of_list (Ir.inst_uses i)))
  | _ ->
      VSet.union
        (VSet.diff out (VSet.of_list (Ir.inst_defs i)))
        (VSet.of_list (Ir.inst_uses i))

(* --- variable tables ---------------------------------------------------- *)

(* Drop temporaries no longer referenced by [b] from a variable table
   (named variables always stay: the driver may capture any of them). *)
let prune_vars (b : Ir.block) (vars : (Ir.var * Analysis.Ty.t) list) =
  let referenced = Hashtbl.create 64 in
  Ir.iter_insts
    (fun i ->
      List.iter (fun v -> Hashtbl.replace referenced v ()) (Ir.inst_uses i);
      List.iter (fun v -> Hashtbl.replace referenced v ()) (Ir.inst_defs i))
    b;
  List.filter (fun (v, _) -> (not (is_temp v)) || Hashtbl.mem referenced v) vars

let prune_temp_vars (p : Ir.prog) : Ir.prog =
  {
    p with
    Ir.p_vars = prune_vars p.Ir.p_body p.Ir.p_vars;
    p_funcs =
      List.map
        (fun (f : Ir.func) -> { f with Ir.f_vars = prune_vars f.f_body f.f_vars })
        p.Ir.p_funcs;
  }
