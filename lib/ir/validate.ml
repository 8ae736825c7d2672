(* Structural validation of the SPMD IR.

   The pass manager runs this between passes (in debug builds and under
   `otterc fuzz`) so a miscompiling rewrite is caught at the pass that
   introduced it rather than as a mysterious back-end disagreement.

   Checks:
   - every used variable is defined on some earlier path, or is a
     function parameter (loop bodies are pre-seeded with their own
     definitions: an instruction may read a value produced later in the
     body on a previous iteration);
   - every variable an instruction touches appears in the enclosing
     variable table, so both back ends can declare it;
   - compiler temporaries (ML_tmp prefix) have at most one static definition
     site per body outside loops -- lowering emits each temporary
     exactly once, and no pass may duplicate one;
   - [Iconcat] grids are consistent: grid_rows * grid_cols parts;
   - every [Ilib] call has an operand count its [fn] accepts;
   - control-flow nesting is well-formed: break/continue only inside a
     loop body. *)

module VSet = Dataflow.VSet

exception Invalid of string

(* Collect every violation rather than stopping at the first: a broken
   pass usually breaks several places at once, and the full list is the
   better bug report. *)
let check_body ~(name : string) ~(params : string list)
    ~(table : (Ir.var * Analysis.Ty.t) list) (body : Ir.block) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := (name ^ ": " ^ m) :: !errs) fmt in
  let in_table = Hashtbl.create 64 in
  List.iter (fun (v, _) -> Hashtbl.replace in_table v ()) table;
  List.iter (fun v -> Hashtbl.replace in_table v ()) params;
  (* one static def site per temp outside loops *)
  let temp_sites = Hashtbl.create 64 in
  let rec count_temp_sites ~in_loop (b : Ir.block) =
    List.iter
      (fun (i : Ir.inst) ->
        (match i with
        | Ir.Iif (branches, els) ->
            List.iter (fun (_, blk) -> count_temp_sites ~in_loop blk) branches;
            count_temp_sites ~in_loop els
        | Ir.Iwhile (_, blk) -> count_temp_sites ~in_loop:true blk
        | Ir.Ifor (_, _, _, _, blk) -> count_temp_sites ~in_loop:true blk
        | _ -> ());
        if not in_loop then
          List.iter
            (fun d ->
              if Dataflow.is_temp d then
                Hashtbl.replace temp_sites d
                  (1 + Option.value ~default:0 (Hashtbl.find_opt temp_sites d)))
            (Ir.inst_defs i))
      b
  in
  count_temp_sites ~in_loop:false body;
  Hashtbl.iter
    (fun t n ->
      if n > 1 then
        err "temporary %s has %d definition sites outside loops \
             (temps are single-assignment)" t n)
    temp_sites;
  (* forward walk: definedness, tables, concat grids, nesting *)
  let check_var_known v =
    if not (Hashtbl.mem in_table v) then
      err "variable %s is missing from the variable table" v
  in
  let check_uses defined (i : Ir.inst) =
    List.iter
      (fun u ->
        check_var_known u;
        if not (VSet.mem u defined) then
          err "variable %s is used before any definition reaches it" u)
      (Ir.inst_uses i)
  in
  let rec walk ~in_loop defined (b : Ir.block) : VSet.t =
    List.fold_left
      (fun defined (i : Ir.inst) ->
        check_uses defined i;
        List.iter check_var_known (Ir.inst_defs i);
        (match i with
        | Ir.Iconcat { grid_rows; grid_cols; parts; _ } ->
            if grid_rows <= 0 || grid_cols <= 0 then
              err "concat grid %dx%d is empty" grid_rows grid_cols
            else if List.length parts <> grid_rows * grid_cols then
              err "concat grid %dx%d expects %d parts but has %d" grid_rows
                grid_cols (grid_rows * grid_cols) (List.length parts)
        | Ir.Ilib { fn; args; _ }
          when not (Ir.lib_arity_ok fn (List.length args)) ->
            err "%s called with %d operands" (Ir_pp.lib_name fn)
              (List.length args)
        | Ir.Ibreak when not in_loop -> err "break outside any loop"
        | Ir.Icontinue when not in_loop -> err "continue outside any loop"
        | _ -> ());
        match i with
        | Ir.Iif (branches, els) ->
            (* may-define: a later use is fine if some path defines it *)
            let outs =
              List.map (fun (_, blk) -> walk ~in_loop defined blk) branches
              @ [ walk ~in_loop defined els ]
            in
            List.fold_left VSet.union defined outs
        | Ir.Iwhile (_, blk) ->
            (* pre-seed with the body's own definitions: an iteration
               may read what a previous iteration wrote *)
            let seeded = VSet.union defined (Dataflow.block_defs blk) in
            ignore (walk ~in_loop:true seeded blk);
            seeded
        | Ir.Ifor (v, _, _, _, blk) ->
            let seeded =
              VSet.add v (VSet.union defined (Dataflow.block_defs blk))
            in
            ignore (walk ~in_loop:true seeded blk);
            seeded
        | _ -> VSet.union defined (VSet.of_list (Ir.inst_defs i)))
      defined b
  in
  ignore (walk ~in_loop:false (VSet.of_list params) body);
  List.rev !errs

let check (p : Ir.prog) : string list =
  let script = check_body ~name:"script" ~params:[] ~table:p.Ir.p_vars p.Ir.p_body in
  let funcs =
    List.concat_map
      (fun (f : Ir.func) ->
        check_body ~name:("function " ^ f.Ir.f_name)
          ~params:(List.map fst f.Ir.f_params)
          ~table:f.Ir.f_vars f.Ir.f_body)
      p.Ir.p_funcs
  in
  script @ funcs

(* Raise [Invalid] naming the pipeline point on any violation. *)
let run ~(where : string) (p : Ir.prog) : unit =
  match check p with
  | [] -> ()
  | errs ->
      raise
        (Invalid
           (Printf.sprintf "IR validation failed %s:\n  %s" where
              (String.concat "\n  " errs)))
