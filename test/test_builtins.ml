(* Every element-wise builtin in the registry computes the same thing on
   every engine: the interpreter, tcode's scalar closures and element
   loops, and the emitted C.  The builtins come from
   [Analysis.Builtins.all], so one added later is covered with no edit
   here. *)

let t name f = Alcotest.test_case name `Quick f

(* Rounding ties, the doubles next to them, the first integer past
   2^52 that [floor (x + 0.5)] gets wrong, signed zeros, infinities and
   NaN.  They sit in a matrix and are read by subscript, so the
   compiler cannot fold a call on them. *)
let prelude =
  {|z = -0;
pinf = 1 / 0;
qnan = 0 / 0;
e = [0, z, 0.5, -0.5, 0.49999999999999994, -0.49999999999999994, 2.5, -2.5, 4503599627370497, pinf, -pinf, qnan];
n = numel(e);
a = zeros(1, n * n);
b = zeros(1, n * n);
for i = 1:n
  for j = 1:n
    a((i - 1) * n + j) = e(i);
    b((i - 1) * n + j) = e(j);
  end
end
|}

(* One element-loop call over the whole vector and one scalar call per
   element; each output line prints both results and their reciprocals,
   which tell -0 from +0. *)
let block (name, arity) =
  let w = "w_" ^ name and s = "s_" ^ name in
  let whole, one, count =
    if arity = 1 then (name ^ "(e)", name ^ "(e(k))", "n")
    else (name ^ "(a, b)", name ^ "(a(k), b(k))", "n * n")
  in
  Printf.sprintf
    "%s = %s;\n\
     for k = 1:%s\n\
    \  %s = %s;\n\
    \  fprintf('%s %%.17g %%.17g %%.17g %%.17g\\n', %s(k), %s, 1 / %s(k), 1 / %s);\n\
     end\n"
    w whole count s one name w s w s

let script () =
  prelude ^ String.concat "" (List.map block (Testutil.elementwise_builtins ()))

(* Line by line, so a failure names every builtin that disagrees (the
   first word of its lines) with its first differing line. *)
let check_agree ~label expected got =
  let lines s = String.split_on_char '\n' s in
  let le = lines expected and lg = lines got in
  if List.length le <> List.length lg then
    Alcotest.failf "%s: %d output lines vs %d" label (List.length le)
      (List.length lg);
  let bad = ref [] in
  List.iter2
    (fun x y ->
      match Otter.outputs_agree x y with
      | None -> ()
      | Some d ->
          let f = List.hd (String.split_on_char ' ' x) in
          if not (List.mem_assoc f !bad) then
            bad := (f, Printf.sprintf "%s\n    %s\n    %s" d x y) :: !bad)
    le lg;
  match List.rev !bad with
  | [] -> ()
  | bad ->
      Alcotest.failf "%s disagrees with the interpreter on %s:\n%s" label
        (String.concat ", " (List.map fst bad))
        (String.concat "\n" (List.map snd bad))

let test_engines_agree () =
  let names = List.map fst (Testutil.elementwise_builtins ()) in
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " is element-wise") true (List.mem f names))
    [ "abs"; "round"; "mod"; "power"; "min"; "max" ];
  let src = script () in
  let expected, _ = Testutil.run_interp src in
  let c = Otter.compile src in
  List.iter
    (fun nprocs ->
      let o = Otter.outcome_exn (Otter.run (Otter.config ~nprocs ()) c) in
      check_agree
        ~label:(Printf.sprintf "tcode P=%d" nprocs)
        expected o.Exec.State.output)
    [ 1; 4 ];
  if Lazy.force Fuzz.cc_available then
    Testutil.with_temp_dir (fun dir ->
        Testutil.build_c dir (Codegen.emit_c c.Otter.prog);
        let code, got = Testutil.run_c dir "1" in
        if code <> 0 then Alcotest.failf "C at P=1: exit %d\n%s" code got;
        check_agree ~label:"emitted C at P=1" expected got)

let suite = [ t "element-wise builtins agree on every engine" test_engines_agree ]
