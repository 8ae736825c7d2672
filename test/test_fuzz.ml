(* The differential fuzzing oracle in tier 1: replay the checked-in
   regression corpus (one minimized script per fixed semantic bug) and
   a small budget of fresh random cases.  The nightly CI job runs the
   same oracle with a 10k-case budget. *)

let t name f = Alcotest.test_case name `Quick f

let corpus_dir = lazy (Testutil.find_up "test/corpus/fuzz")

let test_corpus_replay () =
  match Lazy.force corpus_dir with
  | None -> () (* sandboxed without sources: nothing to check *)
  | Some dir ->
      let failures, total = Fuzz.replay dir in
      Alcotest.(check bool) "corpus nonempty" true (total >= 5);
      List.iter
        (fun f ->
          Alcotest.failf "corpus script %s: %s" f.Fuzz.file f.Fuzz.reason)
        failures

let test_random_cases () =
  match Fuzz.run_random ~cases:25 ~seed:3 () with
  | Fuzz.All_passed s ->
      Alcotest.(check int) "all compared" s.Fuzz.cases
        (s.Fuzz.passed + s.Fuzz.discarded)
  | Fuzz.Counterexample { script; detail; _ } ->
      Alcotest.failf "counterexample (%s):\n%s" detail script

(* The rank-N grammar the nightly job enables with --rank3. *)
let test_random_rank3 () =
  match Fuzz.run_random ~rank3:true ~cases:25 ~seed:7 () with
  | Fuzz.All_passed s ->
      Alcotest.(check int) "all compared" s.Fuzz.cases
        (s.Fuzz.passed + s.Fuzz.discarded)
  | Fuzz.Counterexample { script; detail; _ } ->
      Alcotest.failf "rank-3 counterexample (%s):\n%s" detail script

(* (name, arity) of every call [name(...)] in [src]: the arity is one
   more than the commas outside nested brackets and quotes, and 0 for
   [name()] or a bare [name] (a constant such as [pi]). *)
let calls src =
  let n = String.length src in
  let is_id = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let arity j =
    let rec go k depth commas quoted =
      if k >= n then commas + 1
      else
        match src.[k] with
        | '\'' -> go (k + 1) depth commas (not quoted)
        | _ when quoted -> go (k + 1) depth commas quoted
        | '(' | '[' -> go (k + 1) (depth + 1) commas quoted
        | ')' | ']' when depth = 1 -> commas + 1
        | ')' | ']' -> go (k + 1) (depth - 1) commas quoted
        | ',' when depth = 1 -> go (k + 1) depth (commas + 1) quoted
        | _ -> go (k + 1) depth commas quoted
    in
    if j + 1 < n && src.[j + 1] = ')' then 0 else go j 0 0 false
  in
  let rec ident_end j = if j < n && is_id src.[j] then ident_end (j + 1) else j in
  let rec scan i acc =
    if i >= n then acc
    else if not (is_id src.[i]) then scan (i + 1) acc
    else
      let j = ident_end i in
      let name = String.sub src i (j - i) in
      scan j ((name, if j < n && src.[j] = '(' then arity j else 0) :: acc)
  in
  scan 0 []

(* Builtins (or one argument count of one) the grammar does not draw. *)
let never_drawn =
  [
    ("load", "needs a data file");
    ("error", "ends the run");
    ("rand/0", "compiled code has no scalar rand()");
    ("randn/0", "compiled code has no scalar randn()");
  ]

(* The grammar draws every builtin in the registry with every argument
   count it takes up to three (three-argument constructors are rank-3
   tensors): 1,000 scripts and 500 rank-3 scripts reach all of them but
   the named exceptions. *)
let test_gen_reaches_builtins () =
  let seen = Hashtbl.create 64 in
  let draw n gen =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 11 |]) ~n gen
    |> List.iter (fun src ->
           List.iter (fun (f, k) -> Hashtbl.replace seen (f, k) ()) (calls src))
  in
  draw 1000 Fuzz.Gen.script;
  draw 500 Fuzz.Gen.script_rank3;
  let module B = Analysis.Builtins in
  let missed =
    B.all ()
    |> List.concat_map (fun (b : B.t) ->
           List.init
             (min b.max_args 3 - b.min_args + 1)
             (fun k -> (b.name, b.min_args + k)))
    |> List.filter (fun (f, k) ->
           not
             (Hashtbl.mem seen (f, k)
             || List.mem_assoc f never_drawn
             || List.mem_assoc (Printf.sprintf "%s/%d" f k) never_drawn))
    |> List.sort compare
    |> List.map (fun (f, k) -> Printf.sprintf "%s/%d" f k)
  in
  Alcotest.(check (list string)) "builtins never drawn" [] missed

(* The oracle infrastructure itself: output comparison must absorb
   benign formatting differences but reject real ones. *)
let test_outputs_agree () =
  Alcotest.(check bool) "equal" true (Otter.outputs_agree "1.5\n2\n" "1.5\n2\n" = None);
  Alcotest.(check bool) "tolerance" true
    (Otter.outputs_agree "0.30000000000000004\n" "0.3\n" = None);
  Alcotest.(check bool) "nan" true (Otter.outputs_agree "nan\n" "-nan\n" = None);
  Alcotest.(check bool) "an infinity matches only itself" true
    (Otter.outputs_agree "inf -inf\n" "inf -inf\n" = None
    && Otter.outputs_agree "inf\n" "-inf\n" <> None
    && Otter.outputs_agree "inf\n" "1e308\n" <> None
    && Otter.outputs_agree "-inf\n" "nan\n" <> None);
  Alcotest.(check bool) "name=value compares the value" true
    (Otter.outputs_agree "residual=4.434279e-15\n" "residual=4.522966e-15\n"
    = None);
  Alcotest.(check bool) "name=value still checks the name" true
    (Otter.outputs_agree "a=1\n" "b=1\n" <> None);
  Alcotest.(check bool) "value differs" true
    (Otter.outputs_agree "1\n" "2\n" <> None);
  Alcotest.(check bool) "length differs" true
    (Otter.outputs_agree "1\n" "1\n2\n" <> None)

let suite =
  [
    t "corpus replay" test_corpus_replay;
    t "random differential cases" test_random_cases;
    t "random rank-3 cases" test_random_rank3;
    t "output comparison" test_outputs_agree;
    t "grammar reaches every builtin" test_gen_reaches_builtins;
  ]
