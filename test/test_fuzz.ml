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

(* The oracle infrastructure itself: output comparison must absorb
   benign formatting differences but reject real ones. *)
let test_outputs_agree () =
  Alcotest.(check bool) "equal" true (Fuzz.outputs_agree "1.5\n2\n" "1.5\n2\n" = None);
  Alcotest.(check bool) "tolerance" true
    (Fuzz.outputs_agree "0.30000000000000004\n" "0.3\n" = None);
  Alcotest.(check bool) "nan" true (Fuzz.outputs_agree "nan\n" "-nan\n" = None);
  Alcotest.(check bool) "name=value compares the value" true
    (Fuzz.outputs_agree "residual=4.434279e-15\n" "residual=4.522966e-15\n"
    = None);
  Alcotest.(check bool) "name=value still checks the name" true
    (Fuzz.outputs_agree "a=1\n" "b=1\n" <> None);
  Alcotest.(check bool) "value differs" true
    (Fuzz.outputs_agree "1\n" "2\n" <> None);
  Alcotest.(check bool) "length differs" true
    (Fuzz.outputs_agree "1\n" "1\n2\n" <> None)

let suite =
  [
    t "corpus replay" test_corpus_replay;
    t "random differential cases" test_random_cases;
    t "random rank-3 cases" test_random_rank3;
    t "output comparison" test_outputs_agree;
  ]
