(* External file input (paper section 3): a sample data file must be
   present at compile time for type/rank/shape inference; each back end
   reads the data at run time. *)

let t name f = Alcotest.test_case name `Quick f

let with_datafile content f =
  Testutil.with_temp_dir (fun dir ->
      Out_channel.with_open_bin (Filename.concat dir "input.txt") (fun oc ->
          output_string oc content);
      f dir)

let test_parse () =
  let r, c, d = Mlang.Datafile.parse "1 2 3\n4 5 6\n" in
  Alcotest.(check int) "rows" 2 r;
  Alcotest.(check int) "cols" 3 c;
  Testutil.check_array_close "data" [| 1.; 2.; 3.; 4.; 5.; 6. |] d;
  let r, c, _ = Mlang.Datafile.parse "% comment\n1.5\t2.5\n" in
  Alcotest.(check int) "tabs+comments rows" 1 r;
  Alcotest.(check int) "tabs+comments cols" 2 c;
  (match Mlang.Datafile.parse "1 2\n3\n" with
  | exception Mlang.Datafile.Bad_data _ -> ()
  | _ -> Alcotest.fail "ragged file must be rejected");
  match Mlang.Datafile.parse "1 x\n" with
  | exception Mlang.Datafile.Bad_data _ -> ()
  | _ -> Alcotest.fail "non-numeric must be rejected"

let test_shape_inference_from_sample () =
  with_datafile "1 2 3\n4 5 6\n" (fun dir ->
      let c = Otter.compile ~datadir:dir "A = load('input.txt');" in
      let ty = Analysis.Infer.var_type c.Otter.info "A" in
      Alcotest.(check string) "inferred shape" "integer matrix [2x3]"
        (Analysis.Ty.to_string ty));
  with_datafile "1.5 2.5\n" (fun dir ->
      let c = Otter.compile ~datadir:dir "v = load('input.txt');" in
      let ty = Analysis.Infer.var_type c.Otter.info "v" in
      Alcotest.(check string) "real row vector" "real matrix [1x2]"
        (Analysis.Ty.to_string ty))

let test_missing_sample_is_an_error () =
  match Otter.compile ~datadir:"/nonexistent" "A = load('input.txt');" with
  | exception Mlang.Source.Error (_, msg) ->
      Alcotest.(check bool) "mentions sample file" true
        (let affix = "sample data file" in
         let n = String.length affix and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = affix || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "missing sample file must be a compile error"

let test_execution_across_backends () =
  with_datafile "1 2 3\n4 5 6\n7 8 9\n10 11 12\n" (fun dir ->
      let src =
        "A = load('input.txt');\ns = sum(sum(A));\nc = sum(A);\nx = c(2) + A(4, 3);"
      in
      let c = Otter.compile ~datadir:dir src in
      (* interpreter *)
      let oi =
        Otter.outcome_exn
          (Otter.run
             (Otter.config ~datadir:dir ~engine:Otter.Config.Einterp
                ~machine:Mpisim.Machine.workstation ~nprocs:1
                ~capture:[ "s"; "x" ] ())
             c)
      in
      let gi n =
        match List.assoc n oi.Exec.State.captures with
        | Exec.State.Cscalar f -> f
        | _ -> nan
      in
      Testutil.check_close "interp sum" 78. (gi "s");
      Testutil.check_close "interp x" 38. (gi "x");
      (* parallel VM at several P *)
      List.iter
        (fun p ->
          let o =
            Otter.outcome_exn
              (Otter.run
                 (Otter.config ~datadir:dir ~machine:Mpisim.Machine.meiko_cs2
                    ~nprocs:p ~capture:[ "s"; "x" ] ())
                 c)
          in
          let g n =
            match List.assoc n o.Exec.State.captures with
            | Exec.State.Cscalar f -> f
            | _ -> nan
          in
          Testutil.check_close (Printf.sprintf "vm sum P=%d" p) 78. (g "s");
          Testutil.check_close (Printf.sprintf "vm x P=%d" p) 38. (g "x"))
        [ 1; 2; 4; 8 ])

(* Every rank reads the data file itself. *)
let test_c_execution () =
  if Lazy.force Fuzz.cc_available then
    with_datafile "1 2\n3 4\n" (fun dir ->
        let src =
          "A = load('input.txt');\nfprintf('%g %g\\n', sum(sum(A)), A(2, 1));"
        in
        let c = Otter.compile ~datadir:dir src in
        Testutil.build_c dir (Codegen.emit_c c.Otter.prog);
        Testutil.check_c_runs dir "10 3\n")

let suite =
  [
    t "data file parsing" test_parse;
    t "shape inference from the sample file" test_shape_inference_from_sample;
    t "missing sample file is a compile error" test_missing_sample_is_an_error;
    t "execution across back ends" test_execution_across_backends;
    t "generated C reads the file" test_c_execution;
  ]
