(* External file input (paper section 3): a sample data file must be
   present at compile time for type/rank/shape inference; each back end
   reads the data at run time. *)

let t name f = Alcotest.test_case name `Quick f

let with_datafile content f =
  let dir = Filename.temp_file "otter_data" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "input.txt") in
  output_string oc content;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove (Filename.concat dir "input.txt");
      Sys.rmdir dir)
    (fun () -> f dir)

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

let test_c_execution () =
  if Sys.command "cc --version > /dev/null 2>&1" = 0 then
    with_datafile "1 2\n3 4\n" (fun dir ->
        let src =
          "A = load('input.txt');\nfprintf('%g %g\\n', sum(sum(A)), A(2, 1));"
        in
        let c = Otter.compile ~datadir:dir src in
        let write (f, content) =
          let oc = open_out (Filename.concat dir f) in
          output_string oc content;
          close_out oc
        in
        write ("prog.c", Codegen.emit_c c.Otter.prog);
        List.iter write Codegen.support_files;
        let cmd =
          Printf.sprintf
            "cd %s && cc -O1 -o prog prog.c otter_rt_common.c otter_rt_seq.c \
             -lm 2>/dev/null && ./prog > out.txt"
            (Filename.quote dir)
        in
        Alcotest.(check int) "C build+run" 0 (Sys.command cmd);
        let ic = open_in (Filename.concat dir "out.txt") in
        let out = input_line ic in
        close_in ic;
        Alcotest.(check string) "C output" "10 3" out;
        List.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          ([ "prog.c"; "prog"; "out.txt" ] @ List.map fst Codegen.support_files))

let suite =
  [
    t "data file parsing" test_parse;
    t "shape inference from the sample file" test_shape_inference_from_sample;
    t "missing sample file is a compile error" test_missing_sample_is_an_error;
    t "execution across back ends" test_execution_across_backends;
    t "generated C reads the file" test_c_execution;
  ]
