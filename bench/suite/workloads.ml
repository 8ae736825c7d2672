(* The five workloads.  bench/suite/README.md gives the reason for
   each one and the layer it is meant to stress; BENCHMARK.json lists
   the same names.

   A workload is a set of programs, each compiled once, and a list of
   configurations (program, machine, P).  One pass runs every
   configuration once; one configuration run is one operation. *)

type program = {
  key : string;
  source : string;
  capture : string list;
      (** variables compared with the interpreter; [[]] = every inferred
          script variable *)
}

type config = { prog : program; machine : Mpisim.Machine.t; nprocs : int }

type t = {
  name : string;
  programs : program list;
  configs : config list;
  chaos : bool;
      (** run every configuration under the fault model with reliable
          delivery and checkpoint/rollback, and require recovery *)
}

let names =
  [ "p1024-cg"; "p1024-tc"; "paper-meiko"; "dispatch-kernels"; "chaos-cg" ]

let app ?capture key scale =
  match Apps.Scripts.find key with
  | Some a ->
      {
        key;
        source = a.Apps.Scripts.source scale;
        capture = Option.value capture ~default:a.Apps.Scripts.capture;
      }
  | None -> invalid_arg ("unknown app " ^ key)

(* [quick] keeps every code path but shrinks the problems to scale 5
   and P <= 16, for the smoke test. *)
let make ~quick name : t option =
  let scale s = if quick then 5 else s in
  let procs p = if quick then min p 16 else p in
  let single ?(chaos = false) prog machine p =
    {
      name;
      programs = [ prog ];
      configs = [ { prog; machine; nprocs = procs p } ];
      chaos;
    }
  in
  let fattree = Mpisim.Machine.fattree_default
  and meiko = Mpisim.Machine.meiko_cs2 in
  match name with
  (* Only replicated scalars are captured at P=1024: gathering a
     distributed matrix would add messages to the run being measured. *)
  | "p1024-cg" ->
      Some
        (single (app "cg" (scale 25) ~capture:[ "resid"; "rho"; "xsum" ])
           fattree 1024)
  | "p1024-tc" ->
      Some (single (app "tc" (scale 25) ~capture:[ "reach" ]) fattree 1024)
  | "paper-meiko" ->
      let programs =
        List.map (fun (a : Apps.Scripts.app) -> app a.key (scale 50))
          Apps.Scripts.all
      in
      Some
        {
          name;
          programs;
          configs =
            List.concat_map
              (fun prog ->
                List.map
                  (fun p -> { prog; machine = meiko; nprocs = p })
                  [ 4; 16 ])
              programs;
          chaos = false;
        }
  | "dispatch-kernels" ->
      let programs =
        List.map (fun (key, source) -> { key; source; capture = [] }) Kernels.all
      in
      Some
        {
          name;
          programs;
          configs =
            List.map (fun prog -> { prog; machine = meiko; nprocs = 4 }) programs;
          chaos = false;
        }
  | "chaos-cg" -> Some (single ~chaos:true (app "cg" (scale 25)) meiko 16)
  | _ -> None

(* The fault model of chaos-cg, placed relative to the fault-free
   makespan [span] so the kill lands mid-run. *)
let fault_spec ~seed ~span =
  Printf.sprintf
    "drop=0.05,dup=0.02,delay=0.05,kill_rank=2,kill_time=%g,detect=%g,seed=%d"
    (span *. 0.4)
    (Float.max 0.01 (span *. 0.05))
    (seed + 105)

let chaos_config ~seed ~span (cfg : Otter.Config.t) : Otter.Config.t =
  match Mpisim.Machine.faults_of_spec (fault_spec ~seed ~span) with
  | Ok faults ->
      {
        cfg with
        Otter.Config.machine =
          Mpisim.Machine.with_faults ~reliable:true ~faults cfg.Otter.Config.machine;
        ckpt_interval = Float.max 1e-6 (span *. 0.08);
        max_recoveries = 3;
      }
  | Error e -> failwith e
