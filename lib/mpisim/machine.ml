(* Models of the paper's three parallel test beds.

   A machine gives per-rank compute speed and, for every (src, dst) rank
   pair, a link: latency, bandwidth, and an optional contention channel.
   Messages crossing the same channel serialize; a dedicated link (no
   channel) never queues.  The numbers are representative of 1997-era
   hardware; the evaluation cares about ratios (grain size versus
   communication cost), which these preserve. *)

(* Hash tables keyed by an int (a node id, a tag, a call index): a
   multiplicative mix skips the polymorphic [caml_hash] call the
   generic [Hashtbl] makes on every lookup.  [Hashtbl] picks a bucket
   from the low bits of the hash, so the mix folds the product's high
   half back down: keys that differ only in high bits still spread. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)
end)

type link = {
  latency : float; (* seconds, end to end *)
  bandwidth : float; (* bytes per second *)
  channel : int option; (* contention domain; None = dedicated *)
}

(* Seeded, deterministic fault model.  Every probability is drawn from
   the counter-based [Rng], so two runs with the same seed (and the
   same program on the same machine) see the identical fault schedule:
   the same messages drop, duplicate, spike, and stall. *)
type faults = {
  fault_seed : int;
  drop : float; (* per-message loss probability *)
  dup : float; (* per-message duplication probability *)
  delay : float; (* per-message delay-spike probability *)
  delay_factor : float; (* latency multiplier during a spike *)
  stall : float; (* per-send probability the rank stalls first *)
  stall_time : float; (* seconds lost per stall *)
  degrade : float; (* per-(link, window) degradation probability *)
  degrade_factor : float; (* latency x, bandwidth / this during a window *)
  degrade_period : float; (* seconds per degradation window *)
  detect : float; (* default timeout for unprotected receives and the
                     failure detector's heartbeat deadline; 0 = wait
                     forever (a lost message then deadlocks) *)
  (* Permanent rank failures.  [kill] is the per-rank probability of
     dying during one run attempt; a doomed rank's death time is drawn
     uniformly in [0, kill_window).  [kill_rank]/[kill_time] plant one
     deterministic death instead (first attempt only), which is what
     the recovery tests use.  Both are seeded: the same seed produces
     the same deaths. *)
  kill : float; (* per-rank, per-attempt death probability *)
  kill_window : float; (* seconds of virtual time deaths fall within *)
  kill_rank : int; (* explicit victim (-1 = none) *)
  kill_time : float; (* when the explicit victim dies *)
}

let no_faults =
  {
    fault_seed = 0;
    drop = 0.;
    dup = 0.;
    delay = 0.;
    delay_factor = 16.;
    stall = 0.;
    stall_time = 1e-3;
    degrade = 0.;
    degrade_factor = 10.;
    degrade_period = 10e-3;
    detect = 1.0;
    kill = 0.;
    kill_window = 0.05;
    kill_rank = -1;
    kill_time = 0.01;
  }

(* The values a numeric fault key admits: probabilities lie in [0, 1],
   times are non-negative, factors and periods positive, and all of
   them finite. *)
let check_fault_value k x =
  let bad what = Error (Printf.sprintf "faults: %s must be %s, got %g" k what x) in
  match k with
  | _ when not (Float.is_finite x) -> bad "finite"
  | ("drop" | "dup" | "delay" | "stall" | "degrade" | "kill")
    when x < 0. || x > 1. ->
      bad "a probability in [0, 1]"
  | ("stall_time" | "kill_window" | "kill_time" | "detect") when x < 0. ->
      bad "a non-negative time"
  | ("delay_factor" | "degrade_factor" | "degrade_period") when x <= 0. ->
      bad "positive"
  | _ -> Ok x

(* Parse "drop=0.01,dup=0.005,seed=42" into a fault model.  Unknown
   keys, malformed numbers and out-of-range values are reported, not
   ignored. *)
let faults_of_spec spec : (faults, string) result =
  let parse_field acc kv =
    match acc with
    | Error _ -> acc
    | Ok f -> (
        match String.split_on_char '=' (String.trim kv) with
        | [ k; v ] -> (
            let num () =
              match float_of_string_opt v with
              | Some x -> check_fault_value k x
              | None -> Error (Printf.sprintf "faults: bad number '%s' for %s" v k)
            in
            let setf g = Result.map g (num ()) in
            match k with
            | "seed" -> (
                match int_of_string_opt v with
                | Some s -> Ok { f with fault_seed = s }
                | None -> Error (Printf.sprintf "faults: bad seed '%s'" v))
            | "drop" -> setf (fun x -> { f with drop = x })
            | "dup" -> setf (fun x -> { f with dup = x })
            | "delay" -> setf (fun x -> { f with delay = x })
            | "delay_factor" -> setf (fun x -> { f with delay_factor = x })
            | "stall" -> setf (fun x -> { f with stall = x })
            | "stall_time" -> setf (fun x -> { f with stall_time = x })
            | "degrade" -> setf (fun x -> { f with degrade = x })
            | "degrade_factor" -> setf (fun x -> { f with degrade_factor = x })
            | "degrade_period" -> setf (fun x -> { f with degrade_period = x })
            | "detect" -> setf (fun x -> { f with detect = x })
            | "kill" -> setf (fun x -> { f with kill = x })
            | "kill_window" -> setf (fun x -> { f with kill_window = x })
            | "kill_time" -> setf (fun x -> { f with kill_time = x })
            | "kill_rank" -> (
                match int_of_string_opt v with
                | Some r when r >= -1 -> Ok { f with kill_rank = r }
                | Some r ->
                    Error
                      (Printf.sprintf
                         "faults: kill_rank must be a rank or -1 (none), got %d"
                         r)
                | None -> Error (Printf.sprintf "faults: bad kill_rank '%s'" v))
            | _ -> Error (Printf.sprintf "faults: unknown key '%s'" k))
        | _ -> Error (Printf.sprintf "faults: expected key=value, got '%s'" kv))
  in
  List.fold_left parse_field (Ok no_faults) (String.split_on_char ',' spec)

(* How virtual ranks are laid out over the machine's simulated CPUs
   when a run oversubscribes (more ranks than [max_procs]).  The
   placement decides which CPU executes each rank -- compute charges
   serialize per CPU -- and which physical endpoints a message's link
   is looked up for; message semantics stay per-rank. *)
type mapping =
  | Map_block (* rank r on CPU r*C/P: contiguous slabs *)
  | Map_cyclic (* rank r on CPU r mod C: round-robin *)
  | Map_random of int (* seeded uniform draw per rank *)

type placement = { cpus : int; map : mapping }

let mapping_of_string ?(seed = 0) = function
  | "block" -> Some Map_block
  | "cyclic" -> Some Map_cyclic
  | "random" -> Some (Map_random seed)
  | _ -> None

type t = {
  name : string;
  max_procs : int;
  flop_time : float; (* seconds per floating-point operation *)
  interp_overhead : float; (* interpreter per-operation dispatch cost, s *)
  send_overhead : float; (* CPU time consumed by a send *)
  recv_overhead : float; (* CPU time consumed by a matched receive *)
  link : int -> int -> link;
  channels : int -> int;
      (* [channels n] bounds the contention channel ids [link] returns
         between CPUs below [n]: each lies in [-1, channels n), so a run
         keeps its channels' busy-until times in one array *)
  faults : faults option; (* None = the perfect network of the paper *)
  reliable : bool; (* route messaging through the ack/retry layer *)
  placement : placement option;
      (* None = one rank per CPU (the paper's setup, capped at
         [max_procs]); [Some _] = oversubscribed virtual ranks *)
}

(* [with_faults ?reliable ?faults m] is [m] with the fault model and/or
   the reliable-messaging flag switched on. *)
let with_faults ?(reliable = false) ?faults m =
  { m with faults; reliable }

(* [with_placement ~cpus ~map m] oversubscribes [m]: ranks beyond
   [cpus] time-share the machine's CPUs under [map].  Validation of
   cpus against the rank count happens when the run starts (the rank
   count is not known here). *)
let with_placement ~cpus ~map m = { m with placement = Some { cpus; map } }

(* [with_procs n m] is [m] scaled out to [n] ranks: the same CPUs and
   links, more of them.  The multi-tenant scheduler benches space-share
   machines bigger than the paper's test beds (P = 64).  A fat-tree
   grown past its own size routes the extra nodes through its top
   tier. *)
let with_procs n m =
  if n < 1 then invalid_arg "with_procs: need at least one processor";
  { m with max_procs = n }

let mflops x = 1.0 /. (x *. 1e6)
let mbytes x = x *. 1e6

(* Meiko CS-2: 16 nodes, fat-tree network with dedicated per-pair
   bandwidth; the best-balanced machine of the three (paper section 6). *)
let meiko_cs2 =
  (* one shared record: [link] is called once per simulated message on
     the hot path, so it must not allocate *)
  let l = { latency = 45e-6; bandwidth = mbytes 40.; channel = None } in
  let link _ _ = l in
  {
    name = "Meiko CS-2";
    max_procs = 16;
    flop_time = mflops 25.;
    interp_overhead = 1.2e-6;
    send_overhead = 12e-6;
    recv_overhead = 12e-6;
    link;
    channels = (fun _ -> 0);
    faults = None;
    reliable = false;
    placement = None;
  }

(* Sun Enterprise SMP: 8 CPUs over a shared memory bus.  Message passing
   maps to memory copies: very low latency, high bandwidth, but a single
   shared bus (channel 0) that serializes transfers. *)
let enterprise_smp =
  let l = { latency = 2.5e-6; bandwidth = mbytes 180.; channel = Some 0 } in
  let link _ _ = l in
  {
    name = "Sun Enterprise SMP";
    max_procs = 8;
    flop_time = mflops 30.;
    interp_overhead = 1.0e-6;
    send_overhead = 2e-6;
    recv_overhead = 2e-6;
    link;
    channels = (fun _ -> 1);
    faults = None;
    reliable = false;
    placement = None;
  }

(* Cluster of four SPARCserver 20 SMPs (4 CPUs each) on one 10 Mb/s
   Ethernet.  Intra-node transfers use the node's bus (channel = node);
   inter-node transfers share the single Ethernet segment (channel 100),
   whose high latency and low bandwidth damp speedup beyond 4 CPUs --
   the paper's observation. *)
let sparc20_cluster =
  let node r = r / 4 in
  (* the inter-node record is constant; intra-node records differ only
     by node id, so they are built once per node and cached.  The
     Ethernet channel is -1 so it can never collide with a node id
     when [with_procs] scales the cluster out. *)
  let inter = { latency = 800e-6; bandwidth = mbytes 1.0; channel = Some (-1) } in
  let intra : link Int_tbl.t = Int_tbl.create 8 in
  let link src dst =
    if node src = node dst then (
      let nd = node src in
      match Int_tbl.find_opt intra nd with
      | Some l -> l
      | None ->
          let l = { latency = 4e-6; bandwidth = mbytes 100.; channel = Some nd } in
          Int_tbl.add intra nd l;
          l)
    else inter
  in
  {
    name = "SPARC-20 SMP cluster";
    max_procs = 16;
    flop_time = mflops 15.;
    interp_overhead = 1.6e-6;
    send_overhead = 10e-6;
    recv_overhead = 10e-6;
    link;
    channels = (fun n -> (n + 3) / 4);
    faults = None;
    reliable = false;
    placement = None;
  }

(* Single-workstation model used for the sequential comparisons of
   Figure 2 (one UltraSPARC CPU of the Meiko CS-2). *)
let workstation =
  let l = { latency = 1e-6; bandwidth = mbytes 200.; channel = None } in
  let link _ _ = l in
  {
    name = "UltraSPARC workstation";
    max_procs = 1;
    flop_time = mflops 25.;
    interp_overhead = 1.2e-6;
    send_overhead = 0.;
    recv_overhead = 0.;
    link;
    channels = (fun _ -> 0);
    faults = None;
    reliable = false;
    placement = None;
  }

(* Extrapolation beyond the paper: a 1999-era Beowulf -- 16 commodity
   PCs on switched fast Ethernet.  CPUs are ~5x faster than the CS-2
   nodes but the TCP/IP latency is also ~3x worse, so the
   compute/communication balance the paper analyzes shifts again. *)
let beowulf =
  let l = { latency = 120e-6; bandwidth = mbytes 11.; channel = None } in
  let link _ _ = l in
  {
    name = "Beowulf (1999)";
    max_procs = 16;
    flop_time = mflops 120.;
    interp_overhead = 0.4e-6;
    send_overhead = 25e-6;
    recv_overhead = 25e-6;
    link;
    channels = (fun _ -> 0);
    faults = None;
    reliable = false;
    placement = None;
  }

(* Parametric fat-tree cluster, the post-paper machine model for the
   scaling studies: [radix^levels] nodes under [levels] tiers of
   switches.  A message climbs to the lowest common ancestor switch
   and comes back down; each switch is one contention channel, and
   link bandwidth grows by the radix per tier ("fat" links), which is
   what keeps the bisection usable as P grows.  Links are computed on
   demand -- one integer-division loop to find the LCA tier -- and the
   per-switch records are cached, so nothing O(P^2) is ever built. *)
let fattree ?(radix = 16) ?(levels = 3) () =
  if radix < 2 then invalid_arg "fattree: radix must be at least 2";
  if levels < 1 || levels > 10 then
    invalid_arg "fattree: levels must be between 1 and 10";
  let max_procs =
    let rec go acc l =
      if l = 0 || acc >= 1 lsl 19 then acc else go (acc * radix) (l - 1)
    in
    go 1 levels
  in
  (* pow.(l) = nodes under one tier-l switch; offset.(l) = first channel
     id of tier l, so channel ids are unique across tiers *)
  let pow = Array.make (levels + 1) 1 in
  for l = 1 to levels do
    pow.(l) <- pow.(l - 1) * radix
  done;
  let offset = Array.make (levels + 1) 0 in
  for l = 2 to levels do
    offset.(l) <-
      offset.(l - 1) + ((max_procs + pow.(l - 1) - 1) / pow.(l - 1))
  done;
  let self = { latency = 0.5e-6; bandwidth = mbytes 2000.; channel = None } in
  let leaf_bw = mbytes 250. in
  (* the per-switch records by channel id, built on first use ([self]
     marks a switch not seen yet) *)
  let nchannels =
    offset.(levels) + ((max_procs + pow.(levels) - 1) / pow.(levels))
  in
  let switches = Array.make nchannels self in
  let link src dst =
    if src = dst then self
    else begin
      (* A node past [max_procs] ([with_procs] grew the machine beyond
         the tree) hangs off the last top-tier switch. *)
      let t =
        if src >= max_procs || dst >= max_procs then levels
        else begin
          let tier = ref 1 in
          while src / pow.(!tier) <> dst / pow.(!tier) do
            incr tier
          done;
          !tier
        end
      in
      let ch = min (offset.(t) + (src / pow.(t))) (nchannels - 1) in
      let l = switches.(ch) in
      if l != self then l
      else begin
        let l =
          {
            (* two hops per tier crossed, up and back down *)
            latency = 1.4e-6 +. (float_of_int (2 * t) *. 0.9e-6);
            bandwidth = leaf_bw *. float_of_int pow.(t - 1);
            channel = Some ch;
          }
        in
        switches.(ch) <- l;
        l
      end
    end
  in
  {
    name = Printf.sprintf "fat-tree %dx%d" radix levels;
    max_procs;
    flop_time = mflops 500.;
    interp_overhead = 0.3e-6;
    send_overhead = 2.5e-6;
    recv_overhead = 2.5e-6;
    link;
    channels = (fun _ -> nchannels);
    faults = None;
    reliable = false;
    placement = None;
  }

let fattree_default = fattree ()

let all = [ meiko_cs2; enterprise_smp; sparc20_cluster ]

let by_name name =
  let norm = String.lowercase_ascii (String.trim name) in
  (* "fattree:8x2" picks radix 8 with two switch tiers *)
  let custom_fattree () =
    if String.length norm > 8 && String.sub norm 0 8 = "fattree:" then
      let spec = String.sub norm 8 (String.length norm - 8) in
      match String.split_on_char 'x' spec with
      | [ r; l ] -> (
          match (int_of_string_opt r, int_of_string_opt l) with
          | Some r, Some l when r >= 2 && l >= 1 && l <= 10 ->
              Some (fattree ~radix:r ~levels:l ())
          | _ -> None)
      | _ -> None
    else None
  in
  match custom_fattree () with
  | Some m -> Some m
  | None ->
      List.find_opt
        (fun m ->
          String.lowercase_ascii m.name = norm
          ||
          match norm with
          | "meiko" | "cs2" | "cs-2" -> m == meiko_cs2
          | "smp" | "enterprise" -> m == enterprise_smp
          | "cluster" | "sparc20" -> m == sparc20_cluster
          | "workstation" | "ultrasparc" -> m == workstation
          | "beowulf" -> m == beowulf
          | "fattree" | "fat-tree" -> m == fattree_default
          | _ -> false)
        (workstation :: beowulf :: fattree_default :: all)
