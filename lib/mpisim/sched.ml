(* Collective schedules as data.  Each of [Coll]'s algorithms is a pure
   function from its group's size, the calling member's position and
   the block sizes to that member's rounds, which it passes in order to
   a consumer ([Coll.run], the runner); the consumer's state rides
   along.  Peers are group positions, which the runner maps to ranks.
   Nothing here touches [Sim], so a schedule can be checked, and its
   traffic counted, without running it.

   Passing rounds instead of returning them keeps a member's work per
   round O(1) with nothing allocated for it: no call builds a closure,
   a round record or a list of its P rounds.  That matters at scale: a
   rank waits inside every round, and what a waiting rank holds young
   is promoted by the minor collector. *)

(* A span of the working array that a round sends, or receives into. *)
type span =
  | All  (* the whole array; a received block must be as long *)
  | Any  (* receive only: a block of any length *)
  | Window of int * int
      (* [Window (off, len)]: [len] floats from [off], continuing at 0
         past the array's end *)
  | Runs of int  (* [Runs r]: floats [r, 2r), [3r, 4r), ... of the array *)

(* What the receiving half of a round does with the block. *)
type step =
  | Forward  (* it becomes the working array, and what is sent on *)
  | Combine of bool
      (* it combines into the working array element by element, on the
         left when [true]; a one-float block combines into every element *)
  | Place  (* it is copied into the receive span *)

(* A member's schedule calls its consumer [f st] once per round, in
   order: send [send] to position [dst], receive a block of [recv]'s
   length from position [src], and [step] it.  [dst] or [src] is -1
   when the round has no send or no receive; a round with both is one
   exchange, the send first. *)
type 'a rounds =
  'a -> dst:int -> send:span -> src:int -> recv:span -> step -> unit

(* The floats a span covers in an array of [n]. *)
let length n = function
  | All | Any -> n
  | Window (_, len) -> len
  | Runs 0 -> 0
  | Runs r -> (n / (2 * r) * r) + max 0 ((n mod (2 * r)) - r)

(* [f s len] for each run of [Runs r] in an array of [n], in order. *)
let iter_runs n r f =
  let s = ref r in
  while !s < n do
    f !s (min r (n - !s));
    s := !s + (2 * r)
  done

let send (f : 'a rounds) st dst span =
  f st ~dst ~send:span ~src:(-1) ~recv:Any Forward

let receive (f : 'a rounds) st src span step =
  f st ~dst:(-1) ~send:All ~src ~recv:span step

(* shared, so that choosing a side allocates nothing *)
let left = Combine true
let right = Combine false

(* ceil (log2 p): the rounds of the doubling schedules. *)
let log2_ceil p =
  let k = ref 0 in
  while 1 lsl !k < p do
    incr k
  done;
  !k

(* Binomial-tree broadcast from [root]: relative to the root, a member
   receives from its parent (itself less its lowest set bit) and sends
   to its children (itself plus each smaller power of two, in range),
   largest subtree first.  One array travels the whole tree. *)
let tree ~root p me f st =
  let rel = (me - root + p) mod p in
  let low = if rel = 0 then p else rel land -rel in
  if rel > 0 then receive f st ((rel - low + root) mod p) Any Forward;
  for j = log2_ceil (min low (p - rel)) - 1 downto 0 do
    send f st ((rel + (1 lsl j) + root) mod p) All
  done

(* Flat tree: the root sends to every other rank in rank order.  The
   ablation baseline for [tree]: O(P) serial sends at the root. *)
let flat ~root p me f st =
  if me <> root then receive f st root Any Forward
  else
    for dst = 0 to p - 1 do
      if dst <> root then send f st dst All
    done

(* Recursive-doubling allreduce: log2 rounds of pairwise exchange,
   each combining with the lower position's block on the left, so every
   member gets the same bracketing as a binomial tree.
   Past the largest power of two below [p], the lowest [2 rem]
   positions pair up first: the even one passes its block to the odd
   one, which takes part in the exchange and hands it the result. *)
let allreduce p me f st =
  let k = log2_ceil (p + 1) - 1 in
  let rem = p - (1 lsl k) in
  if me < 2 * rem && me land 1 = 0 then begin
    send f st (me + 1) All;
    receive f st (me + 1) All Forward
  end
  else begin
    let core = if me < 2 * rem then me / 2 else me - rem in
    if me < 2 * rem then receive f st (me - 1) All left;
    for i = 0 to k - 1 do
      let r = core lxor (1 lsl i) in
      let peer = if r < rem then (2 * r) + 1 else r + rem in
      let step = if r < core then left else right in
      f st ~dst:peer ~send:All ~src:peer ~recv:All step
    done;
    if me < 2 * rem then send f st (me - 1) All
  end

(* Gather to [root]: every other member sends its block, and the root
   receives them in position order, block [i] of [counts.(i)] floats
   after those before it. *)
let gather ~root p me ~counts f st =
  if me <> root then send f st root All
  else begin
    let at = ref 0 in
    for src = 0 to p - 1 do
      if src <> root then receive f st src (Window (!at, counts.(src))) Place;
      at := !at + counts.(src)
    done
  end

(* The [nb] consecutive blocks (mod p) from [b], of an array whose
   block [i] starts at [offset i]. *)
let window ~offset p b nb =
  if b + nb <= p then Window (offset b, offset (b + nb) - offset b)
  else Window (offset b, offset p - offset b + offset (b + nb - p))

(* Ring allgather, the standard implementation on mid-90s MPI stacks:
   in round [s] a member sends the block of position [me - s] to its
   right neighbour and receives that of [me - s - 1] from its left
   one.  p - 1 rounds, p (p - 1) messages. *)
let ring p me ~offset f st =
  let dst = (me + 1) mod p and src = (me - 1 + p) mod p in
  for s = 0 to p - 2 do
    let send = window ~offset p ((me - s + p) mod p) 1
    and recv = window ~offset p ((me - s - 1 + p) mod p) 1 in
    f st ~dst ~send ~src ~recv Place
  done

(* Bruck-style doubling allgather: after the round with [w] a member
   holds the [min (2w, p)] consecutive blocks (mod p) from its own.
   Each round it sends its leading blocks one window to the left and
   receives the same-shaped extension from one window to the right, so
   the window doubles until it wraps: ceil (log2 p) rounds. *)
let bruck p me ~offset f st =
  let w = ref 1 in
  while !w < p do
    let nb = min !w (p - !w) and src = (me + !w) mod p in
    let send = window ~offset p me nb and recv = window ~offset p src nb in
    f st ~dst:((me - !w + p) mod p) ~send ~src ~recv Place;
    w := 2 * !w
  done

(* Bruck's index all-to-all over slots of [block] floats, slot [s]
   holding the block bound for position [me + s]: in the round with
   [k] (a power of two) a member sends the slots [s] with [s land k]
   set to position [me + k] and receives the same slots from [me - k].
   A block in slot [s] thus travels [s] positions in ceil (log2 p)
   rounds: for groups whose blocks are so small that only the message
   count matters. *)
let index p me ~block f st =
  let k = ref 1 in
  while !k < p do
    let slots = Runs (!k * block) in
    f st ~dst:((me + !k) mod p) ~send:slots ~src:((me - !k + p) mod p)
      ~recv:slots Place;
    k := 2 * !k
  done

(* Exclusive scan over the working array [excl; incl] by recursive
   doubling: in the round with [d] a member sends its inclusive value
   to [me + d] and combines the one from [me - d] into both, on the
   left, where those exist. *)
let scan p me f st =
  let d = ref 1 in
  while !d < p do
    let dst = if me + !d < p then me + !d else -1 in
    f st ~dst ~send:(Window (1, 1)) ~src:(max (-1) (me - !d))
      ~recv:(Window (0, 1)) left;
    d := 2 * !d
  done
