(** Sharded amplitude storage for the dense statevector.

    The state of [n] qubits is split into [2^(n-sb)] {e slabs} of [2^sb]
    amplitudes each (split unboxed re/im float arrays per slab); basis
    index bit [q] is the value of qubit [q], and global index [x] lives
    in slab [x lsr sb] at local offset [x land smask]. States of at most
    {!single_slab_max} qubits keep a single slab — exactly the flat
    PR 8 layout, byte for byte — while wider states shard so that

    - allocation stays incremental: hundreds of ~512 kB slabs are far
      cheaper to allocate and collect than two multi-hundred-MB arrays
      (measured ~13x at 24 qubits), which is most of a cold run's cost;
    - kernels whose touched qubits all sit below the slab bit run
      slab-by-slab over the domain pool with zero cross-slab traffic
      and zero locks;
    - cross-slab passes (high-bit permutations and butterflies) stream
      whole slabs in lockstep with sequential slab-local writes.

    The slab size never changes results: every kernel performs the same
    per-amplitude float arithmetic in the same order for any shard-bits
    setting, so amplitudes are bit-identical across configurations —
    the shard analogue of the PR 3/PR 8 [--jobs] determinism contract. *)

(** Raised (instead of dying with [Out_of_memory]) when a requested
    statevector exceeds the configured amplitude cap. The message is a
    single [sv.alloc:]-tagged line; both CLIs print it to stderr and
    exit 2. *)
exception Unsupported of string

(* Default amplitude cap: 2^28 amplitudes = 4 GB of state. Raisable via
   the environment because the right cap is a property of the machine,
   not the build. *)
let default_max_qubits = 28

(** [max_qubits ()] is the widest statevector {!init} will allocate:
    [DAUTOQ_SV_MAX_QUBITS] when set to a positive integer, else
    {!default_max_qubits}. Read dynamically so tests and long-lived
    services can adjust it. *)
let max_qubits () =
  match Sys.getenv_opt "DAUTOQ_SV_MAX_QUBITS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> n
      | _ -> default_max_qubits)
  | None -> default_max_qubits

(* --- shard-bits selection --- *)

(* Below this width a single slab wins: the flat layout has no indirection
   and every historical test/bench regime (≤ 20q) keeps its exact code
   path. 2^20 amplitudes = 16 MB of state, still a cheap allocation. *)
let single_slab_max = 20

(* Auto-sharded slabs cap at 2^16 amplitudes (two 512 kB arrays): big
   enough that slab dispatch is noise, small enough that a slab pass is
   cache-friendly and allocation never triggers a huge contiguous
   request. *)
let max_auto_slab_bits = 16

let shard_override = ref None

(** [set_shard_bits (Some s)] forces every subsequently allocated state
    to slabs of [2^s] amplitudes (clamped to the state's width); [None]
    restores the automatic heuristic. The CLIs' [--shard-bits] flag.
    @raise Invalid_argument when [s < 1]. *)
let set_shard_bits v =
  (match v with
  | Some s when s < 1 -> invalid_arg (Printf.sprintf "expected an integer >= 1, got %d" s)
  | _ -> ());
  shard_override := v

(** [shard_bits_setting ()] is the current override, if any. *)
let shard_bits_setting () = !shard_override

let ceil_log2 v =
  let b = ref 0 in
  while 1 lsl !b < v do
    incr b
  done;
  !b

(* Heuristic: keep slabs at 2^16 unless spreading the domain pool needs
   more of them — at least 4 slabs per pool slot so slab-local kernels
   load-balance, never fewer than 2 slabs once sharding at all. *)
let auto_slab_bits n =
  if n <= single_slab_max then n
  else
    let spread = ceil_log2 (4 * Par.default_jobs ()) in
    max 1 (min max_auto_slab_bits (n - max 4 spread))

let slab_bits_for n =
  match !shard_override with
  | Some s -> max 1 (min s n)
  | None -> auto_slab_bits n

(* [sl_re]/[sl_im] are mutable so full-width permutation kernels can
   ping-pong into a scratch slab set and swap, instead of copying back.
   Nothing outside the statevector modules holds an alias to the arrays
   across a run. *)
type t = {
  n : int;
  sb : int; (* slab bits: each slab holds 2^sb amplitudes *)
  smask : int; (* (1 lsl sb) - 1 *)
  mutable sl_re : float array array;
  mutable sl_im : float array array;
}

let alloc_slabs ~slabs ~slab_size =
  Array.init slabs (fun _ -> Array.make slab_size 0.)

(** [init n] is |0…0⟩, sharded per {!slab_bits_for}. Raises {!Unsupported}
    past {!max_qubits} — a one-line, catchable refusal instead of an
    allocation crash. *)
let init n =
  if n < 1 then invalid_arg "Statevector.init: bad qubit count";
  let cap = max_qubits () in
  if n > cap then
    raise
      (Unsupported
         (Printf.sprintf
            "sv.alloc: %d qubits (2^%d amplitudes) exceed the statevector \
             cap of %d qubits; raise DAUTOQ_SV_MAX_QUBITS. Clifford \
             circuits run wider without a statevector: on the stabilizer \
             backend, or on the noisy backend up to 62 qubits; other \
             circuits need one"
            n n cap));
  let sb = slab_bits_for n in
  let slabs = 1 lsl (n - sb) and slab_size = 1 lsl sb in
  let s =
    { n; sb; smask = slab_size - 1;
      sl_re = alloc_slabs ~slabs ~slab_size;
      sl_im = alloc_slabs ~slabs ~slab_size }
  in
  s.sl_re.(0).(0) <- 1.;
  if slabs > 1 && Obs.enabled () then Obs.count ~by:slabs "sv.shard.slabs";
  s

(** [reset s] returns [s] to |0…0⟩ in place: a zero fill, no allocation
    (trajectory batches reuse one state across their shots). *)
let reset s =
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.) s.sl_re;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.) s.sl_im;
  s.sl_re.(0).(0) <- 1.

(* All-zero flat scratch state (single slab regardless of the override):
   the plan builder simulates tiny basis columns on these. *)
let make_flat n =
  let size = 1 lsl n in
  { n; sb = n; smask = size - 1;
    sl_re = [| Array.make size 0. |];
    sl_im = [| Array.make size 0. |] }

let num_qubits s = s.n
let size s = 1 lsl s.n
let slab_count s = Array.length s.sl_re
let slab_size s = s.smask + 1

(** [sharded s] holds when the state spans more than one slab (the flat
    fast paths apply otherwise). *)
let sharded s = s.sb < s.n

(* Global-index accessors. Hot loops use the slab arrays directly; these
   serve cold paths (amplitude readout, trajectory channels) and the
   generic cross-slab fallbacks. *)
let get_re s x = (s.sl_re.(x lsr s.sb)).(x land s.smask)
let get_im s x = (s.sl_im.(x lsr s.sb)).(x land s.smask)
let set_re s x v = (s.sl_re.(x lsr s.sb)).(x land s.smask) <- v
let set_im s x v = (s.sl_im.(x lsr s.sb)).(x land s.smask) <- v

(** [amplitude s x] is the complex amplitude of basis state [x]. *)
let amplitude s x = { Complex.re = get_re s x; im = get_im s x }

(** [prob s x] is the outcome probability of basis state [x]. *)
let prob s x =
  let r = get_re s x and i = get_im s x in
  (r *. r) +. (i *. i)

(* Iterate the slab-aligned pieces of global range [lo, hi):
   [f slab base lo_local hi_local], with [base = slab lsl sb]. Reductions
   use this to walk slabs in ascending global order, which keeps their
   float summation order identical to the flat layout's. *)
let iter_pieces s lo hi f =
  let i = ref lo in
  while !i < hi do
    let sl = !i lsr s.sb in
    let base = sl lsl s.sb in
    let lo_l = !i - base in
    let hi_l = min (hi - base) (s.smask + 1) in
    f sl base lo_l hi_l;
    i := base + hi_l
  done
