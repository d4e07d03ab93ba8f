(** Counter-based randomness shared by the noisy backend, the device
    layer and the service.

    Every random choice in those layers is a pure function of a seed
    and a counter (shot index, batch index, attempt number, request
    index) — never of a mutable generator threaded through the run. A
    shot, batch or fault decision therefore reproduces exactly whichever
    domain computes it and however many ran before it, which is what
    makes results bit-identical at any [--jobs]. *)

(** [splitmix64 z] is the splitmix64 finalizer: the standard 64-bit
    avalanche (Steele et al.). *)
let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** The 64-bit golden-ratio increment of splitmix64. *)
let golden = 0x9E3779B97F4A7C15L

(** [shot_state ~seed shot] is the independent PRNG state of shot
    [shot] in a run seeded with [seed]. *)
let shot_state ~seed shot =
  let open Int64 in
  let x = add (mul (of_int seed) golden) (of_int shot) in
  let a = splitmix64 x in
  let b = splitmix64 (add x golden) in
  Random.State.make [| to_int a; to_int b; seed; shot |]

(** [derive ~seed k] is the [k]-th non-negative seed derived from
    [seed]: a device job's batch seeds, a service's per-job seeds. *)
let derive ~seed k =
  let z = splitmix64 Int64.(add (mul (of_int seed) golden) (of_int (k + 1))) in
  Int64.to_int z land max_int

(** [uniform ~seed ~i ~salt] is a uniform draw in [\[0,1)] indexed by
    counter [i]; distinct [salt]s give independent streams from one
    seed (one per kind of decision). *)
let uniform ~seed ~i ~salt =
  let open Int64 in
  let x = add (mul (of_int (seed lxor (salt * 0x01000193))) golden) (of_int i) in
  let z = splitmix64 (add (splitmix64 x) (of_int (salt + 1))) in
  to_float (shift_right_logical z 11) /. 9007199254740992. (* / 2^53 *)
