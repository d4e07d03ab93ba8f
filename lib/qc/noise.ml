(** Monte-Carlo noisy execution — the stand-in for the paper's IBM Quantum
    Experience backend (Fig. 6).

    Pauli-twirled circuit noise: after every gate each touched qubit
    suffers a uniformly random Pauli error with a gate-class-dependent
    probability, and each final readout bit flips independently. The
    default parameters are calibrated to published 2017-era IBM QX
    numbers (≈0.1% single-qubit gate error, ≈2–4% CNOT error, ≈3–8%
    readout error), which suffices to reproduce the {e shape} of Fig. 6:
    the correct hidden shift dominates the histogram at p ≈ 0.6 rather
    than p = 1.

    {!run_shots} picks one of four engines ({!engine_for}) from the
    parameters and the circuit alone:
    - [Noiseless]: no gate noise, so one shared simulation is sampled
      per shot;
    - [Frame]: Clifford circuits without amplitude damping carry a
      Pauli frame per shot over one stabilizer tableau and never
      allocate a statevector (up to 62 qubits);
    - [Segment]: other circuits without amplitude damping, from
      {!segment_min_qubits} qubits, splice each shot's Pauli errors into
      the gates and run every maximal CNOT/X/phase run as one
      {!Phase_poly} region — one sweep instead of one per gate and error;
    - [Trajectory]: everything else (amplitude damping, narrow circuits)
      runs per-gate trajectories ({!run_shot} is the single-shot form and
      the reference the other engines are tested against).
    Segment and trajectory shots fan out over the {!Par} domain pool,
    one state (and scratch) per worker chunk. Determinism is by
    construction: shot [i]'s PRNG state derives from [(seed, i)] through
    {!Rng.shot_state} (never from how shots are scheduled), every engine
    draws from it in the per-gate order, per-domain histograms merge by
    integer addition, and telemetry accumulates per domain and flushes
    once from the caller — so any [jobs] count is bit-identical to the
    [~jobs:1] reference. *)

type params = {
  p1 : float; (* error probability per 1-qubit gate, per qubit *)
  p2 : float; (* error probability per 2+-qubit gate, per involved qubit *)
  readout : float; (* bit-flip probability per measured qubit *)
  gamma : float; (* amplitude-damping (T1 relaxation) per gate, per qubit *)
}

(** Calibrated to the IBM QX4/QX5 generation the paper used (within the
    published ranges; chosen so the E2 reproduction lands near the paper's
    measured success probability of ≈0.63 on the Fig. 4 circuit). *)
let ibm_qx2017 = { p1 = 0.001; p2 = 0.032; readout = 0.055; gamma = 0. }

(** [ibm_qx2017_t1] additionally models T1 relaxation between gates
    (trajectory method): a slightly more pessimistic backend. *)
let ibm_qx2017_t1 = { ibm_qx2017 with gamma = 0.004 }

(** [noiseless] turns the channel off (for testing the harness itself). *)
let noiseless = { p1 = 0.; p2 = 0.; readout = 0.; gamma = 0. }

(** [scale_params f p] multiplies every channel strength by [f], clamped
    into [0, 0.95] — the device layer's calibration-drift model (error
    rates slowly wander as the simulated calibration ages). *)
let scale_params f p =
  let c x = Float.max 0. (Float.min 0.95 (x *. f)) in
  { p1 = c p.p1; p2 = c p.p2; readout = c p.readout; gamma = c p.gamma }

(* ------------------------------------------------------------------ *)
(* Outcome histograms                                                  *)
(* ------------------------------------------------------------------ *)

(** An outcome histogram. Dense [int array] up to {!sparse_threshold}
    qubits; above that a hashtable keyed by outcome — shots ≪ 2^n there,
    and the dense array alone would cost [2^n] words per run. *)
type counts =
  | Dense of int array
  | Sparse of { size : int; tbl : (int, int) Hashtbl.t }

(** Widths above this store counts sparsely (2^20 ints = 8 MB). *)
let sparse_threshold = 20

let counts_make n =
  if n <= sparse_threshold then Dense (Array.make (1 lsl n) 0)
  else Sparse { size = 1 lsl n; tbl = Hashtbl.create 256 }

let counts_add c x k =
  match c with
  | Dense a -> a.(x) <- a.(x) + k
  | Sparse { tbl; _ } ->
      Hashtbl.replace tbl x (k + Option.value ~default:0 (Hashtbl.find_opt tbl x))

(** [count c x] is the number of shots that measured outcome [x]. *)
let count c x =
  match c with
  | Dense a -> a.(x)
  | Sparse { tbl; _ } -> Option.value ~default:0 (Hashtbl.find_opt tbl x)

(** [counts_size c] is the outcome-space size [2^n]. *)
let counts_size = function Dense a -> Array.length a | Sparse { size; _ } -> size

(** [counts_to_alist c] lists the nonzero [(outcome, count)] pairs in
    ascending outcome order (deterministic for either representation). *)
let counts_to_alist c =
  match c with
  | Dense a ->
      let acc = ref [] in
      for x = Array.length a - 1 downto 0 do
        if a.(x) > 0 then acc := (x, a.(x)) :: !acc
      done;
      !acc
  | Sparse { tbl; _ } ->
      List.sort compare (Hashtbl.fold (fun x k acc -> (x, k) :: acc) tbl [])

(** [iter_counts f c] applies [f outcome count] to every nonzero entry in
    ascending outcome order. *)
let iter_counts f c = List.iter (fun (x, k) -> f x k) (counts_to_alist c)

(** [total_counts c] sums the histogram (= the shot count). *)
let total_counts c =
  List.fold_left (fun acc (_, k) -> acc + k) 0 (counts_to_alist c)

(** [counts_of_array a] wraps a dense histogram (handy in tests). *)
let counts_of_array a = Dense (Array.copy a)

(** [counts_equal a b] compares histograms by content. *)
let counts_equal a b =
  counts_size a = counts_size b && counts_to_alist a = counts_to_alist b

(* Merge [src] into [dst] (in place) and return [dst]. Integer addition
   commutes, so merge order cannot affect the result. *)
let counts_merge dst src =
  iter_counts (fun x k -> counts_add dst x k) src;
  dst

(* ------------------------------------------------------------------ *)
(* Single shots                                                        *)
(* ------------------------------------------------------------------ *)

(* A circuit as the shot loops read it: gates plus their qubit arrays,
   converted once per batch. *)
type prepared = { nq : int; gates : Gate.t array; touched : int array array }

let prepare circuit =
  let gates = Circuit.to_array circuit in
  { nq = Circuit.num_qubits circuit; gates;
    touched = Array.map (fun g -> Array.of_list (Gate.qubits g)) gates }

(* The error draws after gate [i], shared by every engine: per touched
   qubit one float, then [int 3] (0 = X, 1 = Y, 2 = Z) when it errs.
   [on_qubit q] runs after each qubit's draw (amplitude damping). *)
let draw_errors st params pc i ~pauli ~on_qubit =
  let qs = pc.touched.(i) in
  let p = if Array.length qs = 1 then params.p1 else params.p2 in
  let e = ref 0 in
  Array.iter
    (fun q ->
      if Random.State.float st 1. < p then begin
        incr e;
        pauli q (Random.State.int st 3)
      end;
      on_qubit q)
    qs;
  !e

(* Readout: each of the [n] measured bits flips independently. *)
let readout st params n x =
  let x = ref x in
  for q = 0 to n - 1 do
    if Random.State.float st 1. < params.readout then x := !x lxor (1 lsl q)
  done;
  !x

(* One outcome: a sample of the final state, then the readout flips. *)
let measure st params n s = readout st params n (Statevector.sample st s)

let pauli_gate q = function 0 -> Gate.X q | 1 -> Gate.Y q | _ -> Gate.Z q

(* Per-gate trajectory: [s] (reset here) ends in the shot's final state;
   returns the injected error count. No telemetry — safe to call from
   pool workers. *)
let trajectory_evolve s st params pc =
  Statevector.reset s;
  let errors = ref 0 in
  let pauli q k = Statevector.apply s (pauli_gate q k) in
  let on_qubit q =
    if params.gamma > 0. then begin
      (* quantum-trajectory amplitude damping *)
      let p_jump = params.gamma *. Statevector.prob_of_qubit s q in
      let jump = Random.State.float st 1. < p_jump in
      Statevector.amplitude_damp s q ~gamma:params.gamma ~jump
    end
  in
  Array.iteri
    (fun i g ->
      Statevector.apply s g;
      errors := !errors + draw_errors st params pc i ~pauli ~on_qubit)
    pc.gates;
  !errors

(** [run_shot st params circuit] simulates one noisy execution gate by
    gate (the reference every engine is tested against) and returns the
    measured basis state (all qubits, readout errors included). *)
let run_shot st params circuit =
  let pc = prepare circuit in
  let s = Statevector.init pc.nq in
  let errors = trajectory_evolve s st params pc in
  let result = measure st params pc.nq s in
  if Obs.enabled () then begin
    Obs.count "qc.noise.shots";
    if errors > 0 then Obs.count ~by:errors "qc.noise.errors_injected";
    Obs.observe "qc.noise.errors_per_shot" (float_of_int errors)
  end;
  result

(* ------------------------------------------------------------------ *)
(* Phase-polynomial segments (non-Clifford circuits, gamma = 0)        *)
(* ------------------------------------------------------------------ *)

(* Without amplitude damping the drawn Paulis are just more gates:
   X flips a parity's constant, Z adds a π term on the qubit's current
   parity, Y does both (up to a global phase). So each shot splices its
   errors into the gate stream and folds every maximal run of
   CNOT/X/Y/Z/S/T/CZ/SWAP into one {!Phase_poly} region, applied by one
   out-of-place sweep ({!Sv_kernels.apply_segment}); H and the non-affine
   gates (Rz, Toffoli, MCX, CCZ, MCZ) go through the per-gate kernels.
   An addeq:3 shot (17 qubits, 467 gates) becomes ~35 segment sweeps
   plus its 44 H sweeps, instead of ~480 gate and error sweeps. *)

(* Below this width a shot is too cheap for its per-region setup to pay
   (EXPERIMENTS.md, E23): the per-gate path stays. *)
let segment_min_qubits = 8

(* A gate plus the Z errors on its qubits add at most this many parities
   (CZ: three, then one per qubit). *)
let max_new_terms = 5

(* [r] starts empty and every flush empties it again. *)
let segment_evolve s scr r st params pc =
  Statevector.reset s;
  let flush () =
    let masks = ref [] and eighths = ref [] in
    List.iter
      (fun (l, (t : Phase_poly.term)) ->
        let e = t.eighths land 7 in
        if e <> 0 then begin
          masks := l :: !masks;
          eighths := e :: !eighths
        end)
      (Phase_poly.terms r);
    let offset = Phase_poly.offset r in
    if !masks <> [] || offset <> 0 || not (Phase_poly.is_linear_identity r) then
      Sv_kernels.apply_segment s scr
        (Sv_kernels.segment ~sb:s.Sv_shard.sb ~inv:r.Phase_poly.inv ~offset
           ~masks:(Array.of_list !masks) ~eighths:(Array.of_list !eighths));
    Phase_poly.reset r
  in
  let z q = Phase_poly.add_phase r q ~eighths:4 ~angle:0. in
  let pauli q = function
    | 0 -> Phase_poly.x r q
    | 1 ->
        z q;
        Phase_poly.x r q
    | _ -> z q
  in
  let errors = ref 0 in
  Array.iteri
    (fun i g ->
      if Phase_poly.term_count r > Sv_kernels.max_segment_terms - max_new_terms then flush ();
      let phase q e = Phase_poly.add_phase r q ~eighths:e ~angle:0. in
      (match g with
      | Gate.X q -> Phase_poly.x r q
      | Gate.Y q -> pauli q 1
      | Gate.Z q -> z q
      | Gate.S q -> phase q 2
      | Gate.Sdg q -> phase q 6
      | Gate.T q -> phase q 1
      | Gate.Tdg q -> phase q 7
      | Gate.Cnot (c, t) -> Phase_poly.cnot r c t
      | Gate.Cz (a, b) -> Phase_poly.cz r a b
      | Gate.Swap (a, b) -> Phase_poly.swap r a b
      | Gate.H _ | Gate.Rz _ | Gate.Ccx _ | Gate.Ccz _ | Gate.Mcx _ | Gate.Mcz _ ->
          flush ();
          Statevector.apply s g);
      errors := !errors + draw_errors st params pc i ~pauli ~on_qubit:ignore)
    pc.gates;
  flush ();
  !errors

(* ------------------------------------------------------------------ *)
(* Shot batches                                                        *)
(* ------------------------------------------------------------------ *)

(* One-slot memo for the noiseless fast path: [runs_statistics], device
   retries and repeated shell/CLI invocations re-sample the same compiled
   circuit, and the simulated state plus its CDF are pure functions of
   that circuit. The statevector's plan cache already makes the
   re-simulation itself cheap — this skips the whole 2^n simulation and
   CDF rebuild. The sampler CDF shares the state's slab layout, so the
   memo never pins a single contiguous 2^n array on wide sharded runs,
   and draws are bit-identical for any shard-bits setting. Main-domain
   only (like Obs); workers never call run_shots. *)
let sampler_memo : (string * Statevector.sampler) option ref = ref None

let sampler_for circuit =
  let key = Circuit.structural_key circuit in
  match !sampler_memo with
  | Some (k, smp) when String.equal k key ->
      if Obs.enabled () then Obs.count "qc.noise.sampler_reuse";
      smp
  | _ ->
      let smp = Statevector.sampler (Statevector.run circuit) in
      sampler_memo := Some (key, smp);
      smp

(* ------------------------------------------------------------------ *)
(* Pauli-frame shots (Clifford circuits)                               *)
(* ------------------------------------------------------------------ *)

(* Without amplitude damping every error draw is state-independent, so
   a noisy Clifford shot is the ideal stabilizer state times a Pauli
   frame (the technique of Stim, Gidney 2021). The ideal Z-basis
   outcomes come once per call from the tableau; each shot then only
   carries two packed ints through the gate array. *)
let frame_applies params circuit =
  params.gamma = 0.
  && Circuit.num_qubits circuit <= Stabilizer.max_frame_qubits
  && Stabilizer.is_clifford_circuit circuit

(* Shot [i] draws from [Rng.shot_state ~seed i] in exactly the order of
   the per-gate path ({!draw_errors}, then one float for the sample and
   [n] readout floats). So shot [i] reproduces [run_shot] bit for bit
   whenever the ideal output is a basis state, and matches it in
   distribution otherwise. *)
let frame_shots ~seed params circuit pc ~shots errors =
  let support = Stabilizer.z_support (Stabilizer.run circuit) in
  let k = Array.length support.Stabilizer.basis in
  let f = { Stabilizer.fx = 0; fz = 0 } in
  let pauli q kind =
    let b = 1 lsl q in
    if kind <> 2 then f.fx <- f.fx lxor b;
    if kind <> 0 then f.fz <- f.fz lxor b
  in
  let c = counts_make pc.nq in
  for shot = 0 to shots - 1 do
    let st = Rng.shot_state ~seed shot in
    f.fx <- 0;
    f.fz <- 0;
    let e = ref 0 in
    Array.iteri
      (fun i g ->
        Stabilizer.frame_conjugate f g;
        e := !e + draw_errors st params pc i ~pauli ~on_qubit:ignore)
      pc.gates;
    (* r < 1, so r * 2^k < 2^k <= 2^62 fits an int; [1 lsl k] would not *)
    let m = int_of_float (Float.ldexp (Random.State.float st 1.) k) in
    counts_add c (readout st params pc.nq (Stabilizer.support_nth support m lxor f.fx)) 1;
    errors.(shot) <- !e
  done;
  c

(* ------------------------------------------------------------------ *)
(* Engines                                                             *)
(* ------------------------------------------------------------------ *)

(** How {!run_shots} executes a batch; {!engine_for} picks one from the
    parameters and the circuit alone. *)
type engine =
  | Noiseless (* no gate noise: one shared simulation, sampled per shot *)
  | Frame (* Clifford, gamma = 0: Pauli frames over one tableau *)
  | Segment (* gamma = 0, >= segment_min_qubits: phase-polynomial sweeps *)
  | Trajectory (* everything else: per-gate statevector trajectories *)

let engine_name = function
  | Noiseless -> "noiseless"
  | Frame -> "frame"
  | Segment -> "segment"
  | Trajectory -> "trajectory"

let engine_for params circuit =
  if params.p1 = 0. && params.p2 = 0. && params.gamma = 0. then Noiseless
  else if frame_applies params circuit then Frame
  else if params.gamma = 0. && Circuit.num_qubits circuit >= segment_min_qubits then Segment
  else Trajectory

(* One worker chunk's evolution: the state, and for segments the scratch
   slabs and the region, are allocated here once and dropped with the
   chunk — nothing is retained across batches. *)
let evolver engine params pc =
  let s = Statevector.init pc.nq in
  match engine with
  | Segment ->
      let scr = Sv_kernels.scratch_for s and r = Phase_poly.create pc.nq in
      (s, fun st -> segment_evolve s scr r st params pc)
  | Noiseless | Frame | Trajectory -> (s, fun st -> trajectory_evolve s st params pc)

(** [final_state engine st params circuit] is one shot's state before
    measurement and its injected error count, on the statevector
    engines ([Segment] or [Trajectory]; the others have no per-shot
    state). Segment states match trajectory states up to global phase. *)
let final_state engine st params circuit =
  let pc = prepare circuit in
  let s, evolve = evolver engine params pc in
  (s, evolve st)

(** [run_shots ?seed ?jobs params circuit ~shots] returns the histogram of
    measured basis states over [shots] executions, on the {!engine_for}
    engine: noiseless parameters sample one shared simulation; Clifford
    circuits without amplitude damping (up to
    {!Stabilizer.max_frame_qubits} qubits) carry a Pauli frame per shot
    and allocate no statevector; other circuits without amplitude
    damping run phase-polynomial segments; everything else runs
    per-gate trajectories. Segment and trajectory shots fan out over
    [jobs] worker domains (default {!Par.default_jobs}). The histogram
    is bit-identical for every [jobs] value: [~jobs:1] defines the
    reference result. *)
let run_shots ?(seed = 0xC0FFEE) ?jobs params circuit ~shots =
  Obs.with_span "qc.noise.run_shots" @@ fun () ->
  let n = Circuit.num_qubits circuit in
  let jobs =
    let j = match jobs with Some j -> max 1 j | None -> Par.default_jobs () in
    min j (max 1 shots)
  in
  let engine = engine_for params circuit in
  if Obs.enabled () then
    Obs.add_attrs
      [ ("shots", Obs.Int shots); ("qubits", Obs.Int n); ("jobs", Obs.Int jobs);
        ("engine", Obs.Str (engine_name engine)) ];
  let errors = Array.make (max 1 shots) 0 in
  (* shots [lo, hi) into [c], per-shot error counts at their indices *)
  let chunk pc lo hi c =
    if hi > lo then begin
      let s, evolve = evolver engine params pc in
      for shot = lo to hi - 1 do
        let st = Rng.shot_state ~seed shot in
        errors.(shot) <- evolve st;
        counts_add c (measure st params n s) 1
      done
    end;
    c
  in
  let counts =
    match engine with
    | Noiseless ->
        (* Without gate noise every shot runs the same circuit: simulate
           once (memoized across calls — one plan, one sampler CDF), then
           draw each readout from the shared cumulative table (binary
           search instead of a 2^n scan per shot). Still seeded per shot,
           so the result is jobs-independent like the general path. *)
        let smp = sampler_for circuit in
        let c = counts_make n in
        for shot = 0 to shots - 1 do
          let st = Rng.shot_state ~seed shot in
          counts_add c (readout st params n (Statevector.sample_with smp st)) 1
        done;
        c
    | Frame ->
        (* ~4 µs per shot: cheaper sequential than through a pool *)
        frame_shots ~seed params circuit (prepare circuit) ~shots errors
    | Segment | Trajectory ->
        let pc = prepare circuit in
        if jobs = 1 then chunk pc 0 shots (counts_make n)
        else
          (* Chunk the shot range; each task accumulates a private
             histogram (and per-shot error counts at disjoint indices),
             then the chunks merge in index order on the calling
             domain. *)
          Par.with_pool ~jobs (fun pool ->
              Par.map_reduce pool ~tasks:jobs
                ~map:(fun i ->
                  chunk pc (shots * i / jobs) (shots * (i + 1) / jobs) (counts_make n))
                ~reduce:counts_merge ~init:(counts_make n))
  in
  (* telemetry accumulated above, flushed once from the calling domain —
     workers never touch the (single-domain) Obs state *)
  if Obs.enabled () then begin
    Obs.count ~by:shots "qc.noise.shots";
    let total_errors = Array.fold_left ( + ) 0 errors in
    if total_errors > 0 then Obs.count ~by:total_errors "qc.noise.errors_injected";
    for shot = 0 to shots - 1 do
      Obs.observe "qc.noise.errors_per_shot" (float_of_int errors.(shot))
    done
  end;
  counts

(** [success_probability counts target] is the empirical probability of the
    outcome [target]. *)
let success_probability counts target =
  let total = total_counts counts in
  if total = 0 then 0. else Float.of_int (count counts target) /. Float.of_int total

(** [runs_statistics ?seed ?jobs params circuit ~shots ~runs] repeats
    {!run_shots} and reports, per observed outcome, the mean and standard
    deviation of its frequency across runs — exactly the averaged
    histogram of the paper's Fig. 6 (3 runs × 1024 shots). The result
    lists [(outcome, mean, stddev)] in ascending outcome order over the
    outcomes some run observed; every other outcome has mean 0. Past the
    runs' own histograms, work and memory follow the observed outcomes
    rather than [2^n]. *)
let runs_statistics ?(seed = 7) ?jobs params circuit ~shots ~runs =
  let per_run =
    List.init runs (fun r -> run_shots ~seed:(seed + (r * 7919)) ?jobs params circuit ~shots)
  in
  let outcomes =
    List.sort_uniq compare
      (List.concat_map (fun c -> List.map fst (counts_to_alist c)) per_run)
  in
  let freq x c = Float.of_int (count c x) /. Float.of_int shots in
  List.map
    (fun x ->
      let m = List.fold_left (fun acc c -> acc +. freq x c) 0. per_run /. Float.of_int runs in
      let v =
        List.fold_left (fun acc c -> acc +. ((freq x c -. m) ** 2.)) 0. per_run
        /. Float.of_int runs
      in
      (x, m, sqrt v))
    outcomes

(** [stats_mean stats x] is outcome [x]'s mean frequency in a
    {!runs_statistics} result (0 when no run observed it). *)
let stats_mean stats x =
  match List.find_opt (fun (y, _, _) -> y = x) stats with Some (_, m, _) -> m | None -> 0.
