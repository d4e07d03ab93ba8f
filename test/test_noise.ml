open Qc

let bell = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ]

let test_noiseless_params () =
  (* with the zero channel, a basis-state circuit gives one outcome *)
  let c = Circuit.of_gates 2 [ Gate.X 1 ] in
  let counts = Noise.run_shots Noise.noiseless c ~shots:200 in
  Alcotest.(check int) "all shots on |10>" 200 (Noise.count counts 0b10);
  Alcotest.(check int) "nothing elsewhere" 0 (Noise.count counts 0)

let test_noiseless_bell () =
  let counts = Noise.run_shots Noise.noiseless bell ~shots:2000 in
  Alcotest.(check int) "no |01>" 0 (Noise.count counts 1);
  Alcotest.(check int) "no |10>" 0 (Noise.count counts 2);
  let f = Float.of_int (Noise.count counts 0) /. 2000. in
  Alcotest.(check bool) "balanced" true (f > 0.43 && f < 0.57)

let test_shots_conserved () =
  let counts = Noise.run_shots Noise.ibm_qx2017 bell ~shots:512 in
  Alcotest.(check int) "histogram sums to shots" 512 (Noise.total_counts counts)

let test_determinism_by_seed () =
  let a = Noise.run_shots ~seed:11 Noise.ibm_qx2017 bell ~shots:256 in
  let b = Noise.run_shots ~seed:11 Noise.ibm_qx2017 bell ~shots:256 in
  let c = Noise.run_shots ~seed:12 Noise.ibm_qx2017 bell ~shots:256 in
  Alcotest.(check bool) "same seed, same histogram" true (Noise.counts_equal a b);
  Alcotest.(check bool) "different seed differs" true (not (Noise.counts_equal a c))

let test_noise_degrades () =
  (* readout-only noise flips some outcomes of a deterministic circuit *)
  let c = Circuit.of_gates 3 [ Gate.X 0; Gate.X 1; Gate.X 2 ] in
  let params = { Noise.noiseless with Noise.readout = 0.2 } in
  let counts = Noise.run_shots params c ~shots:2000 in
  let correct = Float.of_int (Noise.count counts 7) /. 2000. in
  (* expect (1-0.2)^3 = 0.512 *)
  Alcotest.(check bool) "readout errors visible" true (correct > 0.42 && correct < 0.6)

let test_gate_noise_scales_with_depth () =
  (* more gates, lower success: compare 2 vs 20 identity-equivalent X pairs *)
  let params = { Noise.noiseless with Noise.p1 = 0.02 } in
  let mk reps = Circuit.of_gates 1 (List.concat (List.init reps (fun _ -> [ Gate.X 0; Gate.X 0 ]))) in
  let p_of reps =
    let counts = Noise.run_shots ~seed:5 params (mk reps) ~shots:3000 in
    Float.of_int (Noise.count counts 0) /. 3000.
  in
  Alcotest.(check bool) "deeper circuit is noisier" true (p_of 20 < p_of 2)

let test_success_probability () =
  let counts = Noise.counts_of_array [| 10; 70; 20; 0 |] in
  Alcotest.(check (float 1e-12)) "success prob" 0.7 (Noise.success_probability counts 1)

let test_runs_statistics_shape () =
  let stats = Noise.runs_statistics Noise.ibm_qx2017 bell ~shots:256 ~runs:3 in
  let outcomes = List.map (fun (x, _, _) -> x) stats in
  Alcotest.(check bool) "ascending distinct outcomes within 2^n" true
    (List.sort_uniq compare outcomes = outcomes
    && List.for_all (fun x -> x >= 0 && x < 4) outcomes);
  let total = List.fold_left (fun acc (_, m, _) -> acc +. m) 0. stats in
  Alcotest.(check (float 1e-9)) "means sum to 1" 1. total;
  List.iter
    (fun (_, m, s) ->
      Alcotest.(check bool) "observed, std nonnegative" true (m > 0. && s >= 0.))
    stats;
  Alcotest.(check (float 0.)) "unobserved mean is 0" 0. (Noise.stats_mean stats 4)

let test_amplitude_damping_rate () =
  (* one X gate with damping γ: P(decay back to 0) ≈ γ *)
  let gamma = 0.3 in
  let params = { Noise.noiseless with Noise.gamma } in
  let c = Circuit.of_gates 1 [ Gate.X 0 ] in
  let counts = Noise.run_shots ~seed:2 params c ~shots:5000 in
  let p0 = Float.of_int (Noise.count counts 0) /. 5000. in
  Alcotest.(check bool) "decay rate ~ gamma" true (Float.abs (p0 -. gamma) < 0.03)

let test_amplitude_damping_accumulates () =
  (* deeper circuits relax more: |1> through k waiting gates *)
  let params = { Noise.noiseless with Noise.gamma = 0.05 } in
  let mk k =
    Circuit.of_gates 2 (Gate.X 0 :: List.concat (List.init k (fun _ -> [ Gate.Z 0; Gate.Z 0 ])))
  in
  let survival k =
    let counts = Noise.run_shots ~seed:3 params (mk k) ~shots:3000 in
    Float.of_int (Noise.count counts 1) /. 3000.
  in
  Alcotest.(check bool) "more depth, more decay" true (survival 20 < survival 2)

let test_amplitude_damping_fixes_ground_state () =
  (* |0> is a fixed point of the T1 channel *)
  let params = { Noise.noiseless with Noise.gamma = 0.5 } in
  let c = Circuit.of_gates 1 [ Gate.Z 0; Gate.Z 0 ] in
  let counts = Noise.run_shots params c ~shots:500 in
  Alcotest.(check int) "ground state untouched" 500 (Noise.count counts 0)

let test_damping_preserves_norm () =
  let st = Helpers.rng 9 in
  for _ = 1 to 30 do
    let s = Statevector.run (Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.T 1; Gate.H 2 ]) in
    let q = Random.State.int st 3 in
    let gamma = 0.2 +. Random.State.float st 0.5 in
    let p_jump = gamma *. Statevector.prob_of_qubit s q in
    let jump = Random.State.float st 1. < p_jump in
    Statevector.amplitude_damp s q ~gamma ~jump;
    Alcotest.(check (float 1e-9)) "norm 1" 1. (Statevector.norm2 s)
  done

let test_counts_repr_boundary () =
  (* exactly at sparse_threshold qubits the histogram is still dense;
     merge and equality must work across the Dense/Sparse divide for
     the same outcome space *)
  let n = Noise.sparse_threshold in
  let dense = Noise.counts_make n in
  Alcotest.(check bool) "threshold width is dense" true
    (match dense with Noise.Dense _ -> true | Noise.Sparse _ -> false);
  Alcotest.(check bool) "one more qubit is sparse" true
    (match Noise.counts_make (n + 1) with
    | Noise.Sparse _ -> true
    | Noise.Dense _ -> false);
  (* a sparse histogram over the same 2^n outcome space *)
  let sparse () = Noise.Sparse { size = 1 lsl n; tbl = Hashtbl.create 8 } in
  let fill c = List.iter (fun (x, k) -> Noise.counts_add c x k) in
  let content = [ (0, 3); (7, 2); ((1 lsl n) - 1, 5) ] in
  let d = dense and s = sparse () in
  fill d content;
  fill s content;
  Alcotest.(check bool) "equal across representations" true (Noise.counts_equal d s);
  Alcotest.(check bool) "equal is symmetric" true (Noise.counts_equal s d);
  (* merge dense <- sparse *)
  let d2 = Noise.counts_make n in
  fill d2 [ (7, 1) ];
  let m = Noise.counts_merge d2 s in
  Alcotest.(check int) "merged count" 3 (Noise.count m 7);
  Alcotest.(check int) "merged tail" 5 (Noise.count m ((1 lsl n) - 1));
  Alcotest.(check int) "merged total" 11 (Noise.total_counts m);
  (* merge sparse <- dense *)
  let s2 = sparse () in
  fill s2 [ (0, 1) ];
  let m2 = Noise.counts_merge s2 d in
  Alcotest.(check int) "merged count" 4 (Noise.count m2 0);
  Alcotest.(check int) "merged total" 11 (Noise.total_counts m2);
  (* alists agree regardless of representation *)
  Alcotest.(check (list (pair int int)))
    "ascending alist across representations"
    (Noise.counts_to_alist d) (Noise.counts_to_alist s);
  (* different outcome-space sizes never compare equal *)
  let wider = Noise.Sparse { size = 1 lsl (n + 1); tbl = Hashtbl.create 8 } in
  fill wider content;
  Alcotest.(check bool) "size mismatch differs" false (Noise.counts_equal d wider)

let test_e2_shape () =
  (* the Fig. 6 shape: correct shift dominates but is well below 1 *)
  let inst = Core.Hidden_shift.Inner_product { n = 2; s = 1 } in
  let stats = Core.Hidden_shift.run_noisy ~seed:3 Noise.ibm_qx2017 inst ~shots:1024 ~runs:3 in
  let best, _, _ =
    List.fold_left (fun ((_, bm, _) as b) ((_, m, _) as e) -> if m > bm then e else b)
      (List.hd stats) stats
  in
  Alcotest.(check int) "mode is the planted shift" 1 best;
  let p = Noise.stats_mean stats 1 in
  Alcotest.(check bool) "success in the paper's band" true (p > 0.45 && p < 0.85)

(* --- Pauli-frame engine (Clifford circuits, gamma = 0) --- *)

(* The per-gate reference: shot [i] of [run_shots ~seed] is [run_shot] on
   [Rng.shot_state ~seed i]. *)
let reference_counts ~seed params c ~shots =
  let counts = Noise.counts_make (Circuit.num_qubits c) in
  for i = 0 to shots - 1 do
    Noise.counts_add counts (Noise.run_shot (Rng.shot_state ~seed i) params c) 1
  done;
  counts

let test_frame_matches_reference () =
  (* the ideal output of every inner-product hidden shift is a basis
     state, so the frame engine must reproduce the reference bit for bit *)
  for n = 1 to 8 do
    List.iter
      (fun seed ->
        let st = Helpers.rng ((n * 100) + seed) in
        let s = Random.State.int st (1 lsl (2 * n)) in
        let c = Core.Hidden_shift.build (Core.Hidden_shift.Inner_product { n; s }) in
        Alcotest.(check bool) "Clifford" true (Stabilizer.is_clifford_circuit c);
        let shots = if n <= 6 then 128 else 48 in
        let reference = reference_counts ~seed Noise.ibm_qx2017 c ~shots in
        List.iter
          (fun jobs ->
            let frame = Noise.run_shots ~seed ~jobs Noise.ibm_qx2017 c ~shots in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d s=%d seed=%d jobs=%d bit-identical" n s seed jobs)
              true (Noise.counts_equal reference frame))
          [ 1; 4 ])
      [ 1; 2; 3; 4 ]
  done

(* Every gate kind the frame accepts, on [n] qubits. *)
let clifford_kinds n st =
  let q () = Random.State.int st n in
  let pair () =
    let a = q () in
    let b = (a + 1 + Random.State.int st (n - 1)) mod n in
    (a, b)
  in
  [| (fun () -> Gate.H (q ())); (fun () -> Gate.S (q ())); (fun () -> Gate.Sdg (q ()));
     (fun () -> Gate.X (q ())); (fun () -> Gate.Y (q ())); (fun () -> Gate.Z (q ()));
     (fun () -> let a, b = pair () in Gate.Cnot (a, b));
     (fun () -> let a, b = pair () in Gate.Cz (a, b));
     (fun () -> let a, b = pair () in Gate.Swap (a, b)); (fun () -> Gate.Mcz [ q () ]);
     (fun () -> let a, b = pair () in Gate.Mcz [ a; b ]) |]

let random_clifford st n ~gates =
  let kinds = clifford_kinds n st in
  (* one of each kind first, then random kinds *)
  let gs =
    List.init gates (fun i ->
        let k = if i < Array.length kinds then i else Random.State.int st (Array.length kinds) in
        kinds.(k) ())
  in
  Circuit.of_gates n gs

let tvd a b ~shots =
  let outcomes =
    List.sort_uniq compare (List.map fst (Noise.counts_to_alist a @ Noise.counts_to_alist b))
  in
  0.5
  *. List.fold_left
       (fun acc x -> acc +. Float.abs (Float.of_int (Noise.count a x - Noise.count b x)))
       0. outcomes
  /. Float.of_int shots

let test_frame_random_clifford () =
  (* heavy noise washes the output towards uniform, so a milder setting
     also runs: there both the ideal support and the error propagation
     shape the histogram *)
  let heavy = { Noise.p1 = 0.03; p2 = 0.08; readout = 0.02; gamma = 0. }
  and mild = { Noise.p1 = 0.01; p2 = 0.03; readout = 0.01; gamma = 0. } in
  let shots = 20000 in
  for i = 0 to 11 do
    let n = 2 + (i mod 5) in
    let c = random_clifford (Helpers.rng (500 + i)) n ~gates:30 in
    List.iter
      (fun (name, params) ->
        let frame = Noise.run_shots ~seed:i params c ~shots in
        let reference = reference_counts ~seed:(1000 + i) params c ~shots in
        let d = tvd frame reference ~shots in
        Alcotest.(check bool)
          (Printf.sprintf "circuit %d (n=%d, %s noise): TVD %.4f <= 0.05" i n name d)
          true (d <= 0.05))
      [ ("heavy", heavy); ("mild", mild) ]
  done

let test_z_support_enumerates_outcomes () =
  (* support_nth m is the m-th smallest outcome of nonzero probability,
     and all of them are equally likely *)
  for i = 0 to 23 do
    let n = 2 + (i mod 5) in
    let c = random_clifford (Helpers.rng (700 + i)) n ~gates:30 in
    let sv = Statevector.run c in
    let expected =
      List.filter (fun x -> Statevector.prob sv x > 1e-9) (List.init (1 lsl n) Fun.id)
    in
    let support = Stabilizer.z_support (Stabilizer.run c) in
    let k = Array.length support.Stabilizer.basis in
    let got = List.init (1 lsl k) (Stabilizer.support_nth support) in
    Alcotest.(check (list int)) (Printf.sprintf "circuit %d (n=%d) support" i n) expected got;
    List.iter
      (fun x ->
        Alcotest.(check (float 1e-9)) "uniform" (Float.ldexp 1. (-k)) (Statevector.prob sv x))
      got
  done

let test_frame_conjugation_table () =
  let n = 3 in
  let gates =
    [ Gate.H 1; Gate.S 1; Gate.Sdg 1; Gate.X 1; Gate.Y 1; Gate.Z 1; Gate.Cnot (0, 2);
      Gate.Cnot (2, 1); Gate.Cz (0, 2); Gate.Swap (0, 2); Gate.Mcz [ 1 ]; Gate.Mcz [ 2; 0 ] ]
  in
  let pauli_gates (f : Stabilizer.frame) =
    List.concat
      (List.init n (fun q ->
           match ((f.fx lsr q) land 1, (f.fz lsr q) land 1) with
           | 1, 0 -> [ Gate.X q ]
           | 1, 1 -> [ Gate.Y q ]
           | 0, 1 -> [ Gate.Z q ]
           | _ -> []))
  in
  List.iter
    (fun g ->
      for q = 0 to n - 1 do
        List.iter
          (fun (name, fx, fz) ->
            let f = { Stabilizer.fx; fz } in
            let p = pauli_gates f in
            (* G·P·G†: apply G† first, then P, then G *)
            let expected = Unitary.of_gates n ((Gate.adjoint g :: p) @ [ g ]) in
            Stabilizer.frame_conjugate f g;
            let got = Unitary.of_gates n (pauli_gates f) in
            Alcotest.(check bool)
              (Fmt.str "%a . %s%d . dagger" Gate.pp g name q)
              true
              (Unitary.equal_up_to_phase expected got))
          [ ("X", 1 lsl q, 0); ("Y", 1 lsl q, 1 lsl q); ("Z", 0, 1 lsl q) ]
      done)
    gates;
  Alcotest.check_raises "T is rejected" (Stabilizer.Not_clifford (Gate.T 0)) (fun () ->
      Stabilizer.frame_conjugate { Stabilizer.fx = 0; fz = 0 } (Gate.T 0))

let test_frame_wide_run () =
  (* 40 qubits: far beyond any statevector, the planted shift stays modal *)
  let inst = Core.Hidden_shift.Inner_product { n = 20; s = 0x5A5A5 } in
  let c = Core.Hidden_shift.build inst in
  let counts = Noise.run_shots ~seed:1 Noise.ibm_qx2017 c ~shots:1024 in
  Alcotest.(check int) "all shots counted" 1024 (Noise.total_counts counts);
  let best, _ =
    List.fold_left
      (fun (bx, bk) (x, k) -> if k > bk then (x, k) else (bx, bk))
      (0, 0) (Noise.counts_to_alist counts)
  in
  Alcotest.(check int) "modal outcome is the planted shift" 0x5A5A5 best

let test_other_paths_unchanged () =
  (* non-Clifford circuits and amplitude damping keep the per-gate path *)
  let ghz_t =
    Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.T 1; Gate.Cnot (1, 2); Gate.H 2 ]
  in
  let ghz = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (1, 2); Gate.S 2 ] in
  List.iter
    (fun (name, params, c) ->
      let reference = reference_counts ~seed:21 params c ~shots:400 in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs=%d equals the per-gate reference" name jobs)
            true
            (Noise.counts_equal reference (Noise.run_shots ~seed:21 ~jobs params c ~shots:400)))
        [ 1; 4 ])
    [ ("non-Clifford", Noise.ibm_qx2017, ghz_t); ("gamma > 0", Noise.ibm_qx2017_t1, ghz) ]

let test_engine_attr () =
  let engine params c =
    let m = Obs.Memory.create () in
    Obs.set_sink (Some (Obs.Memory.sink m));
    ignore (Noise.run_shots params c ~shots:8);
    Obs.set_sink None;
    List.find_map
      (function
        | Obs.Span_end { name = "qc.noise.run_shots"; attrs; _ } -> List.assoc_opt "engine" attrs
        | _ -> None)
      (Obs.Memory.events m)
  in
  let clifford = Circuit.of_gates 2 [ Gate.H 0; Gate.Cnot (0, 1) ] in
  let t = Circuit.of_gates 2 [ Gate.H 0; Gate.T 0 ] in
  List.iter
    (fun (want, params, c) ->
      Alcotest.(check bool) want true (engine params c = Some (Obs.Str want)))
    [ ("frame", Noise.ibm_qx2017, clifford); ("noiseless", Noise.noiseless, clifford);
      ("trajectory", Noise.ibm_qx2017, t); ("trajectory", Noise.ibm_qx2017_t1, clifford) ]

let () =
  Alcotest.run "noise"
    [ ( "noise",
        [ Alcotest.test_case "noiseless params" `Quick test_noiseless_params;
          Alcotest.test_case "noiseless bell" `Quick test_noiseless_bell;
          Alcotest.test_case "shots conserved" `Quick test_shots_conserved;
          Alcotest.test_case "seed determinism" `Quick test_determinism_by_seed;
          Alcotest.test_case "readout errors" `Quick test_noise_degrades;
          Alcotest.test_case "noise scales with depth" `Quick test_gate_noise_scales_with_depth;
          Alcotest.test_case "success probability" `Quick test_success_probability;
          Alcotest.test_case "runs statistics" `Quick test_runs_statistics_shape;
          Alcotest.test_case "T1 decay rate" `Quick test_amplitude_damping_rate;
          Alcotest.test_case "T1 accumulates" `Quick test_amplitude_damping_accumulates;
          Alcotest.test_case "T1 fixes ground state" `Quick test_amplitude_damping_fixes_ground_state;
          Alcotest.test_case "damping preserves norm" `Quick test_damping_preserves_norm;
          Alcotest.test_case "counts repr boundary" `Quick test_counts_repr_boundary;
          Alcotest.test_case "Fig. 6 shape" `Quick test_e2_shape ] );
      ( "pauli frame",
        [ Alcotest.test_case "matches per-gate reference" `Quick test_frame_matches_reference;
          Alcotest.test_case "random Clifford TVD" `Quick test_frame_random_clifford;
          Alcotest.test_case "support enumerates outcomes" `Quick
            test_z_support_enumerates_outcomes;
          Alcotest.test_case "conjugation table" `Quick test_frame_conjugation_table;
          Alcotest.test_case "40-qubit run" `Quick test_frame_wide_run;
          Alcotest.test_case "other paths unchanged" `Quick test_other_paths_unchanged;
          Alcotest.test_case "engine span attribute" `Quick test_engine_attr ] ) ]
