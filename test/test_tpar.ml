open Qc

let test_tt_merges_to_s () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "T count 0" 0 (Circuit.t_count c');
  Alcotest.(check bool) "equals S" true (Helpers.same_unitary_phase c c')

let test_t_tdg_cancels () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.Tdg 0 ] in
  Alcotest.(check int) "cancels" 0 (Circuit.num_gates (Tpar.optimize c))

let test_merge_through_cnot () =
  (* T(0); CNOT(0,1); T(0): qubit 0's parity is unchanged by the CNOT, so
     the two Ts merge into S *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.Cnot (0, 1); Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_parity_matching_across_wires () =
  (* CNOT(0,1) puts x0^x1 on wire 1; T there, then CNOT(1,0)? craft a case
     where the same parity appears on different wires and phases merge *)
  let c =
    Circuit.of_gates 2
      [ Gate.Cnot (0, 1); Gate.T 1; Gate.Cnot (0, 1); Gate.Cnot (1, 0); Gate.T 0;
        Gate.Cnot (1, 0) ]
  in
  (* the parity x0^x1 appears on wire 1 (first T) and later on wire 0
     (second T): the rotations must merge *)
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged to S" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_h_is_barrier () =
  (* T; H; T must NOT merge *)
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.H 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "two Ts remain" 2 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_x_conjugation () =
  (* X; T; X equals T† up to global phase — the negated-parity bookkeeping *)
  let c = Circuit.of_gates 1 [ Gate.X 0; Gate.T 0; Gate.X 0; Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "phases cancel" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_rz_angles_fold () =
  let c = Circuit.of_gates 1 [ Gate.Rz (0.3, 0); Gate.Rz (0.4, 0) ] in
  let c' = Tpar.optimize c in
  (match Circuit.gates c' with
  | [ Gate.Rz (a, 0) ] -> Alcotest.(check (float 1e-12)) "summed" 0.7 a
  | gs -> Alcotest.failf "expected one Rz, got %d gates" (List.length gs));
  let c = Circuit.of_gates 1 [ Gate.Rz (0.3, 0); Gate.Rz (-0.3, 0) ] in
  Alcotest.(check int) "cancel to nothing" 0 (Circuit.num_gates (Tpar.optimize c))

let test_ccz_overlap_folding () =
  (* the motivating case: two CCZs sharing two controls fold 14 T -> 8 T *)
  let c = Circuit.of_gates 4 (Clifford_t.ccz_7t 0 1 2 @ Clifford_t.ccz_7t 0 1 3) in
  let c', rep = Tpar.optimize_report c in
  Alcotest.(check int) "before" 14 rep.Tpar.t_before;
  Alcotest.(check int) "after" 8 rep.Tpar.t_after;
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_diagonal_passthrough () =
  (* CZ between two Ts on the same parity must not block merging *)
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.Cz (0, 1); Gate.T 0 ] in
  let c' = Tpar.optimize c in
  Alcotest.(check int) "merged through CZ" 0 (Circuit.t_count c');
  Alcotest.(check bool) "unitary preserved" true (Helpers.same_unitary_phase c c')

let test_report_counts () =
  let c = Circuit.of_gates 2 [ Gate.T 0; Gate.T 0; Gate.H 1 ] in
  let _, rep = Tpar.optimize_report c in
  Alcotest.(check int) "t before" 2 rep.Tpar.t_before;
  Alcotest.(check int) "t after" 0 rep.Tpar.t_after

let prop_preserves_unitary =
  Helpers.prop "tpar preserves the unitary up to global phase" ~count:200
    (Helpers.qcircuit_gen 3 25)
    (fun c -> Helpers.same_unitary_phase c (Tpar.optimize c))

let prop_never_increases_t =
  Helpers.prop "tpar never increases the T-count" (Helpers.qcircuit_gen 4 25) (fun c ->
      Circuit.t_count (Tpar.optimize c) <= Circuit.t_count c)

let prop_idempotent_t_count =
  Helpers.prop "tpar is idempotent on the T-count" (Helpers.qcircuit_gen 3 20) (fun c ->
      let once = Tpar.optimize c in
      Circuit.t_count (Tpar.optimize once) = Circuit.t_count once)

(* ---- peephole Opt ---- *)

let test_opt_cancellation () =
  let c = Circuit.of_gates 2 [ Gate.H 0; Gate.H 0; Gate.Cnot (0, 1); Gate.Cnot (0, 1) ] in
  Alcotest.(check int) "all cancel" 0 (Circuit.num_gates (Opt.simplify c))

let test_opt_fusion () =
  let c = Circuit.of_gates 1 [ Gate.T 0; Gate.T 0 ] in
  (match Circuit.gates (Opt.simplify c) with
  | [ Gate.S 0 ] -> ()
  | _ -> Alcotest.fail "TT should fuse to S");
  let c = Circuit.of_gates 1 [ Gate.S 0; Gate.S 0 ] in
  match Circuit.gates (Opt.simplify c) with
  | [ Gate.Z 0 ] -> ()
  | _ -> Alcotest.fail "SS should fuse to Z"

let test_opt_across_disjoint () =
  let c = Circuit.of_gates 3 [ Gate.H 0; Gate.Cnot (1, 2); Gate.H 0 ] in
  let c' = Opt.simplify c in
  Alcotest.(check int) "H pair cancels across disjoint CNOT" 1 (Circuit.num_gates c')

(* Reference peephole: the restart-from-zero scan. Each step rewrites the
   leftmost gate that has a fusable partner in its commuting window, with
   its first partner, then rescans from gate 0. [Opt.simplify] must
   produce the same circuit. *)
let reference_simplify c =
  let disjoint a b =
    let qb = Gate.qubits b in
    not (List.exists (fun q -> List.mem q qb) (Gate.qubits a))
  in
  let same_qubit_phases a b =
    match (Opt.target_of_phase a, Opt.target_of_phase b) with
    | Some qa, Some qb -> qa = qb
    | _ -> false
  in
  let rewrite_once gates =
    let n = Array.length gates in
    let rec scan i =
      let rec probe j =
        if j >= n then None
        else
          match Opt.fuse gates.(i) gates.(j) with
          | Some r -> Some (j, r)
          | None ->
              if disjoint gates.(i) gates.(j) || same_qubit_phases gates.(i) gates.(j)
              then probe (j + 1)
              else None
      in
      if i >= n - 1 then None
      else
        match probe (i + 1) with
        | None -> scan (i + 1)
        | Some (j, r) ->
            let out = ref [] in
            for k = n - 1 downto 0 do
              if k = j then out := r @ !out else if k <> i then out := gates.(k) :: !out
            done;
            Some (Array.of_list !out)
    in
    scan 0
  in
  let rec fix gates = match rewrite_once gates with Some g -> fix g | None -> gates in
  Circuit.of_gates (Circuit.num_qubits c) (Array.to_list (fix (Circuit.to_array c)))

let same_as_reference c =
  Circuit.structural_key (Opt.simplify c) = Circuit.structural_key (reference_simplify c)

(* Random 1-6 qubit circuits over every gate kind. Rz angles come from a
   set closed under negation so that Rz pairs also cancel exactly. *)
let any_gate_circuit_gen =
  QCheck2.Gen.map
    (fun seed ->
      let st = Helpers.rng seed in
      let n = 1 + Random.State.int st 6 in
      let distinct k =
        let a = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list (Array.sub a 0 k)
      in
      let gate () =
        let q = Random.State.int st n in
        match (Random.State.int st 16, distinct (min n 4)) with
        | 0, _ -> Gate.H q
        | 1, _ -> Gate.X q
        | 2, _ -> Gate.Y q
        | 3, _ -> Gate.Z q
        | 4, _ -> Gate.S q
        | 5, _ -> Gate.Sdg q
        | 6, _ -> Gate.T q
        | 7, _ -> Gate.Tdg q
        | 8, _ -> Gate.Rz ([| 0.5; -0.5; 0.25; -0.25 |].(Random.State.int st 4), q)
        | 9, a :: b :: _ -> Gate.Cnot (a, b)
        | 10, a :: b :: _ -> Gate.Cz (a, b)
        | 11, a :: b :: _ -> Gate.Swap (a, b)
        | 12, a :: b :: c :: _ -> Gate.Ccx (a, b, c)
        | 13, a :: b :: c :: _ -> Gate.Ccz (a, b, c)
        | 14, t :: (_ :: _ as cs) -> Gate.Mcx (cs, t)
        | 15, qs -> Gate.Mcz qs
        | _ -> Gate.H q
      in
      Circuit.of_gates n (List.init (Random.State.int st 40) (fun _ -> gate ())))
    QCheck2.Gen.(int_bound 1_000_000)

let prop_opt_matches_reference =
  Helpers.prop "peephole equals the reference scan" ~count:500 any_gate_circuit_gen
    same_as_reference

(* The corpus' default flow (lower, then T-par) stops just before the
   peephole; these are the circuits it hands over. *)
let pre_peephole spec =
  let raw, _ = Corpus.build (Corpus.parse_entry spec) in
  Tpar.optimize (fst (Clifford_t.compile raw))

let test_opt_reference_default_flow () =
  List.iter
    (fun spec ->
      Alcotest.(check bool) spec true (same_as_reference (pre_peephole spec)))
    [ "hwb:5"; "grover:6:23"; "cmp:8" ]

(* S·T needs two gates (3 eighths), so it is not a fusion: a pair that
   used to be rewritten into itself no longer blocks the rewrites after
   it. *)
let s_t_t = Circuit.of_gates 1 [ Gate.S 0; Gate.T 0; Gate.T 0 ]

let s_t_before_body =
  Circuit.of_gates 9
    [ Gate.S 8; Gate.T 8; Gate.H 0; Gate.H 0; Gate.Cnot (1, 2); Gate.Cnot (1, 2) ]

let test_opt_two_gate_phase_sums () =
  Alcotest.(check (list string)) "S T T -> Z" [ "z" ]
    (List.map Gate.name (Circuit.gates (Opt.simplify s_t_t)));
  Alcotest.(check int) "body rewrites still apply" 2
    (Circuit.num_gates (Opt.simplify s_t_before_body))

(* Every rewrite removes one or two gates, so the rewrite counter brackets
   the gates removed. *)
let test_opt_rewrite_counter () =
  List.iter
    (fun (label, c) ->
      let m = Obs.Memory.create () in
      Obs.reset ();
      Obs.set_sink (Some (Obs.Memory.sink m));
      let c' = Fun.protect ~finally:(fun () -> Obs.set_sink None) (fun () -> Opt.simplify c) in
      let rewrites =
        Option.value ~default:0
          (List.assoc_opt "qc.opt.rewrites" (Obs.Summary.counter_totals (Obs.Memory.events m)))
      in
      let removed = Circuit.num_gates c - Circuit.num_gates c' in
      Alcotest.(check bool) (label ^ ": rewrites applied") true (rewrites > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d rewrites <= %d removed <= 2x" label rewrites removed)
        true
        (rewrites <= removed && removed <= 2 * rewrites))
    [ ("S T T", s_t_t);
      ("S T before a body", s_t_before_body);
      ("cliffordt:6:1", pre_peephole "cliffordt:6:1") ]

let prop_opt_preserves_unitary =
  Helpers.prop "peephole preserves the unitary exactly" ~count:150
    (Helpers.qcircuit_gen 3 20)
    (fun c -> Helpers.same_unitary c (Opt.simplify c))

let prop_opt_never_grows =
  Helpers.prop "peephole never grows" (Helpers.qcircuit_gen 3 20) (fun c ->
      Circuit.num_gates (Opt.simplify c) <= Circuit.num_gates c)

let () =
  Alcotest.run "tpar"
    [ ( "tpar",
        [ Alcotest.test_case "TT -> S" `Quick test_tt_merges_to_s;
          Alcotest.test_case "T T-dagger cancels" `Quick test_t_tdg_cancels;
          Alcotest.test_case "merge through CNOT" `Quick test_merge_through_cnot;
          Alcotest.test_case "cross-wire parity" `Quick test_parity_matching_across_wires;
          Alcotest.test_case "H is a barrier" `Quick test_h_is_barrier;
          Alcotest.test_case "X conjugation" `Quick test_x_conjugation;
          Alcotest.test_case "Rz folding" `Quick test_rz_angles_fold;
          Alcotest.test_case "CCZ overlap folds 14->8" `Quick test_ccz_overlap_folding;
          Alcotest.test_case "diagonal pass-through" `Quick test_diagonal_passthrough;
          Alcotest.test_case "report" `Quick test_report_counts;
          prop_preserves_unitary;
          prop_never_increases_t;
          prop_idempotent_t_count ] );
      ( "opt",
        [ Alcotest.test_case "cancellation" `Quick test_opt_cancellation;
          Alcotest.test_case "fusion" `Quick test_opt_fusion;
          Alcotest.test_case "across disjoint" `Quick test_opt_across_disjoint;
          Alcotest.test_case "two-gate phase sums" `Quick test_opt_two_gate_phase_sums;
          Alcotest.test_case "reference on default flow" `Quick test_opt_reference_default_flow;
          Alcotest.test_case "rewrite counter" `Quick test_opt_rewrite_counter;
          prop_opt_matches_reference;
          prop_opt_preserves_unitary;
          prop_opt_never_grows ] ) ]
