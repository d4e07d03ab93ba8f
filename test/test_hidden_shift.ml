module Hs = Core.Hidden_shift
module Bent = Logic.Bent
module Perm = Logic.Perm

let test_fig4_instance () =
  (* E1: f = x1x2 + x3x4, s = 1 -> the program prints 'Shift is 1' *)
  Alcotest.(check int) "Shift is 1" 1 (Hs.solve (Hs.Inner_product { n = 2; s = 1 }))

let test_all_shifts_ip () =
  for s = 0 to 15 do
    Alcotest.(check int) "deterministic" s (Hs.solve (Hs.Inner_product { n = 2; s }))
  done

let test_ip_larger_register () =
  Alcotest.(check int) "6 qubits" 0b101101 (Hs.solve (Hs.Inner_product { n = 3; s = 0b101101 }))

let test_fig7_instance () =
  (* E3: pi = [0,2,3,5,7,1,4,6], s = 5 -> 'Shift is 5' *)
  let mm = Bent.mm (Perm.of_list [ 0; 2; 3; 5; 7; 1; 4; 6 ]) in
  Alcotest.(check int) "tbs" 5 (Hs.solve (Hs.Mm { mm; s = 5; synth = Pq.Oracles.Tbs }));
  Alcotest.(check int) "dbs" 5 (Hs.solve (Hs.Mm { mm; s = 5; synth = Pq.Oracles.Dbs }))

let test_mm_with_h () =
  (* nonzero h exercises the h-phase paths of both oracles *)
  let st = Helpers.rng 55 in
  for _ = 1 to 5 do
    let mm = { (Bent.random_mm st 2) with Bent.h = Logic.Truth_table.random st 2 } in
    let s = Random.State.int st 16 in
    Alcotest.(check int) "with h" s (Hs.solve (Hs.Mm { mm; s; synth = Pq.Oracles.Tbs }))
  done

let test_generic_instance () =
  let f = Bent.inner_product 2 in
  Alcotest.(check int) "generic" 9 (Hs.solve (Hs.Generic { f; s = 9 }));
  (* also on a random MM function through the generic ESOP path *)
  let st = Helpers.rng 4 in
  let f = Bent.mm_function (Bent.random_mm st 2) in
  Alcotest.(check int) "generic mm" 3 (Hs.solve (Hs.Generic { f; s = 3 }))

let test_generic_rejects_non_bent () =
  match Hs.build (Hs.Generic { f = Logic.Funcgen.parity 4; s = 1 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-bent function accepted"

let test_function_table_consistency () =
  let mm = Bent.mm (Perm.of_list [ 0; 2; 3; 5; 7; 1; 4; 6 ]) in
  let inst = Hs.Mm { mm; s = 5; synth = Pq.Oracles.Tbs } in
  let tt = Hs.function_table inst in
  Alcotest.(check int) "qubit-indexed arity" 6 (Logic.Truth_table.num_vars tt);
  Alcotest.(check bool) "bent in qubit indexing" true (Logic.Walsh.is_bent tt)

let test_build_compiled_still_solves () =
  let inst = Hs.Inner_product { n = 2; s = 6 } in
  let compiled, anc = Hs.build_compiled inst in
  let sv = Qc.Statevector.run compiled in
  Alcotest.(check int) "compiled circuit still yields s"
    6 (Qc.Statevector.most_likely sv);
  Alcotest.(check int) "ip oracle needs no ancillae" 0 anc

let test_compiled_mm_solves () =
  let mm = Bent.mm (Perm.of_list [ 0; 2; 3; 5; 7; 1; 4; 6 ]) in
  let compiled, _ = Hs.build_compiled (Hs.Mm { mm; s = 5; synth = Pq.Oracles.Tbs }) in
  let sv = Qc.Statevector.run compiled in
  Alcotest.(check int) "compiled MM yields s" 5 (Qc.Statevector.most_likely sv)

let test_num_qubits () =
  Alcotest.(check int) "ip" 4 (Hs.num_qubits (Hs.Inner_product { n = 2; s = 0 }));
  let mm = Bent.mm (Perm.identity 3) in
  Alcotest.(check int) "mm" 6 (Hs.num_qubits (Hs.Mm { mm; s = 0; synth = Pq.Oracles.Tbs }))

let test_classical_baseline () =
  let st = Helpers.rng 31 in
  let inst = Hs.random_mm_instance st 2 in
  let found, queries = Hs.classical_queries inst in
  Alcotest.(check int) "classical finds the shift" (Hs.shift inst) found;
  Alcotest.(check bool) "needs many queries" true (queries > 2)

let test_classical_scaling_shape () =
  (* E7 shape: queries grow with n *)
  let st = Helpers.rng 32 in
  let q_at n =
    let inst = Hs.random_mm_instance st n in
    snd (Hs.classical_queries inst)
  in
  Alcotest.(check bool) "exponential growth" true (q_at 4 > 4 * q_at 2)

let test_noisy_mode_is_planted_shift () =
  let inst = Hs.Inner_product { n = 2; s = 2 } in
  let stats = Hs.run_noisy ~seed:9 Qc.Noise.ibm_qx2017 inst ~shots:512 ~runs:2 in
  let best, _, _ =
    List.fold_left (fun ((_, bm, _) as b) ((_, m, _) as e) -> if m > bm then e else b)
      (List.hd stats) stats
  in
  Alcotest.(check int) "mode" 2 best

let prop_random_mm_deterministic =
  Helpers.prop "random MM instances recover the planted shift" ~count:15
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let inst = Hs.random_mm_instance (Helpers.rng seed) 2 in
      Hs.solve inst = Hs.shift inst)

let prop_generic_random_shift =
  Helpers.prop "generic instances recover every shift" ~count:15
    QCheck2.Gen.(int_bound 15)
    (fun s -> Hs.solve (Hs.Generic { f = Bent.inner_product 2; s }) = s)

let () =
  Alcotest.run "hidden_shift"
    [ ( "hidden_shift",
        [ Alcotest.test_case "Fig. 4 instance (E1)" `Quick test_fig4_instance;
          Alcotest.test_case "all 16 shifts" `Quick test_all_shifts_ip;
          Alcotest.test_case "6-qubit register" `Quick test_ip_larger_register;
          Alcotest.test_case "Fig. 7 instance (E3)" `Quick test_fig7_instance;
          Alcotest.test_case "nonzero h" `Quick test_mm_with_h;
          Alcotest.test_case "generic bent functions" `Quick test_generic_instance;
          Alcotest.test_case "non-bent rejected" `Quick test_generic_rejects_non_bent;
          Alcotest.test_case "function table" `Quick test_function_table_consistency;
          Alcotest.test_case "compiled circuit solves" `Quick test_build_compiled_still_solves;
          Alcotest.test_case "compiled MM solves" `Quick test_compiled_mm_solves;
          Alcotest.test_case "qubit counts" `Quick test_num_qubits;
          Alcotest.test_case "classical baseline" `Quick test_classical_baseline;
          Alcotest.test_case "classical scaling" `Quick test_classical_scaling_shape;
          Alcotest.test_case "noisy mode" `Quick test_noisy_mode_is_planted_shift;
          prop_random_mm_deterministic;
          prop_generic_random_shift ] ) ]
