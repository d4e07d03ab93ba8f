(* The paper's Fig. 4 program, line for line (Sec. VII).

   Run with:  dune exec examples/hidden_shift_inner_product.exe

   ProjectQ (paper)                          This library
   -----------------------------------      ----------------------------------
   eng = MainEngine()                        let eng = Pq.Engine.create ()
   x1,..,x4 = eng.allocate_qureg(4)          let qubits = allocate_qureg eng 4
   with Compute(eng):                        let blk = compute eng (fun () ->
     All(H) | qubits                           all h eng qubits;
     X | x1                                    x eng qubits.(0))
   PhaseOracle(f) | qubits                   phase_oracle eng f qubits
   Uncompute(eng)                            uncompute eng blk
   PhaseOracle(f) | qubits                   phase_oracle eng f qubits
   All(H) | qubits                           all h eng qubits
   Measure | qubits                          (simulate and read the outcome)

   The predicate is f(a,b,c,d) = (a and b) ^ (c and d); the shift is s = 1.
   On perfect gates the measurement is deterministic: 'Shift is 1'. *)

let f = Logic.Bexpr.parse "(a and b) ^ (c and d)"

let () =
  let eng = Pq.Engine.create () in
  let qubits = Pq.Engine.allocate_qureg eng 4 in

  (* circuit *)
  let blk =
    Pq.Engine.compute eng (fun () ->
        Pq.Engine.all Pq.Engine.h eng qubits;
        Pq.Engine.x eng qubits.(0))
  in
  Pq.Oracles.phase_oracle eng f qubits;
  Pq.Engine.uncompute eng blk;

  Pq.Oracles.phase_oracle eng f qubits;
  Pq.Engine.all Pq.Engine.h eng qubits;

  let circuit = Pq.Engine.flush eng in
  print_endline "Circuit (the paper's Fig. 5):";
  print_string (Qc.Draw.to_string circuit);

  (* measurement result, noiseless backend *)
  let sv = Qc.Statevector.run circuit in
  let outcome = Qc.Statevector.most_likely sv in
  Printf.printf "\nShift is %d\n" outcome;

  (* the same circuit on the noisy IBM-substitute backend: Fig. 6 *)
  print_endline "\nSwitching backend to the noisy (IBM QX-like) simulator:";
  let stats = Qc.Noise.runs_statistics Qc.Noise.ibm_qx2017 circuit ~shots:1024 ~runs:3 in
  Printf.printf "3 runs x 1024 shots; outcomes with mean frequency > 0.5%%:\n";
  List.iter
    (fun (x, m, sd) ->
      if m > 0.005 then
        Printf.printf "  %2d  %5.3f +- %.3f %s\n" x m sd
          (if x = outcome then "<- correct shift" else ""))
    stats;
  Printf.printf "success probability %.2f (paper: ~0.63 on the IBM chip)\n"
    (Qc.Noise.stats_mean stats outcome)
