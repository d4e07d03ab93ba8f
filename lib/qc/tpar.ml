(** T-count optimization by phase folding over phase polynomials.

    Within every region of the circuit built from {CNOT, X} plus the
    diagonal phase gates {Z, S, S†, T, T†, Rz}, each qubit carries an affine
    function (a {e parity}) of the region's input values. A phase gate
    contributes a rotation on its qubit's current parity, and rotations on
    the {e same} parity merge: [T·T = S], [T·T† = 1], etc. This is the
    merging step at the core of the T-par algorithm (paper ref [69],
    Amy–Maslov–Mosca); we re-emit each merged rotation at the first point
    where its parity occurs, which preserves the unitary up to global
    phase. Gates outside the region alphabet (H, Toffoli, …) act as
    barriers that flush the region. *)

open Gate

let phase_gates_of ~eighths ~angle q =
  let k = ((eighths mod 8) + 8) mod 8 in
  let cliffordish =
    match k with
    | 0 -> []
    | 1 -> [ T q ]
    | 2 -> [ S q ]
    | 3 -> [ S q; T q ]
    | 4 -> [ Z q ]
    | 5 -> [ Z q; T q ]
    | 6 -> [ Sdg q ]
    | 7 -> [ Tdg q ]
    | _ -> assert false
  in
  if Float.abs angle > 1e-12 then cliffordish @ [ Rz (angle, q) ] else cliffordish

(** [optimize c] returns a circuit computing the same unitary as [c] up to
    global phase, with phase rotations on equal parities merged. The
    region bookkeeping is {!Phase_poly}; this pass adds the skeleton (the
    region's CNOT/X and diagonal multi-qubit gates, in order) and
    re-emits each merged rotation where its parity first appeared. *)
let optimize c =
  Obs.with_span "qc.tpar.optimize" @@ fun () ->
  let n = Circuit.num_qubits c in
  if n > 61 then invalid_arg "Tpar.optimize: parity bitmasks support at most 61 qubits";
  let out = ref [] in
  let r = Phase_poly.create n in
  let skeleton = ref [] (* region CNOT/X/diagonal gates, reversed *) in
  let reset_region () =
    Phase_poly.reset r;
    skeleton := [];
    for q = 0 to n - 1 do
      Phase_poly.note r q
    done
  in
  let flush () =
    (* interleave pending phase gates into the skeleton at their recorded
       positions *)
    let count = Phase_poly.term_count r in
    if Obs.enabled () && count > 0 then begin
      (* one phase-polynomial region: its partition size is the number of
         distinct parities carrying rotations *)
      Obs.observe "qc.tpar.partition_size" (float_of_int count);
      Obs.count "qc.tpar.regions"
    end;
    let len = r.Phase_poly.steps in
    let inserts = Array.make (len + 1) [] in
    List.iter
      (fun (_, (p : Phase_poly.term)) ->
        let eighths = if p.neg_at_first then -p.eighths else p.eighths in
        let angle = if p.neg_at_first then -.p.angle else p.angle in
        let gs = phase_gates_of ~eighths ~angle p.qubit in
        if gs <> [] then inserts.(p.position) <- inserts.(p.position) @ gs)
      (Phase_poly.terms r);
    let skel = Array.of_list (List.rev !skeleton) in
    for i = 0 to len do
      List.iter (fun g -> out := g :: !out) inserts.(i);
      if i < len then out := skel.(i) :: !out
    done
  in
  let phase q eighths angle = Phase_poly.add_phase r q ~eighths ~angle in
  reset_region ();
  Circuit.iter
    (fun g ->
      match g with
      | Cnot (cq, t) ->
          Phase_poly.cnot r cq t;
          skeleton := g :: !skeleton;
          Phase_poly.note r t
      | X q ->
          Phase_poly.x r q;
          skeleton := g :: !skeleton;
          Phase_poly.note r q
      | Z q -> phase q 4 0.
      | S q -> phase q 2 0.
      | Sdg q -> phase q (-2) 0.
      | T q -> phase q 1 0.
      | Tdg q -> phase q (-1) 0.
      | Rz (a, q) -> phase q 0 a
      | Cz _ | Ccz _ | Mcz _ ->
          (* diagonal gates do not change any parity and commute with the
             folded phase rotations: pass through as skeleton *)
          Phase_poly.step r;
          skeleton := g :: !skeleton
      | g ->
          (* barrier: flush the region, emit the gate, start fresh *)
          flush ();
          out := g :: !out;
          reset_region ())
    c;
  flush ();
  Circuit.of_rev_gates n !out

(** Summary of what {!optimize} achieved. *)
type report = {
  t_before : int;
  t_after : int;
  gates_before : int;
  gates_after : int;
  t_depth_before : int;
  t_depth_after : int;
}

(** [optimize_report c] runs {!optimize} and reports the T-count / T-depth
    deltas (the numbers the paper's Eq. (5) [tpar] step prints). *)
let optimize_report c =
  let c' = optimize c in
  if Obs.enabled () then begin
    Obs.count ~by:(Circuit.t_count c) "qc.tpar.t_before";
    Obs.count ~by:(Circuit.t_count c') "qc.tpar.t_after"
  end;
  ( c',
    { t_before = Circuit.t_count c;
      t_after = Circuit.t_count c';
      gates_before = Circuit.num_gates c;
      gates_after = Circuit.num_gates c';
      t_depth_before = Circuit.t_depth c;
      t_depth_after = Circuit.t_depth c' } )
