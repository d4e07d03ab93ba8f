(** Peephole optimization on quantum circuits.

    Complements {!Tpar}: cancels adjacent inverse pairs (H·H, X·X,
    CNOT·CNOT, S·S†, …), fuses adjacent rotations on the same qubit
    (T·T = S, S·S = Z, Rz·Rz), and lets gates commute across gates acting
    on disjoint qubits to meet their partners. Applied to a fixpoint.

    Rewrite order. A gate's {e window} is the run of later gates it
    commutes past: every gate on disjoint qubits, and, for a single-qubit
    phase gate, the same-qubit phase gates it cannot fuse with. The gate's
    {e partner} is the first gate in its window with which it fuses. Each
    step rewrites the leftmost gate that has a partner, with its first
    partner: the gate is removed and the partner is replaced by the fused
    gate, or removed too when the pair cancels. A fusion never needs two
    gates, so every step removes at least one gate.

    Cost. Gates keep their input slots and are linked per qubit, so a
    window is read off the qubit chains instead of the whole circuit: a
    multi-qubit or non-phase gate looks only at the first later gate on
    any of its qubits. Slots wait in a min-heap; after a rewrite only the
    slots whose window changed are queued again (the fused gate and, on
    each of its qubits, the gate before it plus the run of phase gates
    behind that one). A circuit of n gates costs O(n log n) plus the
    length of the phase-gate runs walked. A gate on no qubit ([Mcz []])
    has no window and stays. *)

open Gate

(* Diagonal single-qubit phase gates commute with each other on the same
   qubit and with controls; we only use same-qubit fusion. *)
let eighths_of = function
  | Z _ -> Some 4
  | S _ -> Some 2
  | Sdg _ -> Some 6
  | T _ -> Some 1
  | Tdg _ -> Some 7
  | _ -> None

let target_of_phase = function
  | Z q | S q | Sdg q | T q | Tdg q | Rz (_, q) -> Some q
  | _ -> None

let is_phase g = target_of_phase g <> None

(** [fuse a b] is the replacement for gates [a] and [b] once adjacent
    after commuting: [Some []] when they cancel, [Some [g]] when they
    merge into one gate, [None] otherwise. A phase sum that needs two
    gates (3 or 5 eighths, e.g. S·T) is [None]: rewriting such a pair
    into itself would never reach a fixpoint. *)
let fuse a b =
  if a = adjoint b then Some []
  else
    match (target_of_phase a, target_of_phase b) with
    | Some qa, Some qb when qa = qb -> (
        match (eighths_of a, eighths_of b) with
        | Some ka, Some kb -> (
            match Tpar.phase_gates_of ~eighths:(ka + kb) ~angle:0. qa with
            | ([] | [ _ ]) as r -> Some r
            | _ -> None)
        | _ -> (
            match (a, b) with
            | Rz (x, _), Rz (y, _) ->
                if Float.abs (x +. y) < 1e-12 then Some [] else Some [ Rz (x +. y, qa) ]
            | _ -> None))
    | _ -> None

(** [simplify c] applies cancellation/fusion to a fixpoint, in the order
    the header defines. The unitary is preserved exactly. Bumps the
    [qc.opt.rewrites] counter by the number of rewrites applied. *)
let simplify c =
  let gates = Circuit.to_array c in
  let n = Array.length gates in
  (* One port per (slot, distinct qubit); ports of slot k are
     [first_port.(k) .. first_port.(k + 1) - 1]. [next]/[prev] link each
     port to the neighbouring live port on the same qubit, or -1. *)
  let qubit_sets = Array.map (fun g -> List.sort_uniq Int.compare (qubits g)) gates in
  let first_port = Array.make (n + 1) 0 in
  Array.iteri (fun k qs -> first_port.(k + 1) <- first_port.(k) + List.length qs) qubit_sets;
  let slot_of = Array.make first_port.(n) 0 in
  let next = Array.make first_port.(n) (-1) and prev = Array.make first_port.(n) (-1) in
  let last = Array.make (Circuit.num_qubits c) (-1) in
  Array.iteri
    (fun k qs ->
      List.iteri
        (fun o q ->
          let p = first_port.(k) + o in
          slot_of.(p) <- k;
          if last.(q) >= 0 then begin
            next.(last.(q)) <- p;
            prev.(p) <- last.(q)
          end;
          last.(q) <- p)
        qs)
    qubit_sets;
  let alive = Array.make n true in
  let unlink k =
    alive.(k) <- false;
    for p = first_port.(k) to first_port.(k + 1) - 1 do
      if prev.(p) >= 0 then next.(prev.(p)) <- next.(p);
      if next.(p) >= 0 then prev.(next.(p)) <- prev.(p)
    done
  in
  (* Pending slots: a binary min-heap, deduplicated by [queued]. Every
     slot starts pending, and a sorted array is already a heap. *)
  let heap = Array.init n Fun.id and size = ref n and queued = Array.make n true in
  let push k =
    if alive.(k) && not queued.(k) then begin
      queued.(k) <- true;
      let i = ref !size in
      incr size;
      while !i > 0 && heap.((!i - 1) / 2) > k do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- k
    end
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let x = heap.(!size) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
      if c < !size && heap.(c) < x then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- x;
    queued.(top) <- false;
    top
  in
  (* [probe k] is [Some (j, replacement)] for gate k's first partner j. *)
  let probe k =
    let g = gates.(k) in
    if is_phase g then
      let rec walk p =
        if p < 0 then None
        else
          let j = slot_of.(p) in
          match fuse g gates.(j) with
          | Some r -> Some (j, r)
          | None -> if is_phase gates.(j) then walk next.(p) else None
      in
      walk next.(first_port.(k))
    else
      let j = ref max_int in
      for p = first_port.(k) to first_port.(k + 1) - 1 do
        if next.(p) >= 0 then j := min !j slot_of.(next.(p))
      done;
      if !j = max_int then None else Option.map (fun r -> (!j, r)) (fuse g gates.(!j))
  in
  (* Queue the slots whose window reached slot k (now unlinked or
     replaced): on each qubit, the gate before k and, when that is a phase
     gate, the run of phase gates behind it. *)
  let requeue_behind k =
    let rec behind ~run p =
      if p >= 0 && ((not run) || is_phase gates.(slot_of.(p))) then begin
        push slot_of.(p);
        if is_phase gates.(slot_of.(p)) then behind ~run:true prev.(p)
      end
    in
    for p = first_port.(k) to first_port.(k + 1) - 1 do
      behind ~run:false prev.(p)
    done
  in
  let rewrites = ref 0 in
  while !size > 0 do
    let i = pop () in
    if alive.(i) then
      match probe i with
      | None -> ()
      | Some (j, r) ->
          incr rewrites;
          unlink i;
          (match r with
          | [] -> unlink j
          | [ g ] ->
              gates.(j) <- g;
              push j
          | _ -> assert false);
          requeue_behind i;
          requeue_behind j
  done;
  if !rewrites > 0 then Obs.count ~by:!rewrites "qc.opt.rewrites";
  let rev_gates = ref [] in
  for k = 0 to n - 1 do
    if alive.(k) then rev_gates := gates.(k) :: !rev_gates
  done;
  Circuit.of_rev_gates (Circuit.num_qubits c) !rev_gates
