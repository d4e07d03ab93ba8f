(** Phase-polynomial regions: the IR shared by T-par ({!Tpar}), the
    statevector plans ({!Sv_plan}) and the segment engine of the noisy
    backend ({!Noise}).

    A run of gates from {CNOT, X, SWAP} plus diagonal phase gates maps a
    basis state |x⟩ to [e^{iφ(x)} |A·x ⊕ b⟩] (Amy–Maslov–Mosca, the
    paper's ref. [69]): every qubit carries an affine {e parity} of the
    region's input bits, and each phase gate adds a rotation on the
    parity its qubit holds at that point. Rotations on the same linear
    parity merge (mod 8 in units of π/4, plus any Rz angle); a parity
    with its constant bit set contributes the negated rotation and a
    global phase. The global phase is kept beside the terms: T-par
    ignores it, plans apply it and stay amplitude-exact.

    Parity encoding: bit [q] ([q < n]) is input variable [q] of the
    region; bit [n] is the constant 1. The inverse of the linear part is
    tracked next to it (one XOR per CNOT), so a region can be applied
    out of place, output index by output index, with no elimination. *)

(** One merged rotation. [position], [qubit] and [neg_at_first] record
    where its parity first appeared (in units of {!step}s), which is
    where T-par re-emits it. *)
type term = {
  mutable eighths : int; (* multiples of π/4 (T = 1), not yet reduced *)
  mutable angle : float; (* accumulated Rz angle *)
  position : int;
  qubit : int;
  neg_at_first : bool;
}

type t = {
  n : int;
  const_bit : int; (* 1 lsl n *)
  parity : int array; (* qubit q's current affine parity *)
  inv : int array; (* column j of A⁻¹, a mask over input bits *)
  terms : (int, term) Hashtbl.t; (* keyed by linear part *)
  mutable order : int list; (* linear parts, first-seen order, reversed *)
  mutable steps : int; (* affine/skeleton gates since the region began *)
  mutable g_eighths : int; (* global phase: multiples of π/4 ... *)
  mutable g_angle : float; (* ... plus an angle *)
}

(** [create n] is an empty region over [n] qubits (at most 61: parities
    are int masks with the constant in bit [n]). *)
let create n =
  if n > 61 then invalid_arg "Phase_poly: parity bitmasks support at most 61 qubits";
  { n; const_bit = 1 lsl n; parity = Array.init n (fun q -> 1 lsl q);
    inv = Array.init n (fun q -> 1 lsl q); terms = Hashtbl.create 64; order = [];
    steps = 0; g_eighths = 0; g_angle = 0. }

(** [reset r] starts a fresh region: the identity map, no terms. *)
let reset r =
  for q = 0 to r.n - 1 do
    r.parity.(q) <- 1 lsl q;
    r.inv.(q) <- 1 lsl q
  done;
  Hashtbl.reset r.terms;
  r.order <- [];
  r.steps <- 0;
  r.g_eighths <- 0;
  r.g_angle <- 0.

let linear r p = p land lnot r.const_bit

(* Entry for parity [p], created at the current step on first sight. *)
let entry r p ~qubit =
  let l = linear r p in
  match Hashtbl.find_opt r.terms l with
  | Some e -> e
  | None ->
      let e =
        { eighths = 0; angle = 0.; position = r.steps; qubit;
          neg_at_first = p land r.const_bit <> 0 }
      in
      Hashtbl.add r.terms l e;
      r.order <- l :: r.order;
      e

(** [note r q] records qubit [q]'s current parity as seen here, with no
    rotation yet, unless it is constant or already known. T-par notes
    every parity a CNOT or X produces, so a later rotation on it can be
    re-emitted at its earliest occurrence. *)
let note r q =
  let p = r.parity.(q) in
  if linear r p <> 0 then ignore (entry r p ~qubit:q)

(** [step r] advances the position counter past a gate that changes no
    parity (a diagonal gate T-par keeps in its skeleton). *)
let step r = r.steps <- r.steps + 1

let cnot r c t =
  r.parity.(t) <- r.parity.(t) lxor r.parity.(c);
  (* A' = E·A with E adding row c to row t, so A'⁻¹ = A⁻¹·E: column c
     picks up column t *)
  r.inv.(c) <- r.inv.(c) lxor r.inv.(t);
  step r

let x r q =
  r.parity.(q) <- r.parity.(q) lxor r.const_bit;
  step r

let swap r a b =
  let p = r.parity.(a) and i = r.inv.(a) in
  r.parity.(a) <- r.parity.(b);
  r.parity.(b) <- p;
  r.inv.(a) <- r.inv.(b);
  r.inv.(b) <- i;
  step r

let global r ~eighths ~angle =
  r.g_eighths <- r.g_eighths + eighths;
  r.g_angle <- r.g_angle +. angle

(** [phase_on r p ~qubit ~eighths ~angle] multiplies by [ω^(eighths·p)]
    and [e^(i·angle·p)] for the affine parity [p]. A constant parity
    only contributes to the global phase. *)
let phase_on r p ~qubit ~eighths ~angle =
  let negated = p land r.const_bit <> 0 in
  (* on a negated parity ¬l the rotation is the global phase times the
     inverse rotation on l *)
  if negated then global r ~eighths ~angle;
  if linear r p <> 0 then begin
    let e = entry r p ~qubit in
    if negated then begin
      e.eighths <- e.eighths - eighths;
      e.angle <- e.angle -. angle
    end
    else begin
      e.eighths <- e.eighths + eighths;
      e.angle <- e.angle +. angle
    end
  end

(** [add_phase r q ~eighths ~angle] is a phase gate on qubit [q]. *)
let add_phase r q ~eighths ~angle = phase_on r r.parity.(q) ~qubit:q ~eighths ~angle

(** [cz r a b] adds CZ as the phase polynomial
    [2·p_a + 2·p_b − 2·(p_a ⊕ p_b)] (i.e. [S_a S_b S†] on the sum). *)
let cz r a b =
  let pa = r.parity.(a) and pb = r.parity.(b) in
  phase_on r pa ~qubit:a ~eighths:2 ~angle:0.;
  phase_on r pb ~qubit:b ~eighths:2 ~angle:0.;
  phase_on r (pa lxor pb) ~qubit:a ~eighths:(-2) ~angle:0.

(** [fold r g] folds gate [g] into the region and holds, or leaves the
    region alone and is false when [g] is not affine (H, Toffoli, CCZ,
    MCX, MCZ): the caller ends the region there. Y is [i·X·Z] and Rz(θ)
    is [e^(-iθ/2)·diag(1, e^(iθ))]; both global phases are kept. *)
let fold r (g : Gate.t) =
  let phase q e = add_phase r q ~eighths:e ~angle:0. in
  match g with
  | Gate.X q -> x r q; true
  | Gate.Y q ->
      phase q 4;
      x r q;
      global r ~eighths:2 ~angle:0.;
      true
  | Gate.Z q -> phase q 4; true
  | Gate.S q -> phase q 2; true
  | Gate.Sdg q -> phase q 6; true
  | Gate.T q -> phase q 1; true
  | Gate.Tdg q -> phase q 7; true
  | Gate.Rz (a, q) ->
      add_phase r q ~eighths:0 ~angle:a;
      global r ~eighths:0 ~angle:(-.a /. 2.);
      true
  | Gate.Cnot (c, t) -> cnot r c t; true
  | Gate.Cz (a, b) -> cz r a b; true
  | Gate.Swap (a, b) -> swap r a b; true
  | Gate.H _ | Gate.Ccx _ | Gate.Ccz _ | Gate.Mcx _ | Gate.Mcz _ -> false

(** [terms r] lists [(linear part, term)] in first-seen order. *)
let terms r = List.rev_map (fun l -> (l, Hashtbl.find r.terms l)) r.order

(** [term_count r] is the number of distinct parities recorded. *)
let term_count r = Hashtbl.length r.terms

(** [offset r] is [b]: the constant bits of the qubits' parities. *)
let offset r =
  let b = ref 0 in
  for q = 0 to r.n - 1 do
    if r.parity.(q) land r.const_bit <> 0 then b := !b lor (1 lsl q)
  done;
  !b

(** [is_linear_identity r] holds when the linear part is still the
    identity map (the offset may be anything). *)
let is_linear_identity r =
  let rec go q = q >= r.n || (linear r r.parity.(q) = 1 lsl q && go (q + 1)) in
  go 0
