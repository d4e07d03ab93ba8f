(** Compile-once execution plans (exposed as [Statevector.Plan]).

    A Clifford+T circuit is alternating H layers and runs of affine
    gates, and {!build} walks it once into a flat schedule of three
    kernel kinds:

    - [K_segment]: a maximal run of X/Y/Z/S/T/Rz/CNOT/CZ/SWAP folded into
      one {!Phase_poly} region — an affine map of the basis plus a phase
      polynomial, global phase included ({!Phase_poly.fold}, the fold
      the noisy segment engine uses) — and applied by one out-of-place
      sweep ({!Sv_kernels.apply_segment}). Regions that compose to the
      identity are dropped;
    - [K_had]: H gates on distinct qubits, one {!Sv_kernels.apply_h}
      pass per qubit in ascending order;
    - [K_gate]: a pass-through gate — Toffoli/CCZ/MCX/MCZ, which are not
      affine, and any region or H layer of a single gate, whose in-place
      kernel beats an out-of-place sweep.

    {!peephole} first defers Hadamards past affine gates on disjoint
    qubits (an exact commutation), widening regions and merging H
    layers. Plans are pure functions of the circuit, so every jobs ×
    shard-bits configuration replays the identical schedule, within
    rounding of the unfused reference amplitude for amplitude.

    Replay counts each kernel against the state's shard layout
    ({!Sv_shard}): H layers whose qubits sit below the slab bit, and
    gates that stay inside a slab, are {e slab-local} and fan out per
    slab over the pool; a high-bit H pairs whole slabs, and a segment
    reads sources across slabs while writing each output slab
    sequentially. Writes are disjoint, so any [--jobs] and any
    shard-bits value is bit-identical. *)

open Sv_kernels

type kernel =
  | K_gate of Gate.t
  | K_had of int array (* distinct qubits, ascending *)
  | K_segment of segment

type t = {
  n : int;
  ops : kernel array;
  blocks : int; (* fused kernels: segments + H layers *)
  fused_gates : int; (* source gates absorbed into fused kernels *)
  source_gates : int;
}

let gate_mask g = mask_of (Gate.qubits g)

let bits_of_mask m =
  let bits = ref [] in
  for b = Sys.int_size - 1 downto 0 do
    if m land (1 lsl b) <> 0 then bits := b :: !bits
  done;
  Array.of_list !bits

(** [peephole gates] defers pending Hadamards: a gate other than H whose
    support is disjoint from every deferred H commutes with them exactly
    (they act on different tensor factors), so it is emitted first. This
    widens regions across H layers and merges H gates on distinct qubits
    into one H layer. Any overlap flushes the deferred H's in
    order, so the result is always unitarily equal to the input (the
    test suite cross-checks via [Unitary.of_gates]). *)
let peephole (gates : Gate.t array) =
  let out = ref [] in
  let pend_h = ref [] and pend_mask = ref 0 in
  let flush () =
    List.iter (fun g -> out := g :: !out) (List.rev !pend_h);
    pend_h := [];
    pend_mask := 0
  in
  Array.iter
    (fun g ->
      match g with
      | Gate.H q ->
          let bit = 1 lsl q in
          if bit land !pend_mask <> 0 then flush ();
          pend_h := g :: !pend_h;
          pend_mask := !pend_mask lor bit
      | g when gate_mask g land !pend_mask = 0 -> out := g :: !out
      | g ->
          flush ();
          out := g :: !out)
    gates;
  flush ();
  Array.of_list (List.rev !out)

(* --- building --- *)

let build circuit =
  Obs.with_span "sv.plan.build" @@ fun () ->
  let n = Circuit.num_qubits circuit in
  let gates = peephole (Circuit.to_array circuit) in
  let ng = Array.length gates in
  let ops = ref [] and blocks = ref 0 and fused = ref 0 in
  let emit k = ops := k :: !ops in
  let fuse k gates =
    incr blocks;
    fused := !fused + gates;
    emit k
  in
  (* at most one of the two is pending: the region being folded (its
     gates, last first) or the H layer being collected *)
  let r = Phase_poly.create n and region = ref [] and region_n = ref 0 in
  let hads = ref [] and had_mask = ref 0 and had_n = ref 0 in
  let flush_region () =
    (match !region with
    | [] -> ()
    | [ g ] -> emit (K_gate g)
    | _ -> Option.iter (fun sg -> fuse (K_segment sg) !region_n) (segment_of_region r));
    if !region <> [] then begin
      region := [];
      region_n := 0;
      Phase_poly.reset r
    end
  in
  let flush_had () =
    (match !hads with
    | [] -> ()
    | [ g ] -> emit (K_gate g)
    | _ -> fuse (K_had (bits_of_mask !had_mask)) !had_n);
    hads := [];
    had_mask := 0;
    had_n := 0
  in
  Array.iter
    (fun g ->
      match g with
      | Gate.H q ->
          flush_region ();
          let bit = 1 lsl q in
          if bit land !had_mask <> 0 then flush_had ();
          hads := g :: !hads;
          had_mask := !had_mask lor bit;
          incr had_n
      | g ->
          flush_had ();
          if Phase_poly.term_count r > max_segment_terms - max_new_terms then flush_region ();
          if Phase_poly.fold r g then begin
            region := g :: !region;
            incr region_n
          end
          else begin
            flush_region ();
            emit (K_gate g)
          end)
    gates;
  flush_had ();
  flush_region ();
  let p =
    { n; ops = Array.of_list (List.rev !ops); blocks = !blocks; fused_gates = !fused;
      source_gates = ng }
  in
  if Obs.enabled () then begin
    if p.blocks > 0 then begin
      Obs.count ~by:p.blocks "sv.plan.blocks";
      Obs.count ~by:p.fused_gates "sv.plan.fused_gates"
    end;
    Obs.add_attrs
      [ ("ops", Obs.Int (Array.length p.ops)); ("gates", Obs.Int ng);
        ("qubits", Obs.Int n) ]
  end;
  p

(* --- replay --- *)

let exec_kernel s scratch = function
  | K_gate g -> apply s g
  | K_had bits -> Array.iter (apply_h s) bits
  | K_segment sg ->
      (* one scratch slab set per [execute], allocated on first use;
         the segment swaps it with the state's slabs *)
      let scr =
        match !scratch with
        | Some scr -> scr
        | None ->
            let scr = scratch_for s in
            scratch := Some scr;
            scr
      in
      apply_segment s scr sg

(* Shard classification for telemetry: slab-local kernels touch no
   amplitude outside their slab (diagonal gates qualify at any layout;
   a segment reads across the whole state). *)
let kernel_local s = function
  | K_segment _ -> false
  | K_had bits -> bits.(Array.length bits - 1) < s.sb
  | K_gate (Gate.Z _ | S _ | Sdg _ | T _ | Tdg _ | Rz _ | Cz _ | Ccz _ | Mcz _) -> true
  | K_gate g -> gate_mask g land lnot s.smask = 0

(** [scratch_fits p] says whether replaying [p] stays within the
    {!Sv_shard.max_qubits} cap. A segment sweeps into a scratch slab set
    as large as the state, so a plan with segments holds 2^(n+1)
    amplitudes and fits only when [n + 1] does. *)
let scratch_fits p =
  p.n < max_qubits () || not (Array.exists (function K_segment _ -> true | _ -> false) p.ops)

(** [execute p s] replays the schedule on [s] in place. On sharded
    states it also counts slab-local vs cross-slab kernels and the
    number of exchange rounds (maximal runs of consecutive cross-slab
    kernels) into the [sv.shard.*] counters.
    @raise Unsupported when the segments' scratch would pass the cap
    ({!scratch_fits}), before anything is allocated. *)
let execute p s =
  if p.n <> num_qubits s then
    invalid_arg "Statevector.Plan.execute: qubit mismatch";
  if not (scratch_fits p) then
    raise
      (Unsupported
         (Printf.sprintf
            "sv.alloc: replaying this %d-qubit plan needs a scratch copy of \
             the state (2^%d amplitudes), past the statevector cap of %d \
             qubits; raise DAUTOQ_SV_MAX_QUBITS or run it gate by gate"
            p.n (p.n + 1) (max_qubits ())));
  let scratch = ref None in
  if not (sharded s) then Array.iter (exec_kernel s scratch) p.ops
  else begin
    let locals = ref 0 and exch = ref 0 and rounds = ref 0 in
    let in_exchange = ref false in
    Array.iter
      (fun k ->
        (if kernel_local s k then begin
           incr locals;
           in_exchange := false
         end
         else begin
           incr exch;
           if not !in_exchange then begin
             incr rounds;
             in_exchange := true
           end
         end);
        exec_kernel s scratch k)
      p.ops;
    if Obs.enabled () then begin
      if !locals > 0 then Obs.count ~by:!locals "sv.shard.local_blocks";
      if !exch > 0 then Obs.count ~by:!exch "sv.shard.exchange_blocks";
      if !rounds > 0 then Obs.count ~by:!rounds "sv.shard.exchange_rounds"
    end
  end

type stats = {
  ops : int;
  blocks : int;
  fused_gates : int;
  source_gates : int;
  segments : int; (* phase-polynomial regions *)
  had : int; (* H layers of two or more gates *)
  passthrough : int; (* single gates *)
}

(** [stats p] summarizes the schedule (tests and CLIs read this). *)
let stats (p : t) =
  let segments = ref 0 and had = ref 0 and passthrough = ref 0 in
  Array.iter
    (function
      | K_gate _ -> incr passthrough
      | K_had _ -> incr had
      | K_segment _ -> incr segments)
    p.ops;
  { ops = Array.length p.ops; blocks = p.blocks; fused_gates = p.fused_gates;
    source_gates = p.source_gates; segments = !segments; had = !had;
    passthrough = !passthrough }
