(** Gate kernels, reductions and the diagonal-sweep primitive the plan
    layer ({!Sv_plan}) builds on, over the sharded state ({!Sv_shard}).

    Every primitive has two shapes with {e identical per-amplitude float
    arithmetic}: a flat fast path on single-slab states (the exact PR 8
    kernels) and a sharded path that dispatches on whether the touched
    qubits sit below the slab bit — slab-local work fans out over the
    {!Par} pool slab by slab, cross-slab pairs stream two slabs in
    lockstep. Reductions chunk the {e global} index space into a fixed
    block count and walk each block's slabs in ascending global order,
    so sums are bit-identical across every jobs × shard-bits setting. *)

include Sv_shard

(* States at or below this size run kernels sequentially: the per-batch
   synchronization (~µs) would dwarf the loop itself. 2^14 amplitudes ≈
   256 kB, roughly where one pass stops fitting in L2. *)
let par_threshold = 1 lsl 14

(* Below this many qubits planning costs more than it saves: kernel
   passes over ≤ 2^9 amplitudes are already sub-µs, so the plan build
   dominates and [Statevector.exec] applies gates one by one. Planning
   itself is size-independent, so tests drive {!Sv_plan} directly on
   small circuits. *)
let fuse_min_qubits = 10

(* Run [f slab] for every slab, over the pool when the state is big
   enough to amortize it. Each slab-local task writes only its own
   slab(s), so any pool width is bit-identical. *)
let run_slabs s f =
  if size s <= par_threshold then
    for sl = 0 to slab_count s - 1 do
      f sl
    done
  else Par.parallel_for_slabs (Par.global ()) ~slabs:(slab_count s) f

(* Kernel bodies are top-level segment functions over [lo, hi): the
   sequential path calls them directly (a known call — loop locals stay
   in registers), and only the parallel path pays a closure. Wrapping
   the whole body in a [par_range (fun lo hi -> ...)] closure costs
   ~15% on kernel-bound circuits without flambda, because captured
   variables are re-read from the closure environment each iteration.
   Each segment writes a disjoint index slice, so any worker count
   computes bit-identical amplitudes (Par's contract). *)
let sqrt2inv = 1. /. sqrt 2.

let seg_1q re im bit (m00 : Complex.t) (m01 : Complex.t) (m10 : Complex.t)
    (m11 : Complex.t) lo hi =
  let x = ref lo in
  while !x < hi do
    if !x land bit = 0 then begin
      let y = !x lor bit in
      let ar = re.(!x) and ai = im.(!x) and br = re.(y) and bi = im.(y) in
      re.(!x) <- (m00.re *. ar) -. (m00.im *. ai) +. (m01.re *. br) -. (m01.im *. bi);
      im.(!x) <- (m00.re *. ai) +. (m00.im *. ar) +. (m01.re *. bi) +. (m01.im *. br);
      re.(y) <- (m10.re *. ar) -. (m10.im *. ai) +. (m11.re *. br) -. (m11.im *. bi);
      im.(y) <- (m10.re *. ai) +. (m10.im *. ar) +. (m11.re *. bi) +. (m11.im *. br)
    end;
    incr x
  done

(* Cross-slab 1q kernel: the pair partner lives one high bit away, i.e.
   in another slab at the *same* local offset — stream both slabs in
   lockstep. Same four store expressions as {!seg_1q}. *)
let seg_1q_pair (are : float array) (aim : float array) (bre : float array)
    (bim : float array) (m00 : Complex.t) (m01 : Complex.t) (m10 : Complex.t)
    (m11 : Complex.t) lo hi =
  for x = lo to hi - 1 do
    let ar = are.(x) and ai = aim.(x) and br = bre.(x) and bi = bim.(x) in
    are.(x) <- (m00.re *. ar) -. (m00.im *. ai) +. (m01.re *. br) -. (m01.im *. bi);
    aim.(x) <- (m00.re *. ai) +. (m00.im *. ar) +. (m01.re *. bi) +. (m01.im *. br);
    bre.(x) <- (m10.re *. ar) -. (m10.im *. ai) +. (m11.re *. br) -. (m11.im *. bi);
    bim.(x) <- (m10.re *. ai) +. (m10.im *. ar) +. (m11.re *. bi) +. (m11.im *. br)
  done

let apply_1q s q (m00 : Complex.t) (m01 : Complex.t) (m10 : Complex.t)
    (m11 : Complex.t) =
  let bit = 1 lsl q in
  if not (sharded s) then begin
    let re = s.sl_re.(0) and im = s.sl_im.(0) in
    let sz = size s in
    if sz <= par_threshold then seg_1q re im bit m00 m01 m10 m11 0 sz
    else
      Par.parallel_for (Par.global ()) ~start:0 ~stop:sz (fun lo hi ->
          seg_1q re im bit m00 m01 m10 m11 lo hi)
  end
  else if q < s.sb then
    run_slabs s (fun sl ->
        seg_1q s.sl_re.(sl) s.sl_im.(sl) bit m00 m01 m10 m11 0 (slab_size s))
  else begin
    let hb = 1 lsl (q - s.sb) in
    run_slabs s (fun sl ->
        if sl land hb = 0 then
          seg_1q_pair s.sl_re.(sl) s.sl_im.(sl)
            s.sl_re.(sl lor hb) s.sl_im.(sl lor hb)
            m00 m01 m10 m11 0 (slab_size s))
  end

(* Hadamard over pair indices [lo, hi) of [0, 2^(n-1)): pair [p] is
   [(x, x lor bit)] with a zero spliced in at [bit], so the loop has no
   skip test. [s·a ± s·b] rounds exactly like {!seg_1q} with the H
   matrix, whose zero imaginary entries only add exact zeros. *)
let seg_h (re : float array) (im : float array) bit lo hi =
  let low = bit - 1 in
  for p = lo to hi - 1 do
    let x = ((p land lnot low) lsl 1) lor (p land low) in
    let y = x lor bit in
    let ar = sqrt2inv *. re.(x) and ai = sqrt2inv *. im.(x) in
    let br = sqrt2inv *. re.(y) and bi = sqrt2inv *. im.(y) in
    re.(x) <- ar +. br;
    im.(x) <- ai +. bi;
    re.(y) <- ar -. br;
    im.(y) <- ai -. bi
  done

(* Cross-slab Hadamard: same stores as {!seg_h}, partners at the same
   local offset of two slabs. *)
let seg_h_pair (are : float array) (aim : float array) (bre : float array)
    (bim : float array) lo hi =
  for x = lo to hi - 1 do
    let ar = sqrt2inv *. are.(x) and ai = sqrt2inv *. aim.(x) in
    let br = sqrt2inv *. bre.(x) and bi = sqrt2inv *. bim.(x) in
    are.(x) <- ar +. br;
    aim.(x) <- ai +. bi;
    bre.(x) <- ar -. br;
    bim.(x) <- ai -. bi
  done

let apply_h s q =
  let bit = 1 lsl q in
  if not (sharded s) then begin
    let re = s.sl_re.(0) and im = s.sl_im.(0) in
    let pairs = size s / 2 in
    if 2 * pairs <= par_threshold then seg_h re im bit 0 pairs
    else
      Par.parallel_for (Par.global ()) ~start:0 ~stop:pairs (fun lo hi ->
          seg_h re im bit lo hi)
  end
  else if q < s.sb then
    run_slabs s (fun sl -> seg_h s.sl_re.(sl) s.sl_im.(sl) bit 0 (slab_size s / 2))
  else begin
    let hb = 1 lsl (q - s.sb) in
    run_slabs s (fun sl ->
        if sl land hb = 0 then
          seg_h_pair s.sl_re.(sl) s.sl_im.(sl)
            s.sl_re.(sl lor hb) s.sl_im.(sl lor hb)
            0 (slab_size s))
  end

(* Pair kernels visit each (x, x lxor tbit) pair once via the tbit = 0
   representative; the tbit = 1 partner is never a representative itself,
   so chunking the full index range keeps writes disjoint. *)
(* The float array annotations matter: without them these move-only
   bodies generalize polymorphically and compile to generic (boxing)
   array accesses — ~2.5x slower. *)
let seg_swap (re : float array) (im : float array) mask want tbit lo hi =
  for x = lo to hi - 1 do
    if x land tbit = 0 && x land mask = want then begin
      let y = x lor tbit in
      let r = re.(x) and i = im.(x) in
      re.(x) <- re.(y);
      im.(x) <- im.(y);
      re.(y) <- r;
      im.(y) <- i
    end
  done

(* Cross-slab controlled-swap: the target bit selects the partner slab;
   any control bits split into a slab-index condition (checked once per
   pair of slabs) and a local mask. Pure moves — exact. *)
let seg_swap_pair (are : float array) (aim : float array) (bre : float array)
    (bim : float array) mask want lo hi =
  for x = lo to hi - 1 do
    if x land mask = want then begin
      let r = are.(x) and i = aim.(x) in
      are.(x) <- bre.(x);
      aim.(x) <- bim.(x);
      bre.(x) <- r;
      bim.(x) <- i
    end
  done

let swap_pairs s ~mask ~want ~tbit =
  if not (sharded s) then begin
    let re = s.sl_re.(0) and im = s.sl_im.(0) in
    let sz = size s in
    if sz <= par_threshold then seg_swap re im mask want tbit 0 sz
    else
      Par.parallel_for (Par.global ()) ~start:0 ~stop:sz (fun lo hi ->
          seg_swap re im mask want tbit lo hi)
  end
  else begin
    let mlo = mask land s.smask and mhi = mask lsr s.sb in
    let wlo = want land s.smask and whi = want lsr s.sb in
    if tbit <= s.smask then
      run_slabs s (fun sl ->
          if sl land mhi = whi then
            seg_swap s.sl_re.(sl) s.sl_im.(sl) mlo wlo tbit 0 (slab_size s))
    else begin
      let hb = tbit lsr s.sb in
      run_slabs s (fun sl ->
          if sl land hb = 0 && sl land mhi = whi then
            seg_swap_pair s.sl_re.(sl) s.sl_im.(sl)
              s.sl_re.(sl lor hb) s.sl_im.(sl lor hb)
              mlo wlo 0 (slab_size s))
    end
  end

let seg_phase re im mask want pre pim lo hi =
  for x = lo to hi - 1 do
    if x land mask = want then begin
      let r = re.(x) and i = im.(x) in
      re.(x) <- (pre *. r) -. (pim *. i);
      im.(x) <- (pre *. i) +. (pim *. r)
    end
  done

let phase_on s ~mask ~want (p : Complex.t) =
  if not (sharded s) then begin
    let re = s.sl_re.(0) and im = s.sl_im.(0) in
    let sz = size s in
    if sz <= par_threshold then seg_phase re im mask want p.re p.im 0 sz
    else
      Par.parallel_for (Par.global ()) ~start:0 ~stop:sz (fun lo hi ->
          seg_phase re im mask want p.re p.im lo hi)
  end
  else begin
    (* diagonal: never crosses slabs — the slab-index half of the mask
       just gates which slabs are touched at all *)
    let mlo = mask land s.smask and mhi = mask lsr s.sb in
    let wlo = want land s.smask and whi = want lsr s.sb in
    run_slabs s (fun sl ->
        if sl land mhi = whi then
          seg_phase s.sl_re.(sl) s.sl_im.(sl) mlo wlo p.re p.im 0 (slab_size s))
  end

(* Swap = visit the (a=1, b=0) pattern once, exchange with (a=0, b=1). *)
let seg_swap2 (re : float array) (im : float array) ab bb lo hi =
  for x = lo to hi - 1 do
    if x land ab <> 0 && x land bb = 0 then begin
      let y = (x lxor ab) lor bb in
      let r = re.(x) and i = im.(x) in
      re.(x) <- re.(y);
      im.(x) <- im.(y);
      re.(y) <- r;
      im.(y) <- i
    end
  done

(* Sharded SWAP with at least one high qubit: rare enough (plans fuse
   SWAPs into permutation blocks) that a generic global-index walk via
   the accessors is fine. Pure moves — exact, and pairs are disjoint so
   chunking stays deterministic. *)
let seg_swap2_g s ab bb lo hi =
  for x = lo to hi - 1 do
    if x land ab <> 0 && x land bb = 0 then begin
      let y = (x lxor ab) lor bb in
      let r = get_re s x and i = get_im s x in
      set_re s x (get_re s y);
      set_im s x (get_im s y);
      set_re s y r;
      set_im s y i
    end
  done

let apply_swap s a b =
  let ab = 1 lsl a and bb = 1 lsl b in
  let sz = size s in
  if not (sharded s) then begin
    let re = s.sl_re.(0) and im = s.sl_im.(0) in
    if sz <= par_threshold then seg_swap2 re im ab bb 0 sz
    else
      Par.parallel_for (Par.global ()) ~start:0 ~stop:sz (fun lo hi ->
          seg_swap2 re im ab bb lo hi)
  end
  else if ab <= s.smask && bb <= s.smask then
    run_slabs s (fun sl ->
        seg_swap2 s.sl_re.(sl) s.sl_im.(sl) ab bb 0 (slab_size s))
  else if sz <= par_threshold then seg_swap2_g s ab bb 0 sz
  else
    Par.parallel_for (Par.global ()) ~start:0 ~stop:sz (fun lo hi ->
        seg_swap2_g s ab bb lo hi)

let c0 = Complex.zero
let ci = Complex.i
let cm1 = Complex.{ re = -1.; im = 0. }
let cmi = Complex.{ re = 0.; im = -1. }
let omega = Complex.{ re = sqrt2inv; im = sqrt2inv } (* e^{iπ/4} *)
let omega_bar = Complex.{ re = sqrt2inv; im = -.sqrt2inv }

let mask_of qs = List.fold_left (fun m q -> m lor (1 lsl q)) 0 qs

(** [apply s g] applies one gate in place. *)
let apply s (g : Gate.t) =
  match g with
  | Gate.X q -> swap_pairs s ~mask:0 ~want:0 ~tbit:(1 lsl q)
  | Gate.Y q ->
      apply_1q s q c0 cmi ci c0
  | Gate.Z q -> phase_on s ~mask:(1 lsl q) ~want:(1 lsl q) cm1
  | Gate.S q -> phase_on s ~mask:(1 lsl q) ~want:(1 lsl q) ci
  | Gate.Sdg q -> phase_on s ~mask:(1 lsl q) ~want:(1 lsl q) cmi
  | Gate.T q -> phase_on s ~mask:(1 lsl q) ~want:(1 lsl q) omega
  | Gate.Tdg q -> phase_on s ~mask:(1 lsl q) ~want:(1 lsl q) omega_bar
  | Gate.Rz (a, q) ->
      (* rz(θ) = diag(e^{-iθ/2}, e^{iθ/2}) *)
      let h = a /. 2. in
      let bit = 1 lsl q in
      phase_on s ~mask:bit ~want:0 Complex.{ re = cos h; im = -.sin h };
      phase_on s ~mask:bit ~want:bit Complex.{ re = cos h; im = sin h }
  | Gate.H q -> apply_h s q
  | Gate.Cnot (c, t) -> swap_pairs s ~mask:(1 lsl c) ~want:(1 lsl c) ~tbit:(1 lsl t)
  | Gate.Cz (a, b) ->
      let m = (1 lsl a) lor (1 lsl b) in
      phase_on s ~mask:m ~want:m cm1
  | Gate.Swap (a, b) -> apply_swap s a b
  | Gate.Ccx (a, b, t) ->
      let m = (1 lsl a) lor (1 lsl b) in
      swap_pairs s ~mask:m ~want:m ~tbit:(1 lsl t)
  | Gate.Ccz (a, b, c) ->
      let m = mask_of [ a; b; c ] in
      phase_on s ~mask:m ~want:m cm1
  | Gate.Mcx (cs, t) ->
      let m = mask_of cs in
      swap_pairs s ~mask:m ~want:m ~tbit:(1 lsl t)
  | Gate.Mcz qs ->
      let m = mask_of qs in
      phase_on s ~mask:m ~want:m cm1

(* --- deterministic parallel reductions --- *)

(* Reductions chunk the *global* index space into a fixed number of
   blocks (independent of pool width and shard layout), sum each block
   left-to-right — walking its slab pieces in ascending global order —
   and combine the per-block partials in Par's fixed pairwise-tree
   order. The float summation order is therefore a pure function of the
   state size: any jobs × shard-bits combination produces bit-identical
   sums. *)
let reduce_blocks = 256

let tree_sum = Par.tree_sum

(* 1-slot accumulator arrays, not refs: float ref stores box per
   iteration. *)
let seg_sum2 (re : float array) (im : float array) lo hi =
  let acc = [| 0. |] in
  for x = lo to hi - 1 do
    acc.(0) <- acc.(0) +. (re.(x) *. re.(x)) +. (im.(x) *. im.(x))
  done;
  acc.(0)

let seg_sum2_bit (re : float array) (im : float array) bit lo hi =
  let acc = [| 0. |] in
  for x = lo to hi - 1 do
    if x land bit <> 0 then
      acc.(0) <- acc.(0) +. (re.(x) *. re.(x)) +. (im.(x) *. im.(x))
  done;
  acc.(0)

(* Sharded block partials: one running accumulator carried across the
   block's slab pieces in global order — the same addition sequence as
   the flat kernels, so the sums match bit for bit. *)
let seg_sum2_sh s lo hi =
  let acc = [| 0. |] in
  iter_pieces s lo hi (fun sl _base lo_l hi_l ->
      let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
      for x = lo_l to hi_l - 1 do
        acc.(0) <- acc.(0) +. (re.(x) *. re.(x)) +. (im.(x) *. im.(x))
      done);
  acc.(0)

let seg_sum2_bit_sh s bit lo hi =
  let acc = [| 0. |] in
  iter_pieces s lo hi (fun sl base lo_l hi_l ->
      let re = s.sl_re.(sl) and im = s.sl_im.(sl) in
      for x = lo_l to hi_l - 1 do
        if (base lor x) land bit <> 0 then
          acc.(0) <- acc.(0) +. (re.(x) *. re.(x)) +. (im.(x) *. im.(x))
      done);
  acc.(0)

(* Fixed-chunk parallel sum of [seg lo hi] over [0, sz). Small states
   keep the plain sequential scan (also the exact historical order). *)
let reduce_sum sz (seg : int -> int -> float) =
  if sz <= par_threshold then seg 0 sz
  else
    let k = reduce_blocks in
    Par.sum_blocks (Par.global ()) ~blocks:k (fun i ->
        seg (sz * i / k) (sz * (i + 1) / k))

(** [norm2 s] is the total probability (should stay 1 within rounding).
    Chunked tree sum above {!par_threshold}; bit-identical at any
    [--jobs] and any shard-bits setting. *)
let norm2 s =
  if not (sharded s) then
    reduce_sum (size s) (seg_sum2 s.sl_re.(0) s.sl_im.(0))
  else reduce_sum (size s) (seg_sum2_sh s)

(** [prob_of_qubit s q] is the probability of reading 1 on qubit [q]. *)
let prob_of_qubit s q =
  if not (sharded s) then
    reduce_sum (size s) (seg_sum2_bit s.sl_re.(0) s.sl_im.(0) (1 lsl q))
  else reduce_sum (size s) (seg_sum2_bit_sh s (1 lsl q))

(* --- diagonal sweeps --- *)

(* One multiplicative term of a diagonal gate: amplitudes whose index
   matches [want] on [mask] pick up the phase (pre + i·pim). *)
type dterm = { mask : int; want : int; pre : float; pim : float }

let dterm mask want (p : Complex.t) = { mask; want; pre = p.re; pim = p.im }

(* The phase terms of a diagonal gate (diagonal gates all commute, so any
   run of them coalesces into one sweep over these terms). *)
let dterms_of_gate g =
  let one_hot q p = [ dterm (1 lsl q) (1 lsl q) p ] in
  match g with
  | Gate.Z q -> Some (one_hot q cm1)
  | Gate.S q -> Some (one_hot q ci)
  | Gate.Sdg q -> Some (one_hot q cmi)
  | Gate.T q -> Some (one_hot q omega)
  | Gate.Tdg q -> Some (one_hot q omega_bar)
  | Gate.Rz (a, q) ->
      let h = a /. 2. in
      let bit = 1 lsl q in
      Some
        [ dterm bit 0 Complex.{ re = cos h; im = -.sin h };
          dterm bit bit Complex.{ re = cos h; im = sin h } ]
  | Gate.Cz (a, b) ->
      let m = (1 lsl a) lor (1 lsl b) in
      Some [ dterm m m cm1 ]
  | Gate.Ccz (a, b, c) ->
      let m = mask_of [ a; b; c ] in
      Some [ dterm m m cm1 ]
  | Gate.Mcz qs ->
      let m = mask_of qs in
      Some [ dterm m m cm1 ]
  | _ -> None

(* One sweep applying a whole run of diagonal gates. The combined phase of
   index [x] is a product over matching terms; terms whose mask lies
   entirely in the low or high half of the index bits are precomputed
   into per-half lookup tables of size O(√2^n), so the sweep itself is
   phase(x) = lo[x low bits] · hi[x high bits] · (rare straddling terms)
   — two complex multiplies per amplitude however long the run is, and
   one memory pass instead of one per gate. Amplitudes whose combined
   phase is exactly 1 are not written, so untouched entries keep their
   exact values (basis states stay exact). All arithmetic is on unboxed
   floats — no [Complex.t] in the inner loop. *)
let seg_phase_sweep re im lo_re lo_im hi_re hi_im half_mask h
    (straddling : dterm array) lo hi =
  let ns = Array.length straddling in
  (* 2-slot float array, not refs: ref assignment would box per store *)
  let acc = [| 1.; 0. |] in
  for x = lo to hi - 1 do
    let l = x land half_mask and g = x lsr h in
    let ar = Array.unsafe_get lo_re l and ai = Array.unsafe_get lo_im l in
    let br = Array.unsafe_get hi_re g and bi = Array.unsafe_get hi_im g in
    acc.(0) <- (ar *. br) -. (ai *. bi);
    acc.(1) <- (ar *. bi) +. (ai *. br);
    for t = 0 to ns - 1 do
      let tm = Array.unsafe_get straddling t in
      if x land tm.mask = tm.want then begin
        let r = acc.(0) and i = acc.(1) in
        acc.(0) <- (r *. tm.pre) -. (i *. tm.pim);
        acc.(1) <- (r *. tm.pim) +. (i *. tm.pre)
      end
    done;
    let pr = acc.(0) and pi = acc.(1) in
    if not (pr = 1. && pi = 0.) then begin
      let r = re.(x) and i = im.(x) in
      re.(x) <- (pr *. r) -. (pi *. i);
      im.(x) <- (pr *. i) +. (pi *. r)
    end
  done

(* Sharded sweep segment: local writes, global indices into the phase
   tables ([gx = base lor x]). Same arithmetic and same skip-when-unit
   rule as {!seg_phase_sweep}. *)
let seg_phase_sweep_base (re : float array) (im : float array) lo_re lo_im
    hi_re hi_im half_mask h (straddling : dterm array) base lo hi =
  let ns = Array.length straddling in
  let acc = [| 1.; 0. |] in
  for x = lo to hi - 1 do
    let gx = base lor x in
    let l = gx land half_mask and g = gx lsr h in
    let ar = Array.unsafe_get lo_re l and ai = Array.unsafe_get lo_im l in
    let br = Array.unsafe_get hi_re g and bi = Array.unsafe_get hi_im g in
    acc.(0) <- (ar *. br) -. (ai *. bi);
    acc.(1) <- (ar *. bi) +. (ai *. br);
    for t = 0 to ns - 1 do
      let tm = Array.unsafe_get straddling t in
      if gx land tm.mask = tm.want then begin
        let r = acc.(0) and i = acc.(1) in
        acc.(0) <- (r *. tm.pre) -. (i *. tm.pim);
        acc.(1) <- (r *. tm.pim) +. (i *. tm.pre)
      end
    done;
    let pr = acc.(0) and pi = acc.(1) in
    if not (pr = 1. && pi = 0.) then begin
      let r = re.(x) and i = im.(x) in
      re.(x) <- (pr *. r) -. (pi *. i);
      im.(x) <- (pr *. i) +. (pi *. r)
    end
  done

(* A fully prepared diagonal sweep: the per-half phase tables plus any
   straddling terms. Building one is O(√2^n · terms); the plan layer
   builds each sweep once and replays it across shots. *)
type sweep = {
  lo_re : float array;
  lo_im : float array;
  hi_re : float array;
  hi_im : float array;
  half_mask : int;
  h : int;
  straddling : dterm array;
}

let sweep_of_terms n (terms : dterm array) =
  let h = (n + 1) / 2 in
  let lo_sz = 1 lsl h and hi_sz = 1 lsl (n - h) in
  let half_mask = lo_sz - 1 in
  let lo_re = Array.make lo_sz 1. and lo_im = Array.make lo_sz 0. in
  let hi_re = Array.make hi_sz 1. and hi_im = Array.make hi_sz 0. in
  let fold_into tre tim tsz mask want pre pim =
    for i = 0 to tsz - 1 do
      if i land mask = want then begin
        let r = tre.(i) and j = tim.(i) in
        tre.(i) <- (r *. pre) -. (j *. pim);
        tim.(i) <- (r *. pim) +. (j *. pre)
      end
    done
  in
  let straddling = ref [] in
  Array.iter
    (fun t ->
      if t.mask land half_mask = t.mask then
        fold_into lo_re lo_im lo_sz t.mask t.want t.pre t.pim
      else if t.mask land lnot half_mask = t.mask then
        fold_into hi_re hi_im hi_sz (t.mask lsr h) (t.want lsr h) t.pre t.pim
      else straddling := t :: !straddling)
    (* multi-qubit masks spanning both halves (a CZ across the midline)
       stay as per-index checks; they are rare and few *)
    terms;
  { lo_re; lo_im; hi_re; hi_im; half_mask; h;
    straddling = Array.of_list (List.rev !straddling) }

let apply_sweep s sw =
  if not (sharded s) then begin
    let re = s.sl_re.(0) and im = s.sl_im.(0) in
    let sz = size s in
    if sz <= par_threshold then
      seg_phase_sweep re im sw.lo_re sw.lo_im sw.hi_re sw.hi_im sw.half_mask
        sw.h sw.straddling 0 sz
    else
      Par.parallel_for (Par.global ()) ~start:0 ~stop:sz (fun lo hi ->
          seg_phase_sweep re im sw.lo_re sw.lo_im sw.hi_re sw.hi_im
            sw.half_mask sw.h sw.straddling lo hi)
  end
  else
    run_slabs s (fun sl ->
        seg_phase_sweep_base s.sl_re.(sl) s.sl_im.(sl) sw.lo_re sw.lo_im
          sw.hi_re sw.hi_im sw.half_mask sw.h sw.straddling (sl lsl s.sb) 0
          (slab_size s))

(* --- affine phase-polynomial segments --- *)

(* One region of {!Phase_poly}: |x⟩ ↦ ω^(Σ e_k·(l_k·x)) |A·x ⊕ b⟩ with
   ω = e^{iπ/4}, applied out of place. Output [y] reads source
   [x = A⁻¹·(y ⊕ b)], which is linear in [y] up to the constant
   [x0 = A⁻¹·b], and so is the term word [t(x)] (bit k = l_k·x). A
   block of 2^lb outputs steps both by XORing precomputed low-bit
   deltas onto the block's base; the phase exponent is a sum of per-byte
   mod-8 tables over the term word. *)
type segment = {
  lb : int; (* low output bits stepped through [dx]/[dt] *)
  cols : int array; (* cols.(j): source delta of output bit j (A⁻¹ column) *)
  tcols : int array; (* term-word delta of output bit j *)
  x0 : int;
  t0 : int;
  dx : int array; (* source deltas of the 2^lb low output patterns *)
  dt : int array; (* term-word deltas of the same *)
  ptab : int array; (* per term byte: Σ e_k over its set bits, mod 8 *)
}

(** The term word is one int: at most this many phase terms per
    segment. *)
let max_segment_terms = 62

(* ω^p at [2p] (re) and [2p + 1] (im), p = 0..7: the per-gate constants *)
let omega_ri =
  [| 1.; 0.; sqrt2inv; sqrt2inv; 0.; 1.; -.sqrt2inv; sqrt2inv; -1.; 0.; -.sqrt2inv;
     -.sqrt2inv; 0.; -1.; sqrt2inv; -.sqrt2inv |]

let parity v =
  let v = v lxor (v lsr 32) in
  let v = v lxor (v lsr 16) in
  let v = v lxor (v lsr 8) in
  let v = v lxor (v lsr 4) in
  let v = v lxor (v lsr 2) in
  (v lxor (v lsr 1)) land 1

(* Fill [tab.(base + m)] for m < 2^bits with [col j] combined over the
   set bits j of m — by doubling, one op per entry. *)
let fill_span tab base bits col combine =
  tab.(base) <- 0;
  for j = 0 to bits - 1 do
    let h = 1 lsl j in
    for m = 0 to h - 1 do
      tab.(base + h + m) <- combine tab.(base + m) (col j)
    done
  done

(** [segment ~sb ~inv ~offset ~masks ~eighths] prepares a sweep for
    a state with slab bits [sb]: [inv] holds the columns of A⁻¹,
    [offset] is [b], and term [k] is [eighths.(k)]·([masks.(k)]·x),
    at most {!max_segment_terms} of them. *)
let segment ~sb ~inv ~offset ~(masks : int array) ~(eighths : int array) =
  let k = Array.length masks in
  if k > max_segment_terms then invalid_arg "Sv_kernels.segment: too many terms";
  let tword v =
    let w = ref 0 in
    for i = 0 to k - 1 do
      if parity (masks.(i) land v) = 1 then w := !w lor (1 lsl i)
    done;
    !w
  in
  let n = Array.length inv in
  let cols = Array.copy inv in
  let tcols = Array.map tword cols in
  let x0 = ref 0 in
  for j = 0 to n - 1 do
    if offset land (1 lsl j) <> 0 then x0 := !x0 lxor cols.(j)
  done;
  let lb = min 6 sb in
  let dx = Array.make (1 lsl lb) 0 and dt = Array.make (1 lsl lb) 0 in
  fill_span dx 0 lb (Array.get cols) ( lxor );
  fill_span dt 0 lb (Array.get tcols) ( lxor );
  (* 256 entries per full byte of the term word, 2^bits for the last;
     at most 8 terms index one table of 2^k (k = 0: the single entry 0) *)
  let bytes = (k + 7) / 8 in
  let last = k - (8 * max 0 (bytes - 1)) in
  let ptab = Array.make ((256 * max 0 (bytes - 1)) + (1 lsl last)) 0 in
  for b = 0 to bytes - 1 do
    let e j = eighths.((8 * b) + j) in
    fill_span ptab (256 * b) (min 8 (k - (8 * b))) e (fun a v -> (a + v) land 7)
  done;
  { lb; cols; tcols; x0 = !x0; t0 = tword !x0; dx; dt; ptab }

(* XOR of [cols.(j0 + i)] over the set bits i of [v]: a block's base. *)
let xor_span (cols : int array) v j0 =
  let acc = ref 0 and v = ref v and j = ref j0 in
  while !v <> 0 do
    if !v land 1 = 1 then acc := !acc lxor Array.unsafe_get cols !j;
    v := !v lsr 1;
    incr j
  done;
  !acc

(* Flat sweep over output blocks [blo, bhi) of 2^lb amplitudes, for
   segments of at most 8 terms: one table lookup per amplitude. The loop
   makes no calls — a call would make the compiler spill its registers
   around it, which costs a third of the sweep. *)
let seg_affine (ire : float array) (iim : float array) (ore : float array)
    (oim : float array) sg blo bhi =
  let lb = sg.lb and dx = sg.dx and dt = sg.dt and ptab = sg.ptab in
  for blk = blo to bhi - 1 do
    let y0 = blk lsl lb in
    let xb = sg.x0 lxor xor_span sg.cols blk lb
    and tb = sg.t0 lxor xor_span sg.tcols blk lb in
    for m = 0 to (1 lsl lb) - 1 do
      let x = xb lxor Array.unsafe_get dx m in
      let p = 2 * Array.unsafe_get ptab (tb lxor Array.unsafe_get dt m) in
      let wr = Array.unsafe_get omega_ri p and wi = Array.unsafe_get omega_ri (p + 1) in
      let r = Array.unsafe_get ire x and i = Array.unsafe_get iim x in
      Array.unsafe_set ore (y0 + m) ((wr *. r) -. (wi *. i));
      Array.unsafe_set oim (y0 + m) ((wr *. i) +. (wi *. r))
    done
  done

(* The general sweep: any term count (one lookup per byte of the term
   word), sources read through slabs of 2^sb. Output blocks [blo, bhi)
   of the slab whose first global index is [ybase]. Same arithmetic as
   {!seg_affine}. *)
let seg_affine_sh (ire : float array array) (iim : float array array) sb
    (ore : float array) (oim : float array) sg ybase blo bhi =
  let lb = sg.lb and smask = (1 lsl sb) - 1 and dx = sg.dx and dt = sg.dt in
  let ptab = sg.ptab in
  for blk = blo to bhi - 1 do
    let y0 = blk lsl lb in
    let gblk = (ybase lor y0) lsr lb in
    let xb = sg.x0 lxor xor_span sg.cols gblk lb
    and tb = sg.t0 lxor xor_span sg.tcols gblk lb in
    for m = 0 to (1 lsl lb) - 1 do
      let x = xb lxor Array.unsafe_get dx m in
      let t = ref (tb lxor Array.unsafe_get dt m) and p = ref 0 and o = ref 0 in
      while !t <> 0 do
        p := !p + Array.unsafe_get ptab (!o + (!t land 255));
        t := !t lsr 8;
        o := !o + 256
      done;
      let p = 2 * (!p land 7) in
      let wr = Array.unsafe_get omega_ri p and wi = Array.unsafe_get omega_ri (p + 1) in
      let sre : float array = Array.unsafe_get ire (x lsr sb)
      and sim : float array = Array.unsafe_get iim (x lsr sb) in
      let r = Array.unsafe_get sre (x land smask) and i = Array.unsafe_get sim (x land smask) in
      Array.unsafe_set ore (y0 + m) ((wr *. r) -. (wi *. i));
      Array.unsafe_set oim (y0 + m) ((wr *. i) +. (wi *. r))
    done
  done

(** A slab set the shape of a state's, for out-of-place kernels. *)
type scratch = { mutable x_re : float array array; mutable x_im : float array array }

let scratch_for s =
  { x_re = alloc_slabs ~slabs:(slab_count s) ~slab_size:(slab_size s);
    x_im = alloc_slabs ~slabs:(slab_count s) ~slab_size:(slab_size s) }

(** [apply_segment s scr sg] applies the segment through [scr] and swaps
    the slab sets, so [scr] holds the old amplitudes afterwards. Every
    output amplitude is one complex multiply of one source amplitude, so
    any chunking by output index is bit-identical. *)
let apply_segment s scr sg =
  let ire = s.sl_re and iim = s.sl_im in
  let blocks = slab_size s lsr sg.lb in
  (if not (sharded s) then begin
     let ore = scr.x_re.(0) and oim = scr.x_im.(0) in
     let seg =
       if Array.length sg.ptab <= 256 then seg_affine ire.(0) iim.(0) ore oim sg
       else seg_affine_sh ire iim s.sb ore oim sg 0
     in
     if size s <= par_threshold then seg 0 blocks
     else Par.parallel_for (Par.global ()) ~start:0 ~stop:blocks seg
   end
   else
     run_slabs s (fun sl ->
         seg_affine_sh ire iim s.sb scr.x_re.(sl) scr.x_im.(sl) sg (sl lsl s.sb) 0 blocks));
  s.sl_re <- scr.x_re;
  s.sl_im <- scr.x_im;
  scr.x_re <- ire;
  scr.x_im <- iim

(* Qubit of a 1-qubit gate, or -1 for multi-qubit gates. *)
let q1_of = function
  | Gate.X q | Gate.Y q | Gate.Z q | Gate.H q | Gate.S q | Gate.Sdg q | Gate.T q
  | Gate.Tdg q
  | Gate.Rz (_, q) ->
      q
  | _ -> -1

(* A diagonal run becomes one sweep only if it contains at least this
   many 1-qubit phase gates. Those are the passes a sweep collapses;
   multi-qubit CZ/CCZ/MCZ kernels already touch only a 2^-k subset of
   amplitudes, so a run of bare CZs (hidden-shift oracles) or QFT's
   length-2 Rz runs is cheaper gate by gate. *)
let min_diag_run = 3

let is_diag = function
  | Gate.Z _ | Gate.S _ | Gate.Sdg _ | Gate.T _ | Gate.Tdg _ | Gate.Rz _ | Gate.Cz _
  | Gate.Ccz _ | Gate.Mcz _ ->
      true
  | _ -> false

(** [amplitude_damp s q ~gamma ~jump] applies one quantum-trajectory branch
    of the amplitude-damping (T1) channel on qubit [q]:
    with [jump] the excitation decays ([K1 = √γ |0⟩⟨1|]), otherwise the
    no-jump Kraus operator is applied; either way the state is
    renormalized. The caller samples [jump] with probability
    [γ · prob_of_qubit s q]. Cold path (noisy trajectories run at small
    widths), so it walks global indices through the accessors — the
    arithmetic is layout-independent. *)
let amplitude_damp s q ~gamma ~jump =
  let bit = 1 lsl q in
  let p1 = prob_of_qubit s q in
  if jump then begin
    let norm = sqrt (gamma *. p1) in
    if norm < 1e-300 then invalid_arg "Statevector.amplitude_damp: impossible jump";
    for x = 0 to size s - 1 do
      if x land bit = 0 then begin
        let y = x lor bit in
        set_re s x (sqrt gamma *. get_re s y /. norm);
        set_im s x (sqrt gamma *. get_im s y /. norm);
        set_re s y 0.;
        set_im s y 0.
      end
    done
  end
  else begin
    let keep = sqrt (1. -. gamma) in
    let norm = sqrt (1. -. (gamma *. p1)) in
    for x = 0 to size s - 1 do
      if x land bit <> 0 then begin
        set_re s x (keep *. get_re s x /. norm);
        set_im s x (keep *. get_im s x /. norm)
      end
      else begin
        set_re s x (get_re s x /. norm);
        set_im s x (get_im s x /. norm)
      end
    done
  end
