(* End-to-end benchmark over the paper's flow (algorithm -> reversible
   synthesis -> Clifford+T -> T-par -> simulator or noisy backend) and
   the multi-tenant service that wraps it.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   One process runs one workload. It sets the workload up several times
   (the median is [setup_s]), then runs operations until S seconds have
   passed, each from the same fresh state. Every operation's output is
   checked against a reference that does not come from the compiler,
   outside the timed region.

   [--trace 0] reports the end-to-end metrics, measured with telemetry
   off. [--trace 1] alternates untraced operations with staged ones: the
   benchmark calls each layer itself and times the call, with an Obs
   sink installed for counters (and, for the service, whose layer calls
   happen inside [Serve.run], for monotonic self time per span). It
   reports the per-layer metrics, per traced operation.

   The last line of stdout is one JSON object; the lines before it are a
   human-readable table. README.md defines every metric. *)

module Json = Obs.Json
module Hs = Core.Hidden_shift
module Flow = Core.Flow
module Pass = Core.Pass
module Sv = Qc.Statevector
module Noise = Qc.Noise
module Circuit = Qc.Circuit

(* ------------------------------------------------------------------ *)
(* Clocks, statistics, layer accumulators                              *)
(* ------------------------------------------------------------------ *)

(* Bechamel's monotonic clock: Obs and Pass stamp with gettimeofday,
   which can step. *)
let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let timed_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Totals of the traced operations, keyed by metric name. *)
let layers : (string, float) Hashtbl.t = Hashtbl.create 32
let total name = Option.value ~default:0. (Hashtbl.find_opt layers name)
let add name v = Hashtbl.replace layers name (total name +. v)
let addi name k = add name (float_of_int k)

(* [layer name f] times one call into a layer. *)
let layer name f =
  let r, ms = timed_ms f in
  add name ms;
  r

(* ------------------------------------------------------------------ *)
(* Obs sink                                                            *)
(* ------------------------------------------------------------------ *)

(* Span-name prefix -> layer time metric. A span with no entry belongs
   to the layer of its parent; a top-level span with no entry is
   unattributed. *)
let span_layers =
  [ ("qc.noise", "qc.noise.run_shots_ms");
    ("sv.plan", "sv.plan.build_ms");
    ("qc.statevector", "sv.replay_ms");
    ("core.pass.revsimp", "core.pass.revsimp_ms");
    ("core.pass.cliffordt", "core.pass.cliffordt_ms");
    ("qc.cliffordt", "core.pass.cliffordt_ms");
    ("core.pass.tpar", "core.pass.tpar_ms");
    ("qc.tpar", "core.pass.tpar_ms");
    ("core.pass.peephole", "core.pass.peephole_ms");
    ("rev.", "rev.synth_ms");
    ("cache.", "cache.ms");
    ("pq.", "pq.build_ms") ]

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let layer_of_span name =
  List.find_map
    (fun (prefix, metric) -> if starts_with ~prefix name then Some metric else None)
    span_layers

(* Records self time per layer on the monotonic clock, counter totals,
   span counts, per-shot error samples and the computed statevector
   traffic of planned runs. *)
module Sink = struct
  type frame = {
    metric : string option;
    t0 : int64;
    mutable child_ms : float;
    mutable fused_ops : int;
  }

  let main = Domain.self ()
  let stack : frame list ref = ref []
  let self_ms : (string, float) Hashtbl.t = Hashtbl.create 16
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32
  let spans : (string, int) Hashtbl.t = Hashtbl.create 32
  let top_level_ms = ref 0.
  let shots = ref 0
  let error_free = ref 0
  let sv_bytes = ref 0.

  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
  let bump tbl k v = Hashtbl.replace tbl k (get tbl k + v)
  let counter k = get counters k
  let span_count k = get spans k

  let emit = function
    (* Obs is single-domain; ignore anything a pool worker might send *)
    | _ when Domain.self () <> main -> ()
    | Obs.Span_begin { name; _ } ->
        let parent = match !stack with f :: _ -> f.metric | [] -> None in
        let metric = match layer_of_span name with Some m -> Some m | None -> parent in
        stack := { metric; t0 = now_ns (); child_ms = 0.; fused_ops = 0 } :: !stack
    | Obs.Span_end { name; attrs; _ } -> (
        match !stack with
        | [] -> ()
        | f :: rest ->
            let dur = ms_since f.t0 in
            stack := rest;
            bump spans name 1;
            let key = Option.value ~default:"layer.unattributed_ms" f.metric in
            Hashtbl.replace self_ms key
              (dur -. f.child_ms +. Option.value ~default:0. (Hashtbl.find_opt self_ms key));
            (match rest with
            | p :: _ -> p.child_ms <- p.child_ms +. dur
            | [] -> top_level_ms := !top_level_ms +. dur);
            match (name, List.assoc_opt "qubits" attrs) with
            | "qc.statevector.run", Some (Obs.Int q) ->
                (* computed, not measured: each kernel reads and writes
                   every amplitude once (16 B in, 16 B out) *)
                sv_bytes := !sv_bytes +. (float_of_int f.fused_ops *. Float.pow 2. (float_of_int q) *. 32.)
            | _ -> ())
    | Obs.Counter { name; delta; _ } -> (
        bump counters name delta;
        match (name, !stack) with
        | "qc.statevector.fused_ops", f :: _ -> f.fused_ops <- f.fused_ops + delta
        | _ -> ())
    | Obs.Sample { name = "qc.noise.errors_per_shot"; value; _ } ->
        incr shots;
        if value = 0. then incr error_free
    | Obs.Sample _ -> ()

  let with_sink f =
    Obs.set_sink (Some { Obs.emit });
    Fun.protect ~finally:(fun () -> Obs.set_sink None) f
end

(* ------------------------------------------------------------------ *)
(* Shared state and helpers                                            *)
(* ------------------------------------------------------------------ *)

(* The Par pool width. One domain: on a small shared host a stolen vCPU
   stalls every barrier of a wider pool, which made operation walls
   swing by 2x where single-domain runs stayed within 10%. *)
let jobs = 1

(* Every operation starts from the same state: empty compile caches
   (disk persistence is never enabled here), no cached plans, no
   memoized noiseless sampler. *)
let fresh () =
  Cache.clear_memory ();
  Cache.reset_stats ();
  Sv.clear_plan_cache ();
  Noise.sampler_memo := None

let add_cache_tallies () =
  List.iter
    (fun (r : Cache.stats_row) ->
      addi "cache.hits" r.Cache.hits;
      addi "cache.misses" r.Cache.misses)
    (Cache.stats ())

let two_qubit_gates c =
  Circuit.fold (fun acc g -> if List.length (Qc.Gate.qubits g) = 2 then acc + 1 else acc) 0 c

(* [basis_image c ~input] simulates [c] from the basis state [input];
   [None] when the result is not a basis state. *)
let basis_image c ~input =
  let s = Sv.init (Circuit.num_qubits c) in
  Sv.set_re s 0 0.;
  Sv.set_re s input 1.;
  Sv.run_on s c;
  let out = Sv.most_likely s in
  if Sv.is_basis_state ~eps:1e-6 s out then Some out else None

let failf fmt = Printf.ksprintf (fun s -> [ s ]) fmt

(* [with_cache_off f] computes [f ()] from scratch, as a reference. *)
let with_cache_off f =
  Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Cache.set_enabled true) f

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One prepared workload. [op] runs one timed operation and returns its
   output check, which runs untimed; [traced_op] does the same work layer
   by layer. *)
type ctx = {
  op : unit -> unit -> string list;
  traced_op : unit -> unit -> string list;
  (* share of the attempted requests that were served (1 where every
     operation is a single job) *)
  ok_share : unit -> float;
  (* workload-specific rows (name, value, unit), given the untraced
     operation walls in ms *)
  rows : float list -> (string * float * string) list;
  (* layer times come from the Obs spans (calls inside the program)
     rather than from the benchmark's own timers *)
  layers_from_spans : bool;
  (* check over all of the run's outputs, after the last operation *)
  finish : unit -> string list;
}

(* --- hs_ip_noisy: Fig. 6 ------------------------------------------ *)

let ip_noisy seed =
  let st = Random.State.make [| seed; 1 |] in
  let n = 8 in
  (* a shift of Hamming weight n: the shift's X gates are the only
     seed-dependent gates, so every seed builds the same gate count *)
  let bits = Array.init (2 * n) (fun i -> i < n) in
  for i = (2 * n) - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = bits.(i) in
    bits.(i) <- bits.(j);
    bits.(j) <- t
  done;
  let s = Array.fold_left (fun acc b -> (acc lsl 1) lor Bool.to_int b) 0 bits in
  let circuit = Hs.build (Hs.Inner_product { n; s }) in
  (* one operation is a 64-shot batch; sixteen of them make the paper's
     1024-shot experiment *)
  let shots = 64 in
  let batch = ref 0 in
  let merged = Noise.counts_make (2 * n) in
  let run () =
    incr batch;
    Noise.run_shots ~seed:((seed * 7919) + !batch) ~jobs Noise.ibm_qx2017 circuit ~shots
  in
  let check counts () =
    ignore (Noise.counts_merge merged counts);
    let got = Noise.total_counts counts in
    if got <> shots then failf "hs_ip_noisy: histogram holds %d shots, not %d" got shots else []
  in
  (* The modal outcome is checked on the run's merged histogram, as the
     paper reads its 1024-shot one: in a single 64-shot batch (about ten
     shots land on the shift) another outcome overtakes it about once in
     a few hundred batches. *)
  let finish () =
    let modal, _ =
      List.fold_left
        (fun (bx, bk) (x, c) -> if c > bk then (x, c) else (bx, bk))
        (-1, -1) (Noise.counts_to_alist merged)
    in
    if modal <> s then failf "hs_ip_noisy: modal outcome %d, planted shift %d" modal s else []
  in
  { op = (fun () -> check (run ()));
    traced_op =
      (fun () ->
        addi "out.gates_2q" (two_qubit_gates circuit);
        check (layer "qc.noise.run_shots_ms" run));
    ok_share = (fun () -> 1.);
    rows =
      (fun walls ->
        [ ("shots_per_s", float_of_int shots /. (median walls /. 1e3), "1/s");
          ("shots_total", float_of_int (Noise.total_counts merged), "count");
          ("shift_share", Noise.success_probability merged s, "share");
          ("gates_2q", float_of_int (two_qubit_gates circuit), "count");
          ("t_count", float_of_int (Circuit.t_count circuit), "count") ]);
    layers_from_spans = false;
    finish }

(* --- hs_mm_flow: Figs. 7/8 ---------------------------------------- *)

let mm_flow seed =
  let st = Random.State.make [| seed; 2 |] in
  (* one operation = one n = 5 (12q) and one n = 6 (15q) instance; a run
     cycles through these pairs *)
  let pool =
    Array.init 12 (fun _ ->
        let a = Hs.random_mm_instance st 5 in
        [ a; Hs.random_mm_instance st 6 ])
  in
  let k = ref 0 in
  let next () =
    incr k;
    pool.((!k - 1) mod Array.length pool)
  in
  let check_state inst sv () =
    let out = Sv.most_likely sv and want = Hs.shift inst in
    if out <> want then failf "hs_mm_flow: most likely %d, planted shift %d" out want
    else if not (Sv.is_basis_state ~eps:1e-6 sv out) then
      failf "hs_mm_flow: final state is not a basis state"
    else []
  in
  let ops = ref 0 and t_count = ref 0 and g2 = ref 0 in
  let op () =
    let done_ =
      List.map
        (fun inst ->
          let c, _ancillae = Hs.build_compiled inst in
          (inst, c, Sv.run c))
        (next ())
    in
    fun () ->
      incr ops;
      List.concat_map
        (fun (inst, c, sv) ->
          t_count := !t_count + Circuit.t_count c;
          g2 := !g2 + two_qubit_gates c;
          check_state inst sv ())
        done_
  in
  let staged inst =
    let mm = match inst with Hs.Mm { mm; _ } -> mm | _ -> assert false in
    (* synthesis first: the engine build then replays it from the cache,
       as the build's second oracle always does *)
    let rc =
      layer "rev.synth_ms" (fun () -> Pq.Oracles.synthesize Pq.Oracles.Tbs mm.Logic.Bent.pi)
    in
    addi "rev.gates" (Rev.Rcircuit.num_gates rc);
    let c = layer "pq.build_ms" (fun () -> Hs.build inst) in
    let mapped, _ = layer "core.pass.cliffordt_ms" (fun () -> Qc.Clifford_t.compile c) in
    let final, trace =
      layer "core.pass.tpar_ms" (fun () -> Pass.run_qc [ Pass.find "tpar" ] mapped)
    in
    let builds0 = Sink.span_count "sv.plan.build" in
    let plan = layer "sv.plan.build_ms" (fun () -> Sv.plan_of_circuit final) in
    let builds1 = Sink.span_count "sv.plan.build" in
    let replays1 = Sink.counter "sv.plan.replay" in
    let kernels1 = Sink.counter "qc.statevector.fused_ops" in
    let sv = layer "sv.replay_ms" (fun () -> Sv.run final) in
    (* the run must replay exactly the plan plan_of_circuit just built *)
    let replayed =
      builds1 = builds0 + 1
      && Sink.span_count "sv.plan.build" = builds1
      && Sink.counter "sv.plan.replay" = replays1 + 1
      && Sink.counter "qc.statevector.fused_ops" - kernels1 = Array.length plan.Sv.Plan.ops
    in
    (match Pass.tpar_report trace with
    | Some r -> addi "qc.tpar.t_removed" (r.Qc.Tpar.t_before - r.Qc.Tpar.t_after)
    | None -> ());
    (inst, final, sv, replayed)
  in
  let traced_op () =
    let done_ = List.map staged (next ()) in
    fun () ->
      List.concat_map
        (fun (inst, final, sv, replayed) ->
          addi "out.t_count" (Circuit.t_count final);
          addi "out.gates_2q" (two_qubit_gates final);
          (* the staged calls must produce what the flow produces *)
          let reference = with_cache_off (fun () -> fst (Hs.build_compiled inst)) in
          (if Circuit.structural_key reference <> Circuit.structural_key final then
             failf "hs_mm_flow: staged compile differs from Hidden_shift.build_compiled"
           else [])
          @ (if not replayed then
               failf "hs_mm_flow: Statevector.run did not replay the plan just built"
             else [])
          @ check_state inst sv ())
        done_
  in
  let per_op r = float_of_int !r /. float_of_int (max 1 !ops) in
  { op;
    traced_op;
    ok_share = (fun () -> 1.);
    rows =
      (fun walls ->
        [ ("instances_per_s", 2. /. (median walls /. 1e3), "1/s");
          ("t_count", per_op t_count, "count/op");
          ("gates_2q", per_op g2, "count/op") ]);
    layers_from_spans = false;
    finish = (fun () -> []) }

(* --- oracle_compile: Eq. (5) from a cold cache -------------------- *)

type member = {
  label : string;
  spec : Flow.spec;
  options : Flow.options;
  xag_ref : int -> bool; (* the arithmetic reference of an XAG member *)
}

let oracle_set st =
  let m ?(options = Flow.default) label spec =
    { label; spec; options; xag_ref = (fun _ -> false) }
  in
  let esop = { Flow.default with synth = Flow.Esop } in
  let k = (1 lsl 31) + Random.State.bits st in
  [ m "hwb6" (Flow.Perm_spec (Logic.Funcgen.hwb 6));
    m "hwb7" (Flow.Perm_spec (Logic.Funcgen.hwb 7));
    m "perm5_tbs" (Flow.Perm_spec (Logic.Perm.random st 5));
    m "perm6_dbs"
      ~options:{ Flow.default with synth = Flow.Dbs }
      (Flow.Perm_spec (Logic.Perm.random st 6));
    m "bent6" ~options:esop
      (Flow.Fn_spec [ Logic.Bent.mm_function (Logic.Bent.random_mm st 3) ]);
    m "maj7" ~options:esop (Flow.Fn_spec [ Logic.Funcgen.majority 7 ]);
    m "thr8_4" ~options:esop (Flow.Fn_spec [ Logic.Funcgen.threshold 8 4 ]);
    { (m "ltconst32" (Flow.Xag_spec (Rev.Arith.xag_less_than_const 32 ~k))) with
      xag_ref = (fun x -> x < k) } ]

let compile_member m =
  match m.spec with
  | Flow.Perm_spec p -> Flow.compile_perm ~options:m.options p
  | Flow.Fn_spec fs -> Flow.compile_function ~options:m.options fs
  | Flow.Xag_spec g -> Flow.compile_xag ~options:m.options g

(* the lines a spec needs before any ancilla *)
let data_lines = function
  | Flow.Perm_spec p -> Logic.Perm.num_vars p
  | Flow.Fn_spec fs -> Logic.Truth_table.num_vars (List.hd fs) + List.length fs
  | Flow.Xag_spec g -> Rev.Xag.num_inputs g + List.length (Rev.Xag.outputs g)

(* Output check against the specification: basis-state simulation of
   the compiled circuit (every input when cheap, eight seeded inputs
   otherwise), and for the 32-bit XAG member sampled bit-level
   simulation of the reversible layer against the arithmetic. *)
let verify_member st m c =
  let basis_check n want =
    let inputs =
      if n + Circuit.num_qubits c <= 14 then List.init (1 lsl n) Fun.id
      else List.init 8 (fun _ -> Random.State.int st (1 lsl n))
    in
    List.concat_map
      (fun x ->
        match basis_image c ~input:x with
        | Some y when y = want x -> []
        | _ -> failf "oracle_compile %s: input %d does not map to %d" m.label x (want x))
      inputs
  in
  match m.spec with
  | Flow.Perm_spec p -> basis_check (Logic.Perm.num_vars p) (Logic.Perm.apply p)
  | Flow.Fn_spec fs ->
      let n = Logic.Truth_table.num_vars (List.hd fs) in
      basis_check n (fun x ->
          List.fold_left
            (fun (acc, j) f ->
              ((if Logic.Truth_table.get f x then acc lor (1 lsl (n + j)) else acc), j + 1))
            (x, 0) fs
          |> fst)
  | Flow.Xag_spec g ->
      let rc, layout = Rev.Lut_synth.synth ~k:4 g in
      let n = layout.Rev.Lut_synth.n in
      List.concat_map
        (fun _ ->
          let x = Random.State.bits st lor (Random.State.int st 4 lsl 30) in
          let out = Rev.Rsim.run rc x and want = x lor (Bool.to_int (m.xag_ref x) lsl n) in
          if out <> want then
            failf "oracle_compile %s: input %d gives %d, not %d" m.label x out want
          else [])
        (List.init 256 Fun.id)

(* The flow of Flow.compile_*, one stage at a time. *)
let staged_compile m =
  let rc =
    layer "rev.synth_ms" (fun () ->
        match m.spec with
        | Flow.Perm_spec p -> Flow.synthesize_perm m.options p
        | Flow.Fn_spec fs -> Rev.Synth_cache.esop fs
        | Flow.Xag_spec g ->
            Rev.Synth_cache.xag ~k:4 (fun g -> fst (Rev.Lut_synth.synth ~k:4 g)) g)
  in
  addi "rev.gates" (Rev.Rcircuit.num_gates rc);
  let pipeline = Flow.pipeline_of_options m.options in
  let metric (p : Pass.t) = "core.pass." ^ p.Pass.name ^ "_ms" in
  let rc =
    List.fold_left
      (fun rc (p : Pass.t) ->
        match p.Pass.kind with
        | Pass.Rev_pass f -> fst (layer (metric p) (fun () -> f rc))
        | _ -> assert false)
      rc pipeline.Pass.rev_passes
  in
  let c =
    match pipeline.Pass.lower.Pass.kind with
    | Pass.Lower f -> fst (fst (layer "core.pass.cliffordt_ms" (fun () -> f rc)))
    | _ -> assert false
  in
  List.fold_left
    (fun c (p : Pass.t) ->
      match p.Pass.kind with
      | Pass.Qc_pass f ->
          let c', detail = layer (metric p) (fun () -> f c) in
          (match detail with
          | Some (Pass.Tpar r) -> addi "qc.tpar.t_removed" (r.Qc.Tpar.t_before - r.Qc.Tpar.t_after)
          | _ -> ());
          if p.Pass.name = "peephole" then
            addi "qc.opt.gates_removed" (Circuit.num_gates c - Circuit.num_gates c');
          c'
      | _ -> assert false)
    c pipeline.Pass.qc_passes

let oracle_compile seed =
  let st = Random.State.make [| seed; 3 |] in
  let members = oracle_set st in
  let check_st = Random.State.make [| seed; 4 |] in
  let member_ms = Hashtbl.create 8 in
  let quality (m, c) =
    [ Circuit.t_count c; two_qubit_gates c; Circuit.num_qubits c - data_lines m.spec ]
  in
  (* The first operation's outputs are verified against the specs; every
     later one, staged or not, must reproduce them exactly. *)
  let first = ref None in
  let check outs () =
    let keys = List.map (fun (_, c) -> Circuit.structural_key c) outs in
    match !first with
    | None ->
        first := Some (keys, List.fold_left (List.map2 ( + )) [ 0; 0; 0 ] (List.map quality outs));
        List.concat_map (fun (m, c) -> verify_member check_st m c) outs
    | Some (keys0, _) ->
        List.concat
          (List.map2
             (fun ((m, _), k) k0 ->
               if k <> k0 then failf "oracle_compile %s: output differs from the first" m.label
               else [])
             (List.combine outs keys) keys0)
  in
  let op () =
    check
      (List.map
         (fun m ->
           fresh ();
           let (c, _report), ms = timed_ms (fun () -> compile_member m) in
           Hashtbl.replace member_ms m.label
             (ms :: Option.value ~default:[] (Hashtbl.find_opt member_ms m.label));
           (m, c))
         members)
  in
  let traced_op () =
    let outs =
      List.map
        (fun m ->
          fresh ();
          let c = staged_compile m in
          add_cache_tallies ();
          (m, c))
        members
    in
    fun () ->
      List.iter
        (fun out ->
          List.iter2 addi [ "out.t_count"; "out.gates_2q"; "out.ancillae" ] (quality out))
        outs;
      (* untraced operations ran Flow.compile_*; the staged calls must
         reproduce their outputs *)
      check outs ()
  in
  let member_median m = median (Hashtbl.find member_ms m.label) in
  { op;
    traced_op;
    ok_share = (fun () -> 1.);
    rows =
      (fun _walls ->
        let q = match !first with Some (_, q) -> q | None -> [ 0; 0; 0 ] in
        [ ("compile_ms_geomean", geomean (List.map member_median members), "ms") ]
        @ List.map2 (fun name v -> (name, float_of_int v, "count")) [ "t_count"; "gates_2q"; "ancillae" ] q
        @ List.map (fun m -> ("compile_ms." ^ m.label, member_median m, "ms")) members);
    layers_from_spans = false;
    finish = (fun () -> []) }

(* --- serve_mixed: the multi-tenant service ------------------------ *)

(* The arrival trace is the load generator's default one; [seed] seeds
   the service, which derives every job's execution seed (the noise
   streams) from it. A seeded trace would set the wall time by how many
   17-qubit noisy requests it happens to hold: 1 to 10 of 240 over seeds
   1-20, several seconds each. *)
let serve_mixed seed =
  let load = { Serve.Load.default with requests = 240 } in
  let arrivals = Serve.Load.trace load in
  let cfg = { (Serve.default_config ~tenants:load.Serve.Load.tenants) with seed } in
  let requests = load.Serve.Load.requests in
  let last = ref None and digest0 = ref None in
  let check (s : Serve.summary) () =
    last := Some s;
    let settled = s.Serve.n_validated + s.Serve.n_degraded + s.Serve.n_shed + s.Serve.n_deadline in
    let d = Serve.results_digest s in
    (if settled <> requests || Array.length s.Serve.results <> requests then
       failf "serve_mixed: verdicts of %d of %d requests" settled requests
     else [])
    @
    match !digest0 with
    | None ->
        digest0 := Some d;
        []
    | Some d0 when d0 = d -> []
    | Some _ -> failf "serve_mixed: results digest differs between operations"
  in
  let get f = match !last with Some s -> float_of_int (f s) | None -> nan in
  let share f = get f /. float_of_int requests in
  let traced_op () =
    let s, ms = timed_ms (fun () -> Serve.run ~jobs cfg arrivals) in
    add_cache_tallies ();
    addi "serve.compiles" s.Serve.compiles;
    addi "serve.coalesce_hits" s.Serve.coalesce_hits;
    add "serve.virtual_ms" (s.Serve.virtual_us /. 1e3);
    add "serve.wall_ms" ms;
    check s
  in
  { op = (fun () -> check (Serve.run ~jobs cfg arrivals));
    traced_op;
    ok_share = (fun () -> share (fun s -> s.Serve.n_validated + s.Serve.n_degraded));
    rows =
      (fun walls ->
        [ ("requests_per_s", float_of_int requests /. (median walls /. 1e3), "1/s");
          ("refused_share", share (fun s -> s.Serve.n_shed + s.Serve.n_deadline), "share");
          ("validated", get (fun s -> s.Serve.n_validated), "count");
          ("degraded", get (fun s -> s.Serve.n_degraded), "count");
          ("shed", get (fun s -> s.Serve.n_shed), "count");
          ("deadline", get (fun s -> s.Serve.n_deadline), "count");
          ("compiles", get (fun s -> s.Serve.compiles), "count");
          ("coalesce_hits", get (fun s -> s.Serve.coalesce_hits), "count") ]);
    layers_from_spans = true;
    finish = (fun () -> []) }

let workloads =
  [ ("hs_ip_noisy", ip_noisy);
    ("hs_mm_flow", mm_flow);
    ("oracle_compile", oracle_compile);
    ("serve_mixed", serve_mixed) ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* values are per traced operation *)
let per_layer =
  [ ("layer.traced_wall_ms", "ms");
    ("layer.unattributed_ms", "ms");
    ("obs.trace_overhead", "ratio");
    ("qc.noise.run_shots_ms", "ms");
    ("qc.noise.us_per_shot", "us");
    ("qc.noise.error_free_share", "share");
    ("qc.noise.errors_injected", "count");
    ("sv.plan.build_ms", "ms");
    ("sv.replay_ms", "ms");
    ("sv.plan.kernels", "count");
    ("sv.plan.gates_per_kernel", "gates");
    ("sv.bytes_moved_gb", "GB");
    ("pq.build_ms", "ms");
    ("rev.synth_ms", "ms");
    ("rev.gates", "count");
    ("core.pass.revsimp_ms", "ms");
    ("core.pass.cliffordt_ms", "ms");
    ("core.pass.tpar_ms", "ms");
    ("core.pass.peephole_ms", "ms");
    ("qc.tpar.t_removed", "count");
    ("qc.opt.gates_removed", "count");
    ("cache.ms", "ms");
    ("cache.hit_ratio", "share");
    ("cache.misses", "count");
    ("serve.sched_ms", "ms");
    ("serve.coalesce_hit_rate", "share");
    ("serve.compiles", "count");
    ("serve.cost_model_ratio", "ratio");
    ("out.t_count", "count");
    ("out.gates_2q", "count");
    ("out.ancillae", "count") ]

(* The layer times that, with layer.unattributed_ms, partition the
   traced wall time. *)
let time_layers =
  [ "qc.noise.run_shots_ms"; "sv.plan.build_ms"; "sv.replay_ms"; "pq.build_ms"; "rev.synth_ms";
    "core.pass.revsimp_ms"; "core.pass.cliffordt_ms"; "core.pass.tpar_ms";
    "core.pass.peephole_ms"; "cache.ms"; "serve.sched_ms" ]

(* Peak resident set (VmHWM); the OCaml heap's peak where /proc is
   missing. *)
let peak_mem_mb () =
  let vm_hwm () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | Some line when starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
          | Some _ -> scan ()
          | None -> raise Not_found
        in
        scan ())
  in
  try vm_hwm ()
  with Sys_error _ | Not_found ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let setup_reps = 21

(* Run operations until [seconds] have passed (at least one of each
   kind), each from fresh state: untraced ones only, or untraced and
   traced ones alternating, so that drift in the host's speed reaches
   both alike. Each output check runs right after its operation, untimed,
   and the run's [finish] check after the last one. Returns the untraced
   and traced walls (ms) and the failed checks. *)
let measure ~seconds ~traced ctx =
  let t0 = now_ns () in
  let walls = ref [] and twalls = ref [] and failed = ref 0 and msgs = ref [] in
  let run_check check =
    match check () with
    | [] -> ()
    | m ->
        incr failed;
        msgs := !msgs @ m
    | exception e ->
        incr failed;
        msgs := !msgs @ [ Printexc.to_string e ]
  in
  let want_traced () = traced && List.length !twalls < List.length !walls in
  while !walls = [] || want_traced () || ms_since t0 < seconds *. 1e3 do
    fresh ();
    if want_traced () then begin
      let check, ms = Sink.with_sink (fun () -> timed_ms ctx.traced_op) in
      twalls := ms :: !twalls;
      run_check check
    end
    else begin
      let check, ms = timed_ms ctx.op in
      walls := ms :: !walls;
      run_check check
    end
  done;
  run_check ctx.finish;
  (List.rev !walls, List.rev !twalls, !failed, !msgs)

let print_row (name, v, unit) = Printf.printf "  %-28s %16.6g %s\n" name v unit

(* End-to-end metrics, from untraced operations. *)
let run_untraced ctx ~seconds ~setup_ms =
  let walls, _, failed, msgs = measure ~seconds ~traced:false ctx in
  let ops = List.length walls in
  let values =
    [ ("setup_s", setup_ms /. 1e3, "s");
      ("wall_s", median walls /. 1e3, "s");
      ("peak_mem_mb", peak_mem_mb (), "MB");
      ("ok_share", ctx.ok_share (), "share") ]
  in
  List.iter print_row values;
  Printf.printf "  %-28s %16d ops (min %.1f ms, max %.1f ms)\n" "samples" ops
    (List.fold_left Float.min infinity walls)
    (List.fold_left Float.max neg_infinity walls);
  List.iter print_row (ctx.rows walls);
  (* operations failed or refused, over operations attempted *)
  print_row ("fail_share", float_of_int failed /. float_of_int ops +. (1. -. ctx.ok_share ()), "share");
  (ops, failed, msgs, values)

(* Per-layer metrics, per traced operation. *)
let run_traced ctx ~seconds =
  Hashtbl.reset layers;
  let walls, twalls, failed, msgs = measure ~seconds ~traced:true ctx in
  if ctx.layers_from_spans then begin
    Hashtbl.iter add Sink.self_ms;
    (* scheduling: Serve.run time outside every top-level span *)
    add "serve.sched_ms" (total "serve.wall_ms" -. !Sink.top_level_ms)
  end;
  let traced_ms = List.fold_left ( +. ) 0. twalls in
  let n = float_of_int (List.length twalls) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let counter name = float_of_int (Sink.counter name) /. n in
  let shots = float_of_int !Sink.shots in
  let attributed = List.fold_left (fun acc k -> acc +. total k) 0. time_layers in
  let value = function
    | "layer.traced_wall_ms" -> traced_ms /. n
    | "layer.unattributed_ms" -> (traced_ms -. attributed) /. n
    | "obs.trace_overhead" -> median twalls /. median walls
    | "qc.noise.us_per_shot" -> ratio (total "qc.noise.run_shots_ms" *. 1e3) shots
    | "qc.noise.error_free_share" -> ratio (float_of_int !Sink.error_free) shots
    | "qc.noise.errors_injected" -> counter "qc.noise.errors_injected"
    | "sv.plan.kernels" -> counter "qc.statevector.fused_ops"
    | "sv.plan.gates_per_kernel" ->
        ratio (counter "qc.statevector.gates_applied") (counter "qc.statevector.fused_ops")
    | "sv.bytes_moved_gb" -> !Sink.sv_bytes /. 1e9 /. n
    | "cache.hit_ratio" -> ratio (total "cache.hits") (total "cache.hits" +. total "cache.misses")
    | "serve.coalesce_hit_rate" ->
        ratio (total "serve.coalesce_hits") (total "serve.coalesce_hits" +. total "serve.compiles")
    | "serve.cost_model_ratio" -> ratio (total "serve.wall_ms") (total "serve.virtual_ms")
    | name -> total name /. n
  in
  let values = List.map (fun (name, unit) -> (name, value name, unit)) per_layer in
  List.iter print_row values;
  Printf.printf "  %-28s %16d untraced + %d traced ops\n" "samples" (List.length walls)
    (List.length twalls);
  (List.length walls + List.length twalls, failed, msgs, values)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline
          ("bench: unknown workload '" ^ !workload ^ "' (expected "
          ^ String.concat " | " (List.map fst workloads)
          ^ ")");
        exit 2
  in
  Par.set_default_jobs jobs;
  (* set-up: state reset and the inputs generated from the seed *)
  let setups = List.init setup_reps (fun _ -> timed_ms (fun () -> fresh (); make !seed)) in
  let ctx = fst (List.hd setups) in
  let setup_ms = median (List.map snd setups) in
  Printf.printf "workload %s  seed %d  jobs %d  seconds %g  trace %d\n" !workload !seed jobs
    !seconds !trace;
  let attempted, failed, msgs, metrics =
    if !trace = 0 then run_untraced ctx ~seconds:!seconds ~setup_ms
    else run_traced ctx ~seconds:!seconds
  in
  List.iter (Printf.printf "CHECK FAILED: %s\n") msgs;
  let metric (name, v, unit) = (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.String unit) ]) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj (List.map metric metrics)) ]))
