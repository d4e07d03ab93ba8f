(** The pass-manager IR behind the compile flow.

    Real design-automation stacks (RevKit, the MQT family) are organized
    as {e pass pipelines} over a common IR rather than hand-wired call
    sequences. This module provides that architecture for the paper's
    Fig. 2 flow:

    - a {!t} ("pass") is a named circuit transformation of one of three
      typed kinds: reversible-layer ([Rcircuit -> Rcircuit]),
      quantum-layer ([Circuit -> Circuit]), or the Clifford+T {e lowering}
      boundary between the two;
    - a {!pipeline} is a validated sequence [rev passes; lowering;
      qc passes];
    - a global {e registry} maps pass names (with optional [name:arg]
      parameters) to implementations, so pipelines are describable as
      spec strings like ["revsimp;cliffordt;tpar;peephole"];
    - {!run} executes a pipeline with built-in instrumentation: per-pass
      wall-clock time and before/after gate statistics are recorded into
      a structured {!trace}.

    {!Flow} builds its public report from the trace; the shell and the
    [bin/] CLIs parse spec strings; new optimizations become drop-in
    [register] calls instead of flow surgery. *)

exception Spec_error of string
(** Malformed pipeline spec; the message names the offending token. *)

let failf fmt = Printf.ksprintf (fun s -> raise (Spec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(** Before/after measurement of the circuit a pass saw: reversible-layer
    passes snapshot MCT statistics, quantum-layer passes snapshot
    Clifford+T resources. The lowering entry has a [Rev_snap] before and
    a [Qc_snap] after. *)
type snapshot =
  | Rev_snap of Rev.Rcircuit.stats
  | Qc_snap of Qc.Resource.t

(** Structured pass-specific findings, beyond the generic snapshots. *)
type detail =
  | Tpar of Qc.Tpar.report
  | Routed of { swaps : int; final_placement : int array }
  | Note of string

type kind =
  | Rev_pass of (Rev.Rcircuit.t -> Rev.Rcircuit.t * detail option)
  | Lower of (Rev.Rcircuit.t -> (Qc.Circuit.t * int) * detail option)
      (** the typed stage boundary; the [int] is the ancilla count added *)
  | Qc_pass of (Qc.Circuit.t -> Qc.Circuit.t * detail option)

type t = { name : string; doc : string; kind : kind }

let layer_of = function
  | Rev_pass _ -> "reversible"
  | Lower _ -> "lowering"
  | Qc_pass _ -> "quantum"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* name -> (doc, constructor taking the optional ":arg" parameter) *)
let registry : (string, string * (string option -> t)) Hashtbl.t = Hashtbl.create 16

(** [register ~name ~doc make] puts a pass constructor in the registry.
    [make] receives the optional argument of a [name:arg] spec token. *)
let register ~name ~doc make = Hashtbl.replace registry name (doc, make)

let names () =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) registry [])

(** [catalog ()] lists [(name, doc)] pairs, for help screens. *)
let catalog () =
  List.map (fun name -> (name, fst (Hashtbl.find registry name))) (names ())

let no_arg name = function
  | None -> ()
  | Some a -> failf "pass %s takes no argument (got %s)" name a

(** [find ?arg name] instantiates the registered pass [name]. Raises
    {!Spec_error} naming the token if unknown or misparametrized. *)
let find ?arg name =
  match Hashtbl.find_opt registry name with
  | Some (_, make) -> make arg
  | None -> failf "unknown pass %s (known: %s)" name (String.concat ", " (names ()))

(* --- built-in passes: the existing transforms, wrapped --- *)

let simple_rev ~name ~doc f =
  register ~name ~doc (fun arg ->
      no_arg name arg;
      { name; doc; kind = Rev_pass (fun rc -> (f rc, None)) })

let simple_qc ~name ~doc f =
  register ~name ~doc (fun arg ->
      no_arg name arg;
      { name; doc; kind = Qc_pass (fun c -> (f c, None)) })

let () =
  simple_rev ~name:"revsimp" ~doc:"MCT-cascade rewriting to a fixpoint (adjacent merge/cancel)"
    Rev.Rsimp.simplify;
  simple_rev ~name:"resynth" ~doc:"window resynthesis of the MCT cascade" Rev.Resynth.optimize;
  let cliffordt_doc =
    "lower MCT to Clifford+T (the stage boundary); cliffordt:no-rccx disables \
     relative-phase Toffolis"
  in
  let make_cliffordt arg =
    let rccx =
      match arg with
      | None | Some "rccx" -> true
      | Some "no-rccx" -> false
      | Some other -> failf "cliffordt: unknown argument %s (expected rccx | no-rccx)" other
    in
    let options = { Qc.Clifford_t.default_options with rccx_ladder = rccx } in
    { name = (if rccx then "cliffordt" else "cliffordt:no-rccx");
      doc = cliffordt_doc;
      kind = Lower (fun rc -> (Qc.Clifford_t.compile_rcircuit ~options rc, None)) }
  in
  register ~name:"cliffordt" ~doc:cliffordt_doc make_cliffordt;
  (* the paper-facing synonym used in prose and in the MQT-style spelling *)
  register ~name:"clifford_t" ~doc:cliffordt_doc make_cliffordt;
  register ~name:"tpar" ~doc:"T-par phase folding (T-count / T-depth reduction)" (fun arg ->
      no_arg "tpar" arg;
      { name = "tpar";
        doc = "T-par phase folding";
        kind =
          Qc_pass
            (fun c ->
              let c', rep = Qc.Tpar.optimize_report c in
              (c', Some (Tpar rep))) });
  simple_qc ~name:"peephole" ~doc:"adjacent-gate cancellation and rotation fusion to a fixpoint"
    Qc.Opt.simplify;
  register ~name:"route" ~doc:"linear-nearest-neighbour SWAP insertion" (fun arg ->
      no_arg "route" arg;
      { name = "route";
        doc = "LNN routing";
        kind =
          Qc_pass
            (fun c ->
              let r = Qc.Route.lnn c in
              ( r.Qc.Route.circuit,
                Some
                  (Routed
                     { swaps = r.Qc.Route.swaps_inserted;
                       final_placement = r.Qc.Route.final_placement }) )) })

(* ------------------------------------------------------------------ *)
(* Pipelines                                                           *)
(* ------------------------------------------------------------------ *)

type pipeline = {
  rev_passes : t list; (* all [Rev_pass] *)
  lower : t; (* the single [Lower] boundary *)
  qc_passes : t list; (* all [Qc_pass] *)
}

let default_lower () = find "cliffordt"

(** [of_passes ps] validates the stage ordering [rev*; lower?; qc*] and
    assembles a pipeline; a missing lowering gets the default [cliffordt]
    boundary inserted. Raises {!Spec_error} naming the out-of-place
    pass. *)
let of_passes passes =
  let rev_ps, lower, qc_ps =
    List.fold_left
      (fun (rev_ps, lower, qc_ps) p ->
        match (p.kind, lower, qc_ps) with
        | Rev_pass _, None, [] -> (p :: rev_ps, lower, qc_ps)
        | Rev_pass _, _, _ ->
            failf "%s: reversible-layer pass after the lowering boundary" p.name
        | Lower _, Some l, _ ->
            failf "%s: second lowering boundary (already have %s)" p.name l.name
        | Lower _, None, _ :: _ ->
            failf "%s: lowering boundary after a quantum-layer pass" p.name
        | Lower _, None, [] -> (rev_ps, Some p, qc_ps)
        | Qc_pass _, _, _ -> (rev_ps, lower, p :: qc_ps))
      ([], None, []) passes
  in
  { rev_passes = List.rev rev_ps;
    lower = (match lower with Some l -> l | None -> default_lower ());
    qc_passes = List.rev qc_ps }

let passes p = p.rev_passes @ (p.lower :: p.qc_passes)

(** [to_spec p] renders the pipeline back to its spec string;
    [parse (to_spec p)] reconstructs [p]. *)
let to_spec p = String.concat ";" (List.map (fun pass -> pass.name) (passes p))

let pass_of_token tok =
  match String.index_opt tok ':' with
  | None -> find tok
  | Some i ->
      find
        ~arg:(String.sub tok (i + 1) (String.length tok - i - 1))
        (String.sub tok 0 i)

(* Spec tokens: pass names separated by ';' or ',' — commas let specs live
   inside shell command lines where ';' separates commands. *)
let tokens_of_spec spec =
  String.split_on_char ';' spec
  |> List.concat_map (String.split_on_char ',')
  |> List.map String.trim
  |> List.filter (fun t -> t <> "")

(** [parse spec] reads a pipeline spec string: pass tokens (optionally
    parametrized as [name:arg]) separated by [';'] or [',']. Raises
    {!Spec_error} naming the offending token. *)
let parse spec =
  match tokens_of_spec spec with
  | [] -> failf "empty pipeline spec"
  | tokens -> of_passes (List.map pass_of_token tokens)

(** [parse_qc spec] parses a quantum-layer-only pass list (no lowering,
    no reversible passes) — the form [qasm-tool] and the hidden-shift CLI
    apply to circuits that are already Clifford+T. *)
let parse_qc spec =
  match tokens_of_spec spec with
  | [] -> failf "empty pipeline spec"
  | tokens ->
      List.map
        (fun tok ->
          let p = pass_of_token tok in
          match p.kind with
          | Qc_pass _ -> p
          | Rev_pass _ ->
              failf "%s: reversible-layer pass cannot run on a quantum circuit" p.name
          | Lower _ -> failf "%s: lowering cannot run on an already-lowered circuit" p.name)
        tokens

(* ------------------------------------------------------------------ *)
(* Instrumented execution                                              *)
(* ------------------------------------------------------------------ *)

(** One trace entry per executed pass. *)
type entry = {
  pass_name : string;
  layer : string; (* "reversible" | "lowering" | "quantum" *)
  elapsed : float; (* wall-clock seconds *)
  before : snapshot;
  after : snapshot;
  ancillae_added : int; (* nonzero only at the lowering boundary *)
  detail : detail option;
}

type trace = entry list
(** In execution order. *)

type result = {
  rev : Rev.Rcircuit.t; (* after the reversible layer *)
  circuit : Qc.Circuit.t; (* after the full pipeline *)
  ancillae : int;
  trace : trace;
}

let now () = Unix.gettimeofday ()
let rev_snap rc = Rev_snap (Rev.Rcircuit.stats rc)
let qc_snap c = Qc_snap (Qc.Resource.count c)

let snapshot_gates = function
  | Rev_snap s -> s.Rev.Rcircuit.gate_count
  | Qc_snap r -> r.Qc.Resource.total_gates

(* Telemetry: every executed pass is a span in the cross-layer stream
   (taxonomy [core.pass.<name>]), so the pass-manager trace and the
   synthesis/simulation internals land in one exportable timeline. *)
let observe_entry (e : entry) =
  if Obs.enabled () then begin
    Obs.add_attrs
      [ ("layer", Obs.Str e.layer);
        ("gates_before", Obs.Int (snapshot_gates e.before));
        ("gates_after", Obs.Int (snapshot_gates e.after)) ];
    (match e.after with
    | Qc_snap r -> Obs.add_attrs [ ("t_count", Obs.Int r.Qc.Resource.t_count) ]
    | Rev_snap _ -> ());
    if e.ancillae_added > 0 then
      Obs.add_attrs [ ("ancillae_added", Obs.Int e.ancillae_added) ];
    Obs.count "core.pass.executed"
  end

let run_uncached pipeline rc0 =
  Obs.with_span "core.pipeline.run" @@ fun () ->
  let entries = ref [] in
  let record e =
    observe_entry e;
    entries := e :: !entries
  in
  let timed p before f =
    let t0 = now () in
    let out, detail = f () in
    let elapsed = now () -. t0 in
    (out, fun after ancillae_added ->
      record
        { pass_name = p.name; layer = layer_of p.kind; elapsed; before; after;
          ancillae_added; detail })
  in
  let rc =
    List.fold_left
      (fun rc p ->
        match p.kind with
        | Rev_pass f ->
            Obs.with_span ("core.pass." ^ p.name) (fun () ->
                let rc', fin = timed p (rev_snap rc) (fun () -> f rc) in
                fin (rev_snap rc') 0;
                rc')
        | _ -> assert false)
      rc0 pipeline.rev_passes
  in
  let c0, ancillae =
    match pipeline.lower.kind with
    | Lower f ->
        Obs.with_span ("core.pass." ^ pipeline.lower.name) (fun () ->
            let (c0, ancillae), fin =
              timed pipeline.lower (rev_snap rc) (fun () -> f rc)
            in
            fin (qc_snap c0) ancillae;
            (c0, ancillae))
    | _ -> assert false
  in
  let c =
    List.fold_left
      (fun c p ->
        match p.kind with
        | Qc_pass f ->
            Obs.with_span ("core.pass." ^ p.name) (fun () ->
                let c', fin = timed p (qc_snap c) (fun () -> f c) in
                fin (qc_snap c') 0;
                c')
        | _ -> assert false)
      c0 pipeline.qc_passes
  in
  { rev = rc; circuit = c; ancillae; trace = List.rev !entries }

(* Second-level ("lowering") cache: the full instrumented result of a
   pipeline is memoized by (spec string, structural key of the input
   cascade), so repeated compilations of identical cascades — common when
   NPN replay maps a whole oracle family onto few distinct circuits —
   skip Clifford+T lowering and T-par entirely. Deterministic passes make
   the cached result indistinguishable from a fresh run; a hit re-serves
   the recorded trace (the per-pass timings of the original run). *)
let result_store : (string, result) Cache.store =
  Cache.create ~name:"pass.result" ~schema:"pass-result.v2" ~group:"lower"
    ~key_of:Fun.id

(** [run pipeline rc] executes every pass in order, recording one trace
    entry per pass. Each pass also opens a [core.pass.<name>] telemetry
    span (the whole pipeline is a [core.pipeline.run] span), so the
    existing trace entries and the cross-layer event stream tell one
    story. Results are memoized by (spec, input cascade) — see
    {!Cache}. *)
let run pipeline rc0 =
  let key = to_spec pipeline ^ "@" ^ Rev.Rcircuit.structural_key rc0 in
  Cache.find_or_add result_store key (fun () -> run_uncached pipeline rc0)

let run_qc_uncached passes c0 =
  Obs.with_span "core.pipeline.run_qc" @@ fun () ->
  let entries = ref [] in
  let c =
    List.fold_left
      (fun c p ->
        match p.kind with
        | Qc_pass f ->
            Obs.with_span ("core.pass." ^ p.name) (fun () ->
                let before = qc_snap c in
                let t0 = now () in
                let c', detail = f c in
                let e =
                  { pass_name = p.name; layer = "quantum"; elapsed = now () -. t0;
                    before; after = qc_snap c'; ancillae_added = 0; detail }
                in
                observe_entry e;
                entries := e :: !entries;
                c')
        | _ -> failf "%s: not a quantum-layer pass" p.name)
      c0 passes
  in
  (c, List.rev !entries)

let qc_result_store : (string, Qc.Circuit.t * trace) Cache.store =
  Cache.create ~name:"pass.qc_result" ~schema:"pass-qc.v2" ~group:"lower"
    ~key_of:Fun.id

(** [run_qc passes c] executes a quantum-layer pass list on an
    already-lowered circuit, with the same instrumentation (and the same
    result memoization as {!run}). *)
let run_qc passes c0 =
  let names = String.concat ";" (List.map (fun p -> p.name) passes) in
  let key = names ^ "@" ^ Qc.Circuit.structural_key c0 in
  Cache.find_or_add qc_result_store key (fun () -> run_qc_uncached passes c0)

(* ------------------------------------------------------------------ *)
(* Trace rendering                                                     *)
(* ------------------------------------------------------------------ *)

let pp_detail ppf = function
  | Tpar t ->
      Fmt.pf ppf "T %d -> %d, T-depth %d -> %d" t.Qc.Tpar.t_before t.Qc.Tpar.t_after
        t.Qc.Tpar.t_depth_before t.Qc.Tpar.t_depth_after
  | Routed { swaps; _ } -> Fmt.pf ppf "%d SWAPs inserted" swaps
  | Note s -> Fmt.string ppf s

let pp_entry ppf e =
  Fmt.pf ppf "%-20s %-10s %8.2fms  gates %5d -> %5d" e.pass_name e.layer
    (e.elapsed *. 1000.) (snapshot_gates e.before) (snapshot_gates e.after);
  (match e.after with
  | Qc_snap r -> Fmt.pf ppf "  T %4d  depth %5d" r.Qc.Resource.t_count r.Qc.Resource.depth
  | Rev_snap _ -> ());
  if e.ancillae_added > 0 then Fmt.pf ppf "  +%d ancillae" e.ancillae_added;
  match e.detail with None -> () | Some d -> Fmt.pf ppf "  [%a]" pp_detail d

(** [pp_trace ppf trace] prints the per-pass instrumentation table. *)
let pp_trace ppf trace =
  Fmt.pf ppf "@[<v>%-20s %-10s %10s  %s@ %a@]" "pass" "layer" "time" "effect"
    Fmt.(list ~sep:cut pp_entry)
    trace

let trace_to_string trace = Fmt.str "%a" pp_trace trace

(** [total_elapsed trace] sums the per-pass wall-clock times. *)
let total_elapsed trace = List.fold_left (fun acc e -> acc +. e.elapsed) 0. trace

(** [tpar_report trace] extracts the first T-par report, if that pass
    ran. *)
let tpar_report trace =
  List.find_map (function { detail = Some (Tpar t); _ } -> Some t | _ -> None) trace
