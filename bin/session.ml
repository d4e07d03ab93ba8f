(* The session flags both CLIs share: --jobs, --shard-bits, --cache,
   --no-cache, --trace-out, --faults, --max-retries and --deadline.

   The flags parse into one [flags] record — through a Cmdliner term
   (hidden-shift) or an argv scanner that accepts them anywhere on the
   command line (qasm_tool). [start] turns that record into a validated
   session: it installs the process-wide settings, builds the device
   policy, writes the trace and the cache summary at exit, and maps
   operational exceptions to one "<prog>: msg" line on stderr with
   exit code 2. *)

open Cmdliner

type flags = {
  jobs : int option;
  shard_bits : int option;
  cache_dir : string option;
  no_cache : bool;
  trace_out : string option;
  faults : string option;
  max_retries : int option;
  deadline : int option;
}

type t = {
  profile : Device.profile option; (* --faults: route execution through Device *)
  policy : Device.policy;
}

(* A session flag with a malformed or out-of-range value. *)
exception Bad_flag of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_flag m)) fmt

(* [guard ~prog f] runs [f ()]; an operational error (bad flag, backend,
   pass, fault-profile, tenant or oracle spec, unreadable input,
   unwritable output, infeasible ancilla budget) becomes one line on
   stderr and exit 2 instead of a backtrace. *)
let guard ~prog f =
  let fail msg =
    Printf.eprintf "%s: %s\n" prog msg;
    exit 2
  in
  try f () with
  | Bad_flag msg
  | Core.Pass.Spec_error msg
  | Qc.Backend.Unsupported msg
  | Qc.Statevector.Unsupported msg
  | Device.Bad_profile msg
  | Serve.Bad_tenant msg
  | Corpus.Bad_spec msg
  | Corpus.Bad_snapshot msg
  | Corpus.Diff.Bad_threshold msg
  | Obs.Json.Parse_error msg
  | Sys_error msg
  | Invalid_argument msg ->
      fail msg
  | Rev.Pebble.Infeasible { budget; required } ->
      fail
        (Printf.sprintf "ancilla budget %d is infeasible for this oracle (needs >= %d)"
           budget required)

(* Range rules: jobs >= 1 and shard-bits >= 1 are enforced by their
   setters (which the shell's [jobs] command shares); the device budgets
   have no setter, so their rules live here. *)
let setting flag set v = try set v with Invalid_argument m -> bad "%s: %s" flag m

let at_least flag lo =
  Option.iter (fun v -> if v < lo then bad "%s: expected an integer >= %d, got %d" flag lo v)

(** [start ~prog flags] validates [flags] and installs them for the rest
    of the process. With a trace file the whole run records into a
    memory sink, written at exit in the format the extension names
    (.jsonl event log, .json Chrome trace, anything else a table). With
    a cache directory the compilation cache persists there and a
    hit/miss summary goes to stderr at exit; --no-cache disables
    memoization entirely. Call it under {!guard}. *)
let start ~prog f =
  at_least "--max-retries" 0 f.max_retries;
  at_least "--deadline" 1 f.deadline;
  let profile = Option.map Device.profile_of_spec f.faults in
  Option.iter (setting "--jobs" Par.set_default_jobs) f.jobs;
  setting "--shard-bits" Qc.Statevector.set_shard_bits f.shard_bits;
  if f.no_cache then Cache.set_enabled false
  else Option.iter (fun d -> Cache.set_dir (Some d)) f.cache_dir;
  let recorder = Option.map (fun _ -> Obs.Memory.create ()) f.trace_out in
  Option.iter (fun m -> Obs.set_sink (Some (Obs.Memory.sink m))) recorder;
  at_exit (fun () ->
      guard ~prog (fun () ->
          Obs.set_sink None;
          (match (f.trace_out, recorder) with
          | Some file, Some m ->
              Obs.Export.write_file file (Obs.Memory.events m);
              Printf.eprintf "wrote %d telemetry events to %s\n" (Obs.Memory.length m)
                file
          | _ -> ());
          if f.cache_dir <> None && not f.no_cache then
            Printf.eprintf "%s\n" (Cache.summary_string ())));
  let d = Device.default_policy in
  { profile;
    policy =
      { d with
        Device.max_retries = Option.value f.max_retries ~default:d.Device.max_retries;
        deadline = Option.value f.deadline ~default:d.Device.deadline } }

(** [run ~prog flags body] is [body (start ~prog flags)] under {!guard}. *)
let run ~prog flags body = guard ~prog (fun () -> body (start ~prog flags))

(** [device s target] is the resilient device over [target] when the
    session has a fault profile, else [None] (run the backend directly). *)
let device s target =
  Option.map (fun profile -> Device.of_spec ~policy:s.policy ~profile target) s.profile

(* --- argv scanner (qasm_tool) --- *)

(** [scan argv] extracts the session flags from anywhere in [argv] and
    returns them with the remaining arguments, in order. *)
let scan argv =
  let int flag v =
    match int_of_string_opt v with
    | Some n -> Some n
    | None -> bad "%s: expected an integer, got %s" flag v
  in
  let rec go f acc = function
    | "--jobs" :: v :: rest -> go { f with jobs = int "--jobs" v } acc rest
    | "--shard-bits" :: v :: rest -> go { f with shard_bits = int "--shard-bits" v } acc rest
    | "--cache" :: d :: rest -> go { f with cache_dir = Some d } acc rest
    | "--no-cache" :: rest -> go { f with no_cache = true } acc rest
    | "--trace-out" :: file :: rest -> go { f with trace_out = Some file } acc rest
    | "--faults" :: p :: rest -> go { f with faults = Some p } acc rest
    | "--max-retries" :: v :: rest ->
        go { f with max_retries = int "--max-retries" v } acc rest
    | "--deadline" :: v :: rest -> go { f with deadline = int "--deadline" v } acc rest
    | a :: rest -> go f (a :: acc) rest
    | [] -> (f, List.rev acc)
  in
  go
    { jobs = None; shard_bits = None; cache_dir = None; no_cache = false;
      trace_out = None; faults = None; max_retries = None; deadline = None }
    [] argv

(* --- Cmdliner term (hidden-shift) --- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for parallel execution (noisy shots and large \
           statevector kernels), at least 1. Defaults to the machine's \
           recommended domain count. Results are bit-identical for any value."
        ~docv:"N")

let shard_bits_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-bits" ]
        ~doc:
          "Force the sharded statevector's slab size to 2^$(docv) amplitudes, \
           $(docv) at least 1 (default: chosen automatically from the qubit \
           count and the pool width). Results are bit-identical for any value."
        ~docv:"S")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ]
        ~doc:
          "Persist the compilation cache (NPN-indexed synthesis results, \
           Clifford+T lowering results) in $(docv); warm runs reuse them and a \
           hit/miss summary is printed to stderr. Results are bit-identical \
           with or without the cache."
        ~docv:"DIR")

let no_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-cache" ]
        ~doc:"Disable the in-memory compilation cache (identical results; only timing changes).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Record cross-layer telemetry and write it to $(docv); format by \
           extension: .jsonl event log, .json Chrome trace (Perfetto), else a \
           human-readable table."
        ~docv:"FILE")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ]
        ~doc:
          "Execute through the resilient device layer under the named fault \
           profile: none | flaky | hostile, optionally refined with \
           comma-separated key=value overrides (submit=, stuck=, loss=, \
           corrupt=, drift=, seed=, outage=LEN@START|off). Injected faults \
           are deterministic in (seed, attempt) and independent of --jobs."
        ~docv:"PROFILE")

let max_retries_arg =
  Arg.(
    value
    & opt (some ~none:(string_of_int Device.default_policy.Device.max_retries) int) None
    & info [ "max-retries" ]
        ~doc:
          "Retry budget per shot batch under --faults (capped exponential \
           backoff), at least 0."
        ~docv:"N")

let deadline_arg =
  Arg.(
    value
    & opt (some ~none:(string_of_int Device.default_policy.Device.deadline) int) None
    & info [ "deadline" ]
        ~doc:
          "Total attempt budget per submission under --faults, at least 1; \
           when exhausted the job degrades to whatever was salvaged instead \
           of raising."
        ~docv:"ATTEMPTS")

(** [term ?device ()] parses the session flags; [~device:false] leaves
    out --faults, --max-retries and --deadline (for subcommands that
    never execute through a device). *)
let term ?(device = true) () =
  let mk jobs shard_bits cache_dir no_cache trace_out (faults, max_retries, deadline) =
    { jobs; shard_bits; cache_dir; no_cache; trace_out; faults; max_retries; deadline }
  in
  let dev =
    if device then
      Term.(const (fun f r d -> (f, r, d)) $ faults_arg $ max_retries_arg $ deadline_arg)
    else Term.const (None, None, None)
  in
  Term.(
    const mk $ jobs_arg $ shard_bits_arg $ cache_dir_arg $ no_cache_arg $ trace_out_arg
    $ dev)
