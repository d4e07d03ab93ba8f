(* Telemetry smoke test, wired into the default test alias.

   Four guards, so the telemetry subsystem can never silently rot or
   slow the hot path:

   1. end-to-end: run hidden_shift_cli with --trace-out and validate the
      JSONL it writes (parses, spans strictly nested, counters present);
   2. session-flag errors: an unwritable --trace-out and out-of-range
      --jobs / --shard-bits / --deadline each exit 2 with one
      "hidden-shift: ..." line on stderr, and --max-retries 0 is
      accepted;
   3. wide noisy run: the 40-qubit inner-product instance on the noisy
      target (Pauli-frame engine, no statevector) exits 0 and lists the
      planted shift as its most frequent outcome;
   4. null-sink micro-overhead: with no sink installed, Obs.with_span
      must cost no more than a branch (generous per-call ceiling);
   5. flow overhead: Core.Flow.compile_perm hwb4 with the null sink must
      not be slower than the same compile with a recording sink (within
      noise) — if it is, the disabled path has grown real work. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("trace smoke: " ^ m); exit 1) fmt

(* --- 1. CLI --trace-out produces a valid JSONL event log --- *)

let check_cli cli =
  let tmp = Filename.temp_file "dautoq_trace" ".jsonl" in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "ip"; "-n"; "2"; "--shift"; "1"; "--trace-out"; tmp |]
      Unix.stdin dev_null Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  Unix.close dev_null;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> die "hidden_shift_cli --trace-out exited abnormally");
  let ic = open_in tmp in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  let events =
    try Obs.Export.parse_jsonl text
    with Obs.Json.Parse_error msg -> die "trace JSONL does not parse: %s" msg
  in
  if events = [] then die "trace JSONL is empty";
  (* span begins/ends must pair up by name and be strictly nested *)
  let stack = ref [] in
  List.iter
    (fun e ->
      match e with
      | Obs.Span_begin { name; depth; _ } ->
          if depth <> List.length !stack then
            die "span %s opens at depth %d, expected %d" name depth
              (List.length !stack);
          stack := name :: !stack
      | Obs.Span_end { name; depth; _ } -> (
          match !stack with
          | top :: rest when top = name && depth = List.length rest ->
              stack := rest
          | _ -> die "span end %s does not match the innermost open span" name)
      | Obs.Counter _ | Obs.Sample _ -> ())
    events;
  if !stack <> [] then die "trace ends with %d unclosed spans" (List.length !stack);
  let has_counter =
    List.exists (function Obs.Counter _ -> true | _ -> false) events
  in
  if not has_counter then die "trace has no counter events";
  Printf.printf "trace smoke: CLI trace OK (%d events)\n" (List.length events)

(* --- 2. session-flag errors --- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run the CLI with [args]; stdout is discarded, stderr returned. *)
let run_capture cli args =
  let err = Filename.temp_file "dautoq_trace" ".err" in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin dev_null err_fd in
  let _, status = Unix.waitpid [] pid in
  Unix.close dev_null;
  Unix.close err_fd;
  let text = read_file err in
  Sys.remove err;
  (status, text)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_cli_errors cli =
  (* a path below a regular file can never be created *)
  let file = Filename.temp_file "dautoq_trace" ".file" in
  let unwritable = Filename.concat file "x.json" in
  List.iter
    (fun (args, names) ->
      let args = [ "ip"; "-n"; "2" ] @ args in
      match run_capture cli args with
      | Unix.WEXITED 2, err
        when String.starts_with ~prefix:"hidden-shift: " err
             && String.index err '\n' = String.length err - 1
             && contains ~sub:names err ->
          ()
      | _, err ->
          die "hidden-shift %s: expected exit 2 and one 'hidden-shift: ...' line naming %s, \
               got stderr %S"
            (String.concat " " args) names err)
    [ ([ "--trace-out"; unwritable ], unwritable);
      ([ "--jobs"; "0" ], "--jobs");
      ([ "--shard-bits"; "0" ], "--shard-bits");
      ([ "--deadline"; "0" ], "--deadline") ];
  Sys.remove file;
  (match run_capture cli [ "ip"; "-n"; "2"; "--faults"; "flaky"; "--max-retries"; "0" ] with
  | Unix.WEXITED 0, _ -> ()
  | _, err -> die "hidden-shift --max-retries 0 was refused: %S" err);
  print_endline "trace smoke: CLI session-flag errors OK"

(* --- 3. 40-qubit noisy run --- *)

let check_wide_noisy cli =
  let out = Filename.temp_file "dautoq_trace" ".out" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let args = [ "ip"; "-n"; "20"; "--target"; "noisy:shots=1024" ] in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out_fd Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  Unix.close out_fd;
  let text = read_file out in
  Sys.remove out;
  if status <> Unix.WEXITED 0 then die "hidden-shift %s exited abnormally" (String.concat " " args);
  (* "qubits: 40, gates: N", then the histogram, most frequent first *)
  match String.split_on_char '\n' text with
  | header :: first :: _ when String.starts_with ~prefix:"qubits: 40," header -> (
      match String.split_on_char ' ' (String.trim first) with
      | "1" :: _ -> print_endline "trace smoke: 40-qubit noisy run OK (shift 1 modal)"
      | _ -> die "40-qubit noisy run: most frequent outcome is not the shift 1: %S" first)
  | _ -> die "40-qubit noisy run: unexpected output %S" text

(* --- 4. null-sink span overhead --- *)

let check_null_overhead () =
  Obs.set_sink None;
  let iters = 1_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Obs.with_span "x" (fun () -> Sys.opaque_identity 1)))
  done;
  let per_call = (Unix.gettimeofday () -. t0) /. float_of_int iters in
  (* the disabled path is one branch; 1µs/call would mean it grew real
     work (timestamps, allocation) — the usual cost is a few ns *)
  if per_call > 1e-6 then
    die "null-sink with_span costs %.0fns/call (> 1000ns ceiling)" (per_call *. 1e9);
  Printf.printf "trace smoke: null-sink span overhead %.0fns/call\n" (per_call *. 1e9)

(* --- 5. compile flow: null sink must not be slower than recording --- *)

let time_compile () =
  let hwb4 = Logic.Funcgen.hwb 4 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (Core.Flow.compile_perm hwb4);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let check_flow_overhead () =
  Obs.set_sink None;
  let null_time = time_compile () in
  let m = Obs.Memory.create () in
  Obs.set_sink (Some (Obs.Memory.sink m));
  let recording_time = time_compile () in
  Obs.set_sink None;
  (* the null sink skips everything the recording sink does, so (within
     noise — min-of-5 plus 50% headroom and a 5ms floor) it can only be
     faster; a violation means the disabled path regressed *)
  if null_time > (recording_time *. 1.5) +. 0.005 then
    die "null-sink compile took %.2fms vs %.2fms recording — disabled path regressed"
      (null_time *. 1e3) (recording_time *. 1e3);
  if Obs.Memory.length m = 0 then die "recording sink captured no events";
  Printf.printf
    "trace smoke: compile hwb4 null sink %.2fms, recording %.2fms (%d events)\n"
    (null_time *. 1e3) (recording_time *. 1e3) (Obs.Memory.length m)

let () =
  (match Array.to_list Sys.argv with
  | [ _; cli ] ->
      check_cli cli;
      check_cli_errors cli;
      check_wide_noisy cli
  | _ -> die "usage: trace_smoke <hidden_shift_cli.exe>");
  check_null_overhead ();
  check_flow_overhead ()
