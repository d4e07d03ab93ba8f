(* Kernel-plan smoke test, wired into the default test alias.

   Runs the qasm_tool `sim` subcommand on a 12-qubit circuit that is wide
   enough to engage the plan layer (fuse_min_qubits = 10) at --jobs 1 and
   at --jobs 4. Guards:

   1. both runs print byte-identical stdout — the worker count never
      changes simulation results, not even in the last printed digit;
   2. the --jobs 1 run's trace records a nonzero sv.plan.blocks counter —
      the plan layer actually formed fused blocks (the counter is only
      emitted when blocks > 0, so presence is the check);
   3. session-flag errors: an unwritable --trace-out and out-of-range
      --jobs / --shard-bits / --deadline each exit 2 with one
      "qasm_tool: ..." line on stderr, as does an unknown option, and
      --max-retries 0 is accepted. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("plan smoke: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let qasm =
  let b = Buffer.create 1024 in
  Buffer.add_string b "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\n";
  for q = 0 to 11 do
    Buffer.add_string b (Printf.sprintf "h q[%d];\n" q)
  done;
  for layer = 1 to 3 do
    for q = 0 to 11 do
      Buffer.add_string b (Printf.sprintf "t q[%d];\n" q)
    done;
    for q = 0 to 10 do
      Buffer.add_string b (Printf.sprintf "cx q[%d],q[%d];\n" q (q + 1))
    done;
    (* Rz angles and Y/SWAP in the region, then a Toffoli that passes
       through *)
    for q = 0 to 11 do
      if q mod 3 = layer mod 3 then
        Buffer.add_string b
          (Printf.sprintf "rz(%.3f) q[%d];\n" (0.1 *. float_of_int (q + layer)) q)
    done;
    Buffer.add_string b
      (Printf.sprintf "y q[%d];\nswap q[%d],q[%d];\nccx q[%d],q[%d],q[%d];\n" layer layer
         (layer + 5) layer (layer + 1) (layer + 7))
  done;
  for q = 0 to 11 do
    Buffer.add_string b (Printf.sprintf "h q[%d];\n" q)
  done;
  Buffer.contents b

(* Run `qasm_tool sim file extra_args` with stdout to [out]; returns the
   exit status and stderr. *)
let sim cli file extra_args ~out =
  let argv = Array.of_list ((cli :: [ "sim"; file ]) @ extra_args) in
  let err = out ^ ".err" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process cli argv Unix.stdin out_fd err_fd in
  let _, status = Unix.waitpid [] pid in
  Unix.close out_fd;
  Unix.close err_fd;
  (status, read_file err)

let run cli file extra_args ~out =
  match sim cli file extra_args ~out with
  | Unix.WEXITED 0, _ -> ()
  | _, err ->
      die "qasm_tool sim %s exited abnormally (stderr: %s)" (String.concat " " extra_args) err

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let cli =
    match Array.to_list Sys.argv with
    | [ _; cli ] -> cli
    | _ -> die "usage: plan_smoke <qasm_tool.exe>"
  in
  let dir = Filename.temp_file "dautoq_plan" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let tmp suffix = Filename.concat dir suffix in
  let qasm_file = tmp "circuit.qasm" in
  let oc = open_out qasm_file in
  output_string oc qasm;
  close_out oc;
  run cli qasm_file
    [ "--jobs"; "1"; "--trace-out"; tmp "planned.trace" ]
    ~out:(tmp "planned_j1.out");
  run cli qasm_file [ "--jobs"; "4" ] ~out:(tmp "planned_j4.out");
  let j1 = read_file (tmp "planned_j1.out") in
  let j4 = read_file (tmp "planned_j4.out") in
  if String.length j1 = 0 then die "planned run printed no probabilities";
  if j1 <> j4 then die "planned output differs between --jobs 1 and --jobs 4";
  let trace = read_file (tmp "planned.trace") in
  if not (contains trace "sv.plan.blocks") then
    die "trace records no sv.plan.blocks — the plan layer formed no blocks";
  (* a path below a regular file can never be created *)
  let unwritable = Filename.concat qasm_file "x.json" in
  List.iter
    (fun (args, names) ->
      match sim cli qasm_file args ~out:(tmp "error.out") with
      | Unix.WEXITED 2, err
        when String.starts_with ~prefix:"qasm_tool: " err
             && String.index err '\n' = String.length err - 1
             && contains err names ->
          ()
      | _, err ->
          die "qasm_tool sim %s: expected exit 2 and one 'qasm_tool: ...' line naming %s, \
               got stderr %S"
            (String.concat " " args) names err)
    [ ([ "--trace-out"; unwritable ], unwritable);
      ([ "--jobs"; "0" ], "--jobs");
      ([ "--shard-bits"; "0" ], "--shard-bits");
      ([ "--deadline"; "0" ], "--deadline");
      ([ "--bogus" ], "unknown option --bogus") ];
  run cli qasm_file [ "--max-retries"; "0" ] ~out:(tmp "retries.out");
  Printf.printf "plan smoke: OK (jobs-invariant, blocks formed, session-flag errors)\n";
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())
