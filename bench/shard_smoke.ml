(* Sharded-statevector smoke test, wired into the default test alias.

   Runs the qasm_tool `sim` subcommand on a 12-qubit circuit (wide enough
   to engage the plan layer) across jobs × shard-bits configurations:
   flat at --jobs 1 (the reference), flat at --jobs 4, and sharded at
   --shard-bits 8 / 5 under both worker counts. Guards:

   1. every run prints byte-identical stdout — slab layout and worker
      count never change simulation results, not even in the last
      printed digit (the shard determinism contract end-to-end through
      the CLI);
   2. a sharded run's trace records the sv.shard.slabs counter — the
      state really was split into slabs, so the cross-slab kernels were
      exercised rather than silently falling back to the flat path. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("shard smoke: " ^ m); exit 1) fmt

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

let run cli file extra_args ~out =
  let argv = Array.of_list ((cli :: [ "sim"; file ]) @ extra_args) in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process cli argv Unix.stdin out_fd Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  Unix.close out_fd;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> die "qasm_tool sim %s exited abnormally" (String.concat " " extra_args)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let cli =
    match Array.to_list Sys.argv with
    | [ _; cli ] -> cli
    | _ -> die "usage: shard_smoke <qasm_tool.exe>"
  in
  let dir = Filename.temp_file "dautoq_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let tmp suffix = Filename.concat dir suffix in
  let qasm_file = tmp "circuit.qasm" in
  let oc = open_out qasm_file in
  output_string oc qasm;
  close_out oc;
  run cli qasm_file [ "--jobs"; "1" ] ~out:(tmp "flat_j1.out");
  let variants =
    [ ("flat_j4.out", [ "--jobs"; "4" ], None);
      ( "shard8_j1.out",
        [ "--jobs"; "1"; "--shard-bits"; "8"; "--trace-out"; tmp "shard.trace" ],
        Some "sharded --jobs 1" );
      ("shard8_j4.out", [ "--jobs"; "4"; "--shard-bits"; "8" ], None);
      ("shard5_j4.out", [ "--jobs"; "4"; "--shard-bits"; "5" ], None) ]
  in
  List.iter (fun (out, args, _) -> run cli qasm_file args ~out:(tmp out)) variants;
  let reference = read_file (tmp "flat_j1.out") in
  if String.length reference = 0 then die "reference run printed no probabilities";
  List.iter
    (fun (out, args, _) ->
      if read_file (tmp out) <> reference then
        die "output differs from flat --jobs 1 for: %s" (String.concat " " args))
    variants;
  let trace = read_file (tmp "shard.trace") in
  if not (contains trace "sv.shard.slabs") then
    die "trace records no sv.shard.slabs — the state never sharded";
  Printf.printf
    "shard smoke: OK (byte-identical across jobs x shard-bits, slabs counted)\n";
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())
