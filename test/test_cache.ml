(* The compilation cache: NPN replay correctness, cache-on/off and
   parallel-jobs invariance, and the persistent layer's round-trip and
   corruption tolerance. *)

module Truth_table = Logic.Truth_table
module Esop = Logic.Esop
module Esop_opt = Logic.Esop_opt

let fresh () =
  Cache.set_dir None;
  Cache.set_enabled true;
  Cache.clear_memory ()

let tt_gen_sized =
  QCheck2.Gen.bind (QCheck2.Gen.int_range 3 5) Helpers.tt_gen

(* --- NPN replay: covers --- *)

let prop_cover_minimize =
  Helpers.prop "Cover.minimize cover still evaluates to the function" ~count:200
    tt_gen_sized (fun tt ->
      fresh ();
      let n = Truth_table.num_vars tt in
      (* twice: the second call replays a cache hit *)
      let miss = Cache.Cover.minimize tt in
      let hit = Cache.Cover.minimize tt in
      Truth_table.equal (Esop.to_truth_table n miss) tt
      && Truth_table.equal (Esop.to_truth_table n hit) tt)

let prop_cover_matches_uncached =
  Helpers.prop "Cover.minimize equals Esop_opt.minimize extensionally" ~count:200
    tt_gen_sized (fun tt ->
      fresh ();
      let n = Truth_table.num_vars tt in
      Truth_table.equal
        (Esop.to_truth_table n (Cache.Cover.minimize tt))
        (Esop.to_truth_table n (Esop_opt.minimize tt)))

(* --- NPN replay: cascades --- *)

(* The qcheck acceptance property: a cache-hit replay simulates identically
   to fresh synthesis on every basis state. *)
let prop_esop1_replay =
  Helpers.prop "esop1 replay simulates identically to fresh synthesis" ~count:150
    tt_gen_sized (fun tt ->
      fresh ();
      let n = Truth_table.num_vars tt in
      let reference = Rev.Esop_synth.synth1 tt in
      let first = Rev.Synth_cache.esop1 tt in
      let replayed = Rev.Synth_cache.esop1 tt (* second call is a hit *) in
      let agree a b =
        let ok = ref true in
        for x = 0 to (1 lsl (n + 1)) - 1 do
          if Rev.Rsim.run a x <> Rev.Rsim.run b x then ok := false
        done;
        !ok
      in
      agree reference first && agree reference replayed
      && Rev.Rsim.realizes_function replayed
           ~inputs:(List.init n Fun.id) ~outputs:[ n ] [ tt ])

let prop_esop1_on_off_identical =
  Helpers.prop "esop1 is bit-identical with the cache on or off" ~count:150
    tt_gen_sized (fun tt ->
      fresh ();
      let on_cold = Rev.Synth_cache.esop1 tt in
      let on_warm = Rev.Synth_cache.esop1 tt in
      Cache.set_enabled false;
      let off = Rev.Synth_cache.esop1 tt in
      Cache.set_enabled true;
      let key = Rev.Rcircuit.structural_key in
      key on_cold = key off && key on_warm = key off)

(* --- hit accounting --- *)

let test_counters () =
  fresh ();
  Cache.reset_stats ();
  let tt = Logic.Funcgen.majority 5 in
  ignore (Rev.Synth_cache.esop1 tt);
  ignore (Rev.Synth_cache.esop1 tt);
  let npn_hits, npn_misses =
    match List.assoc_opt "npn" (Cache.counters ()) with
    | Some hm -> hm
    | None -> Alcotest.fail "no npn counter group"
  in
  Alcotest.(check bool) "one miss" true (npn_misses >= 1);
  Alcotest.(check bool) "one hit" true (npn_hits >= 1);
  Alcotest.(check bool) "summary mentions npn"
    true
    (Helpers.contains ~needle:"npn.hit=" (Cache.summary_string ()))

(* --- the pass-manager result cache --- *)

let test_pass_result_cached () =
  fresh ();
  let rc = Rev.Tbs.synth (Logic.Funcgen.hwb 4) in
  let pipeline = Core.Pass.parse "revsimp;cliffordt;tpar;peephole" in
  let r1 = Core.Pass.run pipeline rc in
  let r2 = Core.Pass.run pipeline rc in
  Alcotest.(check string) "same circuit"
    (Qc.Circuit.structural_key r1.Core.Pass.circuit)
    (Qc.Circuit.structural_key r2.Core.Pass.circuit);
  Cache.set_enabled false;
  let r3 = Core.Pass.run pipeline rc in
  Cache.set_enabled true;
  Alcotest.(check string) "cache off agrees"
    (Qc.Circuit.structural_key r3.Core.Pass.circuit)
    (Qc.Circuit.structural_key r1.Core.Pass.circuit);
  let lower_hits =
    match List.assoc_opt "lower" (Cache.counters ()) with
    | Some (h, _) -> h
    | None -> 0
  in
  Alcotest.(check bool) "lowering cache hit" true (lower_hits >= 1)

(* --- parallel batch compilation --- *)

let test_batch_jobs_invariance () =
  fresh ();
  let st = Random.State.make [| 4; 0xCAFE |] in
  let specs =
    List.init 6 (fun _ ->
        Core.Flow.Fn_spec [ Logic.Bent.mm_function (Logic.Bent.random_mm st 2) ])
  in
  let keys jobs =
    Cache.clear_memory ();
    List.map
      (fun (c, _) -> Qc.Circuit.structural_key c)
      (Core.Flow.compile_batch
         ~options:{ Core.Flow.default with synth = Core.Flow.Esop }
         ~jobs specs)
  in
  let seq = keys 1 in
  Alcotest.(check (list string)) "jobs=4 identical to jobs=1" seq (keys 4);
  (* and a warm in-order rerun serves the same circuits from the cache *)
  let warm =
    List.map
      (fun (c, _) -> Qc.Circuit.structural_key c)
      (Core.Flow.compile_batch
         ~options:{ Core.Flow.default with synth = Core.Flow.Esop }
         ~jobs:2 specs)
  in
  Alcotest.(check (list string)) "warm rerun identical" seq warm

(* --- persistence --- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "dautoq_cache_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_dir None;
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_persistence_round_trip () =
  fresh ();
  with_tmp_dir (fun dir ->
      Cache.set_dir (Some dir);
      let tt = Logic.Funcgen.majority 5 in
      let written = Rev.Synth_cache.esop1 tt in
      Alcotest.(check bool) "bytes persisted" true (Cache.bytes_persisted () > 0);
      (* drop memory, re-attach the directory: the store must reload *)
      Cache.clear_memory ();
      Cache.set_dir (Some dir);
      Cache.reset_stats ();
      let reloaded = Rev.Synth_cache.esop1 tt in
      Alcotest.(check string) "reloaded cascade identical"
        (Rev.Rcircuit.structural_key written)
        (Rev.Rcircuit.structural_key reloaded);
      let hits =
        match List.assoc_opt "npn" (Cache.counters ()) with
        | Some (h, _) -> h
        | None -> 0
      in
      Alcotest.(check bool) "reload served from disk" true (hits >= 1))

(* An unusable cache directory must degrade to in-memory caching with a
   warning, never raise. (chmod-based read-only checks are useless under
   root, so the unusable path is a regular file: opening file/cache.bin
   fails with ENOTDIR for any uid.) *)
let test_persistence_unwritable_dir () =
  fresh ();
  let file = Filename.temp_file "dautoq_cache_notadir" "" in
  Fun.protect
    ~finally:(fun () ->
      Cache.set_dir None;
      try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let before = Cache.bytes_persisted () in
      Cache.set_dir (Some file);
      (* persistence silently off: lookups and inserts still work *)
      let tt = Logic.Funcgen.majority 5 in
      let a = Rev.Synth_cache.esop1 tt in
      let b = Rev.Synth_cache.esop1 tt in
      Alcotest.(check string) "in-memory cache still serves"
        (Rev.Rcircuit.structural_key a)
        (Rev.Rcircuit.structural_key b);
      Alcotest.(check int) "nothing persisted" before (Cache.bytes_persisted ());
      Alcotest.(check bool) "directory deactivated" true (Cache.dir () = None);
      (* clear () with no active dir must not resurrect the bad path *)
      Cache.clear ();
      Alcotest.(check int) "still nothing persisted" before (Cache.bytes_persisted ()))

let test_persistence_corrupt_file () =
  fresh ();
  with_tmp_dir (fun dir ->
      Cache.set_dir (Some dir);
      let tt = Logic.Funcgen.majority 5 in
      let written = Rev.Synth_cache.esop1 tt in
      Cache.set_dir None;
      (* truncate mid-record: the valid prefix must still load *)
      let path = Filename.concat dir "cache.bin" in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      let junk = "garbage tail \x00\x01\x02" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      Unix.close fd;
      Cache.clear_memory ();
      Cache.set_dir (Some dir);
      let reloaded = Rev.Synth_cache.esop1 tt in
      Alcotest.(check string) "valid prefix survives a corrupt tail"
        (Rev.Rcircuit.structural_key written)
        (Rev.Rcircuit.structural_key reloaded);
      ignore len;
      Cache.set_dir None;
      (* stale/garbage header: whole file ignored, no exception, and the
         cache keeps working (the file is restarted with a fresh header) *)
      let oc = open_out_bin path in
      output_string oc "dautoq-cache v0 something-else\njunk";
      close_out oc;
      Cache.clear_memory ();
      Cache.set_dir (Some dir);
      let rebuilt = Rev.Synth_cache.esop1 tt in
      Alcotest.(check string) "stale header tolerated"
        (Rev.Rcircuit.structural_key written)
        (Rev.Rcircuit.structural_key rebuilt))

(* A second process that attaches [dir], persists one entry and exits:
   [test_cache.exe --append-child <dir>]. *)
let append_child = "--append-child"

let () =
  match Sys.argv with
  | [| _; flag; dir |] when flag = append_child ->
      Cache.set_dir (Some dir);
      ignore (Rev.Synth_cache.esop1 (Logic.Funcgen.majority 3));
      Cache.set_dir None;
      exit 0
  | _ -> ()

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* This process restarts a stale cache.bin and keeps appending to it
   while another process appends too. Restarting in place used to leave
   this process writing at its own file offset, over the other process's
   records; now both sets survive. Attaching a directory also must not
   leak a descriptor per call. *)
let test_two_processes () =
  fresh ();
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "cache.bin" in
      Out_channel.with_open_bin path (fun oc -> output_string oc "dautoq-cache v0 old\njunk");
      Cache.set_dir (Some dir);
      let child =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; append_child; dir |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      Alcotest.(check bool) "child exits cleanly" true
        (snd (Unix.waitpid [] child) = Unix.WEXITED 0);
      let from_child = Cache.load_file path in
      Alcotest.(check bool) "child persisted records" true (from_child <> []);
      ignore (Rev.Synth_cache.esop1 (Logic.Funcgen.majority 5));
      Cache.set_dir None;
      let all = Cache.load_file path in
      Alcotest.(check bool) "child's records survive this process's appends" true
        (List.for_all (fun r -> List.mem r all) from_child);
      Alcotest.(check bool) "this process's records follow them" true
        (List.length all > List.length from_child);
      if Sys.file_exists "/proc/self/fd" then begin
        let before = open_fds () in
        for _ = 1 to 20 do
          Cache.set_dir (Some dir)
        done;
        Cache.set_dir None;
        Alcotest.(check int) "no descriptor leaked" before (open_fds ())
      end)

let () =
  Alcotest.run "cache"
    [ ( "npn-replay",
        [ prop_cover_minimize; prop_cover_matches_uncached; prop_esop1_replay;
          prop_esop1_on_off_identical ] );
      ("accounting", [ Alcotest.test_case "hit/miss counters" `Quick test_counters ]);
      ( "pass-cache",
        [ Alcotest.test_case "pipeline results memoized" `Quick test_pass_result_cached ] );
      ( "parallel",
        [ Alcotest.test_case "compile_batch jobs invariance" `Quick
            test_batch_jobs_invariance ] );
      ( "persistence",
        [ Alcotest.test_case "round trip" `Quick test_persistence_round_trip;
          Alcotest.test_case "unwritable dir degrades in-memory" `Quick
            test_persistence_unwritable_dir;
          Alcotest.test_case "corrupt and stale files" `Quick
            test_persistence_corrupt_file;
          Alcotest.test_case "two processes, restarted file" `Quick test_two_processes ] ) ]
