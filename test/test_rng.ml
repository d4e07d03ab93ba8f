(* Known answers for the counter-based randomness (Qc.Rng). The values
   were computed by the per-layer copies Rng replaced (the noise shot
   seeding, the device batch seeds and fault rolls, the service job
   seeds and load-trace draws), so a change to any of them — which would
   silently re-seed every noisy histogram, fault sequence and load
   trace — fails here. *)

open Qc

let test_splitmix64 () =
  List.iter
    (fun (z, want) -> Alcotest.(check int64) (Int64.to_string z) want (Rng.splitmix64 z))
    [ (0L, 0L); (1L, 6238072747940578789L);
      (Rng.golden, -2152535657050944081L); (-1L, -5417735806833148549L) ]

let test_derive () =
  List.iter
    (fun (seed, k, want) ->
      Alcotest.(check int) (Printf.sprintf "derive %d %d" seed k) want (Rng.derive ~seed k))
    [ (0, 0, 1626386729513190885); (1, 0, 1227844342346046657);
      (42, 7, 2962518727426382603); (0xA11CE, 239, 996831454144707146) ]

let test_uniform () =
  List.iter
    (fun (seed, i, salt, want) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "uniform %d %d %d" seed i salt)
        want (Rng.uniform ~seed ~i ~salt))
    [ (0, 0, 0, 0x1.5a485874402cp-2); (7, 3, 1, 0x1.148353c2a659ep-1);
      (0xA11CE, 100, 5, 0x1.3014170d3e6e6p-1) ]

let test_shot_state () =
  List.iter
    (fun (seed, shot, a, b) ->
      let st = Rng.shot_state ~seed shot in
      let a' = Random.State.bits st in
      let b' = Random.State.bits st in
      Alcotest.(check (pair int int)) (Printf.sprintf "shot %d %d" seed shot) (a, b) (a', b'))
    [ (0, 0, 927247009, 219256758); (5, 3, 371945177, 232490743);
      (123456, 1023, 961828001, 698775818) ]

let test_device_roll () =
  (* the device's fault rolls are Rng.uniform on the profile's seed *)
  let p = Device.profile_of_spec "flaky,seed=7" in
  Alcotest.(check (float 0.)) "roll = uniform"
    (Rng.uniform ~seed:7 ~i:3 ~salt:1)
    (Device.roll p ~attempt:3 ~salt:1)

let () =
  Alcotest.run "rng"
    [ ( "known-answer",
        [ Alcotest.test_case "splitmix64" `Quick test_splitmix64;
          Alcotest.test_case "derive" `Quick test_derive;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "shot_state" `Quick test_shot_state;
          Alcotest.test_case "device roll" `Quick test_device_roll ] ) ]
