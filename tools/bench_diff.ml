(* Compare two BENCH*.json reports — bechamel runtimes by default,
   corpus metric snapshots with --corpus — and optionally gate on
   regressions.

   Usage:
     bench_diff OLD.json NEW.json [--corpus] [--fail-on-regression]
                [--threshold m=frac[,m=frac...]] [--only PREFIX] [--json FILE]

   Both reports are named explicitly; a missing or unparsable one exits
   2. Without --fail-on-regression the diff is a report; with it, a
   metric that worsens past its threshold exits 1.

   Thresholds are fractions of the old value: in corpus mode any metric
   name from Corpus.Diff.default_thresholds ("t_count=0.05,depth=0.1");
   in benchmarks mode the single metric is "runtime" (default 0.25 — a
   run must slow down by >25% to count as a regression). --only PREFIX
   restricts benchmarks mode to rows whose name starts with PREFIX, so
   `bench_diff --only sv_run_ --threshold runtime=0.1 --fail-on-regression`
   gates just the statevector kernel-plan runs.

   Reports with a "serve" section also contribute synthetic
   rows named serve_load/<percentile> — the service's virtual-clock
   queue-wait and end-to-end latency percentiles — so
   `bench_diff --only serve_` tracks tail-latency drift across PRs the
   same way the runtime rows track kernel drift. *)

let read_json path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Obs.Json.parse s

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  output_char oc '\n';
  close_out oc

let field name = function
  | Obs.Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Benchmarks (bechamel runtime) mode                                  *)
(* ------------------------------------------------------------------ *)

(* [(name, ns_per_run)] rows of one report's "benchmarks" array. *)
let benchmarks json =
  match field "benchmarks" json with
  | Some (Obs.Json.Arr items) ->
      List.filter_map
        (fun item ->
          match (field "name" item, field "ns_per_run" item) with
          | Some (Obs.Json.String name), Some (Obs.Json.Num ns) -> Some (name, ns)
          | _ -> None)
        items
  | _ -> []

(* Serve latency percentiles as synthetic benchmark rows. The section
   stores virtual microseconds; rows convert to ns so the shared pretty
   printer and the runtime-threshold semantics (bigger = worse) apply
   unchanged. Reports without a "serve" member contribute nothing. *)
let serve_rows json =
  match field "serve" json with
  | Some (Obs.Json.Obj kvs) ->
      List.filter_map
        (fun metric ->
          match List.assoc_opt (metric ^ "_us") kvs with
          | Some (Obs.Json.Num us) -> Some ("serve_load/" ^ metric, us *. 1e3)
          | _ -> None)
        [ "queue_wait_p50"; "queue_wait_p99"; "latency_p50"; "latency_p99" ]
  | _ -> []

let pr_label json =
  match field "pr" json with
  | Some (Obs.Json.Num f) -> Printf.sprintf "pr%.0f" f
  | _ -> "?"

let pretty_ns ns =
  if ns > 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
  else Printf.sprintf "%8.1f ns" ns

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Bechamel rows are named "<suite>/<case>"; let --only match either the
   full name or the case component, so `--only sv_run_` works without
   spelling the suite. *)
let name_matches ~prefix name =
  starts_with ~prefix name
  || starts_with ~prefix
       (match String.rindex_opt name '/' with
       | Some i -> String.sub name (i + 1) (String.length name - i - 1)
       | None -> name)

(* Renders the runtime table, returns (regressed names, json rows). *)
let diff_benchmarks ~runtime_threshold ~only old_path new_path old_json new_json =
  let keep (name, _) =
    match only with None -> true | Some p -> name_matches ~prefix:p name
  in
  let old_rows = List.filter keep (benchmarks old_json @ serve_rows old_json)
  and new_rows = List.filter keep (benchmarks new_json @ serve_rows new_json) in
  Printf.printf "bench_diff: %s (%s) vs %s (%s)\n" old_path (pr_label old_json)
    new_path (pr_label new_json);
  Printf.printf "%-42s %12s %12s %9s\n" "benchmark" "old" "new" "speedup";
  let seen = ref 0 in
  let regressions = ref [] in
  let rows = ref [] in
  List.iter
    (fun (name, new_ns) ->
      match List.assoc_opt name old_rows with
      | Some old_ns when new_ns > 0. ->
          incr seen;
          let regressed = new_ns > old_ns *. (1. +. runtime_threshold) in
          if regressed then regressions := name :: !regressions;
          rows :=
            Obs.Json.Obj
              [ ("name", Obs.Json.String name); ("old_ns", Obs.Json.Num old_ns);
                ("new_ns", Obs.Json.Num new_ns);
                ("regressed", Obs.Json.Bool regressed) ]
            :: !rows;
          Printf.printf "%-42s %12s %12s %8.2fx%s\n" name (pretty_ns old_ns)
            (pretty_ns new_ns) (old_ns /. new_ns)
            (if regressed then "  REGRESSION" else "")
      | _ -> Printf.printf "%-42s %12s %12s %9s\n" name "-" (pretty_ns new_ns) "new")
    new_rows;
  List.iter
    (fun (name, old_ns) ->
      if not (List.mem_assoc name new_rows) then
        Printf.printf "%-42s %12s %12s %9s\n" name (pretty_ns old_ns) "-" "dropped")
    old_rows;
  if !seen = 0 then print_endline "bench_diff: no common benchmarks to compare";
  let regressions = List.rev !regressions in
  (match regressions with
  | [] -> Printf.printf "no runtime regressions (threshold %g)\n" runtime_threshold
  | rs ->
      Printf.printf "%d runtime regression(s) past threshold %g: %s\n"
        (List.length rs) runtime_threshold (String.concat ", " rs));
  let json =
    Obs.Json.Obj
      [ ("mode", Obs.Json.String "benchmarks");
        ("runtime_threshold", Obs.Json.Num runtime_threshold);
        ("benchmarks", Obs.Json.Arr (List.rev !rows));
        ("regressions",
         Obs.Json.Arr (List.map (fun n -> Obs.Json.String n) regressions)) ]
  in
  (regressions, json)

(* ------------------------------------------------------------------ *)
(* Argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

type opts = {
  paths : string list; (* positional: [old; new] *)
  corpus : bool;
  fail_on_regression : bool;
  threshold : string option; (* raw "m=v,m=v" spec *)
  only : string option; (* benchmark-name prefix filter *)
  json_out : string option;
}

let usage =
  "usage: bench_diff OLD.json NEW.json [--corpus] [--fail-on-regression] \
   [--threshold m=frac[,m=frac...]] [--only PREFIX] [--json FILE]"

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--corpus" :: rest -> go { o with corpus = true } rest
    | "--fail-on-regression" :: rest -> go { o with fail_on_regression = true } rest
    | "--threshold" :: spec :: rest -> go { o with threshold = Some spec } rest
    | "--only" :: prefix :: rest -> go { o with only = Some prefix } rest
    | "--json" :: file :: rest -> go { o with json_out = Some file } rest
    | ("--threshold" | "--only" | "--json") :: [] ->
        prerr_endline usage;
        exit 2
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' ->
        Printf.eprintf "bench_diff: unknown flag %s\n%s\n" flag usage;
        exit 2
    | path :: rest -> go { o with paths = o.paths @ [ path ] } rest
  in
  go
    { paths = []; corpus = false; fail_on_regression = false; threshold = None;
      only = None; json_out = None }
    (List.tl (Array.to_list argv))

(* In benchmarks mode the only metric is the runtime itself. *)
let runtime_threshold_of_spec = function
  | None -> 0.25
  | Some spec -> (
      match String.split_on_char '=' spec with
      | [ "runtime"; v ] -> (
          match float_of_string_opt v with
          | Some f when f >= 0. -> f
          | _ ->
              Printf.eprintf "bench_diff: bad runtime threshold %s\n" v;
              exit 2)
      | _ ->
          Printf.eprintf
            "bench_diff: benchmarks mode understands only runtime=FRAC \
             (got %s); use --corpus for per-metric thresholds\n"
            spec;
          exit 2)

let () =
  let o = parse_args Sys.argv in
  let old_path, new_path =
    match o.paths with
    | [ op; np ] -> (op, np)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let fail msg =
    Printf.eprintf "bench_diff: %s\n" msg;
    exit 2
  in
  if o.corpus then begin
    match (Corpus.read_snapshot old_path, Corpus.read_snapshot new_path) with
    | exception (Sys_error msg | Obs.Json.Parse_error msg) -> fail msg
    | exception Corpus.Bad_snapshot msg -> fail (Printf.sprintf "bad corpus snapshot: %s" msg)
    | old_s, new_s ->
        let thresholds =
          match o.threshold with
          | None -> Corpus.Diff.default_thresholds
          | Some spec -> (
              try Corpus.Diff.parse_thresholds spec
              with Corpus.Diff.Bad_threshold msg -> fail msg)
        in
        let report = Corpus.Diff.diff ~thresholds old_s new_s in
        Printf.printf "bench_diff: %s vs %s (corpus)\n" old_path new_path;
        print_string (Corpus.Diff.render report);
        Option.iter
          (fun file -> write_file file (Obs.Json.to_string (Corpus.Diff.to_json report)))
          o.json_out;
        if o.fail_on_regression && Corpus.Diff.has_regressions report then exit 1
  end
  else
    match (read_json old_path, read_json new_path) with
    | exception (Sys_error msg | Obs.Json.Parse_error msg) -> fail msg
    | old_json, new_json ->
        let runtime_threshold = runtime_threshold_of_spec o.threshold in
        let regressions, json =
          diff_benchmarks ~runtime_threshold ~only:o.only old_path new_path old_json
            new_json
        in
        Option.iter (fun file -> write_file file (Obs.Json.to_string json)) o.json_out;
        if o.fail_on_regression && regressions <> [] then exit 1
