(** The compilation cache — canonical-form result reuse across the flow.

    Classical synthesis frameworks amortize repeated compilation with
    canonical-form result stores; this module is that subsystem for the
    whole compile flow:

    - {e typed stores}: string-keyed memo tables created with {!create};
      the reversible layer keys cascades by NPN-canonical truth table
      ({!Rev.Synth_cache}), the pass manager keys lowering/T-par results
      by a structural circuit hash ({!Core.Pass});
    - {e NPN indexing}: {!Cover.minimize} maps a function to its
      NPN-canonical representative, memoizes the representative's ESOP
      cover, and {e replays} the transform on the stored cover (input
      permutation/negation, output negation). Crucially the wrapper
      canonizes and replays {e whether or not the cache is enabled} — the
      cache only memoizes the representative's synthesis, a pure function
      of the class — so results are bit-identical with the cache on or
      off, for any job count, across runs;
    - {e persistence}: one append-only file ([cache.bin] under
      {!set_dir}'s directory, [$DAUTOQ_CACHE] by convention) with a
      versioned header; corrupt or stale entries are ignored on load;
    - {e concurrency}: one global mutex guards every store, so parallel
      oracle compilation over the {!Par} pool shares the tables safely.

    Telemetry: hits and misses are tallied per store (for [cache stats])
    and mirrored as Obs counters [cache.<group>.{hit,miss}] plus
    [cache.persist.bytes]. *)

module Truth_table = Logic.Truth_table
module Npn = Logic.Npn
module Cube = Logic.Cube
module Esop = Logic.Esop
module Esop_opt = Logic.Esop_opt
module Bitops = Logic.Bitops

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)
(* ------------------------------------------------------------------ *)

let mutex = Mutex.create ()
let enabled_ref = ref true

(** [enabled ()] — memoization on? (Replay-based wrappers behave
    identically either way; disabling only stops lookups and inserts.) *)
let enabled () = !enabled_ref

let set_enabled b = enabled_ref := b

(** [default_dir ()] is [$DAUTOQ_CACHE] when set, else ["_cache"]. *)
let default_dir () =
  match Sys.getenv_opt "DAUTOQ_CACHE" with
  | Some d when d <> "" -> d
  | _ -> "_cache"

type stat = { mutable hits : int; mutable misses : int }

(* One registered store, seen through monomorphic closures so the global
   registry and the persistence loader need not know the value type. *)
type reg = {
  r_name : string;
  r_schema : string;
  r_group : string;
  r_stat : stat;
  r_absorb : string -> string -> unit; (* key, marshaled payload *)
  r_clear : unit -> unit;
  r_entries : unit -> int;
}

let registry : reg list ref = ref []

(* ------------------------------------------------------------------ *)
(* Persistence: one append-only record file                            *)
(* ------------------------------------------------------------------ *)

let header = "dautoq-cache v1 " ^ Sys.ocaml_version

let dir_ref : string option ref = ref None
let out_ref : out_channel option ref = ref None
let bytes_persisted_ref = ref 0

(* Records on disk carry their own checksum so a torn append or bit rot
   is detected; reading stops at the first undecodable record (the
   append-only format gives no resynchronization point past it). *)
let record_digest name schema key payload =
  Digest.string (String.concat "\x00" [ name; schema; key; payload ])

let cache_file dir = Filename.concat dir "cache.bin"

let close_out_channel () =
  match !out_ref with
  | Some oc ->
      close_out_noerr oc;
      out_ref := None
  | None -> ()

(* Records of the last load, kept so stores created after [set_dir] can
   still absorb their entries. *)
let disk_records : (string * string * string * string) list ref = ref []

let absorb_into (r : reg) =
  List.iter
    (fun (name, schema, key, payload) ->
      if name = r.r_name && schema = r.r_schema then r.r_absorb key payload)
    !disk_records

(* Read every well-formed record; stale header -> whole file ignored,
   checksum mismatch -> record skipped, undecodable frame -> stop. *)
let load_file path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> []
        | first when first <> header -> [] (* other version: stale, ignored *)
        | _ ->
            let acc = ref [] in
            (try
               while true do
                 let name, schema, key, payload, digest =
                   (input_value ic
                     : string * string * string * string * string)
                 in
                 if record_digest name schema key payload = digest then
                   acc := (name, schema, key, payload) :: !acc
               done
             with _ -> ());
            List.rev !acc)

let open_for_append path =
  (* Keep appending to a valid file. A stale or headerless one is
     restarted by renaming a fresh file over it, never truncated in
     place: another process still appending to the old file then writes
     to the old inode instead of into the new header, and this process
     appends (O_APPEND) after whatever others add to the new file. *)
  let valid =
    try In_channel.with_open_bin path In_channel.input_line = Some header
    with Sys_error _ -> false
  in
  if not valid then begin
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc header;
        output_char oc '\n';
        close_out oc);
    Sys.rename tmp path
  end;
  out_ref := Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path)

let mkdir_p dir = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Persistence I/O failures (unwritable directory, full disk, path that is
   a file, …) must never take down a computation whose results the cache
   merely memoizes: drop to in-memory-only caching, warn once on stderr. *)
let persist_warned = ref false

let disable_persistence reason =
  close_out_channel ();
  dir_ref := None;
  disk_records := [];
  if not !persist_warned then begin
    persist_warned := true;
    Printf.eprintf "cache: persistence disabled (%s); continuing in-memory\n%!" reason
  end

let unix_error_string e fn = Printf.sprintf "%s: %s" fn (Unix.error_message e)

(** [set_dir d] switches the persistent layer: [Some dir] loads
    [dir/cache.bin] into every store (creating the directory and file as
    needed) and appends every insert from now on; [None] turns
    persistence off (in-memory stores are kept). An unusable [dir]
    degrades to in-memory caching with a single stderr warning instead
    of raising. *)
let set_dir d =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      close_out_channel ();
      dir_ref := d;
      match d with
      | None -> disk_records := []
      | Some dir -> (
          persist_warned := false;
          try
            mkdir_p dir;
            let path = cache_file dir in
            disk_records := load_file path;
            List.iter absorb_into !registry;
            open_for_append path
          with
          | Sys_error m -> disable_persistence m
          | Unix.Unix_error (e, fn, _) -> disable_persistence (unix_error_string e fn)))

let dir () = !dir_ref

(* Append one record; caller holds the mutex. A write failure (disk
   full, channel gone stale) degrades to in-memory caching. *)
let persist name schema key payload =
  match !out_ref with
  | None -> ()
  | Some oc -> (
      try
        let before = pos_out oc in
        output_value oc
          (name, schema, key, payload, record_digest name schema key payload);
        flush oc;
        let written = pos_out oc - before in
        bytes_persisted_ref := !bytes_persisted_ref + written;
        Obs.count ~by:written "cache.persist.bytes"
      with Sys_error m -> disable_persistence m)

(** [bytes_persisted ()] — bytes appended to the on-disk layer by this
    process. *)
let bytes_persisted () = !bytes_persisted_ref

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)
(* ------------------------------------------------------------------ *)

type ('k, 'v) store = {
  name : string;
  schema : string;
  group : string; (* Obs counter family: cache.<group>.{hit,miss} *)
  key_of : 'k -> string;
  tbl : (string, 'v) Hashtbl.t;
  stat : stat;
}

(** [create ~name ~schema ~group ~key_of] registers a store. [schema]
    versions the marshaled value representation — bump it when the value
    type changes and persisted entries of older builds are silently
    dropped on load. *)
let create ~name ~schema ~group ~key_of =
  let st = { name; schema; group; key_of; tbl = Hashtbl.create 64; stat = { hits = 0; misses = 0 } } in
  let r =
    { r_name = name;
      r_schema = schema;
      r_group = group;
      r_stat = st.stat;
      r_absorb =
        (fun key payload ->
          if not (Hashtbl.mem st.tbl key) then
            match (Marshal.from_string payload 0 : 'v) with
            | v -> Hashtbl.replace st.tbl key v
            | exception _ -> ());
      r_clear = (fun () -> Hashtbl.reset st.tbl);
      r_entries = (fun () -> Hashtbl.length st.tbl) }
  in
  Mutex.lock mutex;
  registry := !registry @ [ r ];
  absorb_into r;
  Mutex.unlock mutex;
  st

let count_hit st =
  st.stat.hits <- st.stat.hits + 1;
  Obs.count ("cache." ^ st.group ^ ".hit")

let count_miss st =
  st.stat.misses <- st.stat.misses + 1;
  Obs.count ("cache." ^ st.group ^ ".miss")

(** [find st k] looks the key up; [None] both on a genuine miss and when
    the cache is disabled. Tallies hit/miss. *)
let find st k =
  if not !enabled_ref then None
  else begin
    let key = st.key_of k in
    Mutex.lock mutex;
    let r = Hashtbl.find_opt st.tbl key in
    (match r with
    | Some _ -> st.stat.hits <- st.stat.hits + 1
    | None -> st.stat.misses <- st.stat.misses + 1);
    Mutex.unlock mutex;
    (match r with
    | Some _ -> Obs.count ("cache." ^ st.group ^ ".hit")
    | None -> Obs.count ("cache." ^ st.group ^ ".miss"));
    r
  end

(** [add st k v] inserts (and persists, when a directory is set). First
    writer wins on a race — every producer computes the same value. *)
let add st k v =
  if !enabled_ref then begin
    let key = st.key_of k in
    Mutex.lock mutex;
    if not (Hashtbl.mem st.tbl key) then begin
      Hashtbl.replace st.tbl key v;
      persist st.name st.schema key (Marshal.to_string v [])
    end;
    Mutex.unlock mutex
  end

(** [find_or_add st k compute] is the memoized [compute ()]. The mutex is
    {e not} held during [compute] (which may itself consult other
    stores); concurrent producers of the same key duplicate the work but
    agree on the value. *)
let find_or_add st k compute =
  match find st k with
  | Some v -> v
  | None ->
      let v = compute () in
      add st k v;
      v

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type stats_row = {
  store : string;
  group : string;
  hits : int;
  misses : int;
  entries : int;
}

(** [stats ()] — one row per registered store, registration order. *)
let stats () =
  Mutex.lock mutex;
  let rows =
    List.map
      (fun r ->
        { store = r.r_name; group = r.r_group; hits = r.r_stat.hits;
          misses = r.r_stat.misses; entries = r.r_entries () })
      !registry
  in
  Mutex.unlock mutex;
  rows

(** [counters ()] — [(group, (hits, misses))] aggregated over stores. *)
let counters () =
  let tally = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun row ->
      let h, m = Option.value ~default:(0, 0) (Hashtbl.find_opt tally row.group) in
      if not (Hashtbl.mem tally row.group) then order := row.group :: !order;
      Hashtbl.replace tally row.group (h + row.hits, m + row.misses))
    (stats ());
  List.rev_map (fun g -> (g, Hashtbl.find tally g)) !order

(** [summary_string ()] — the one-line report the CLIs print on stderr,
    e.g. ["cache: npn.hit=3 npn.miss=1 … persisted=210B"]. *)
let summary_string () =
  let parts =
    List.concat_map
      (fun (g, (h, m)) -> [ Printf.sprintf "%s.hit=%d" g h; Printf.sprintf "%s.miss=%d" g m ])
      (counters ())
  in
  Printf.sprintf "cache: %s persisted=%dB"
    (String.concat " " parts)
    !bytes_persisted_ref

let reset_stats () =
  Mutex.lock mutex;
  List.iter
    (fun r ->
      r.r_stat.hits <- 0;
      r.r_stat.misses <- 0)
    !registry;
  Mutex.unlock mutex

(** [clear_memory ()] empties every store (tallies included) but leaves
    the persistent file alone — [set_dir (Some dir)] reloads it. *)
let clear_memory () =
  Mutex.lock mutex;
  List.iter
    (fun r ->
      r.r_clear ();
      r.r_stat.hits <- 0;
      r.r_stat.misses <- 0)
    !registry;
  Mutex.unlock mutex

(** [clear ()] empties every store {e and} restarts the persistent file
    (fresh header) when a directory is active. *)
let clear () =
  clear_memory ();
  Mutex.lock mutex;
  disk_records := [];
  (match !dir_ref with
  | None -> ()
  | Some d -> (
      close_out_channel ();
      (try Sys.remove (cache_file d) with Sys_error _ -> ());
      try open_for_append (cache_file d) with
      | Sys_error m -> disable_persistence m
      | Unix.Unix_error (e, fn, _) -> disable_persistence (unix_error_string e fn)));
  Mutex.unlock mutex

(* ------------------------------------------------------------------ *)
(* Memoized NPN canonization                                           *)
(* ------------------------------------------------------------------ *)

(* The exhaustive canonical search (n!·2^(n+1) candidates at n = 6)
   dwarfs the synthesis it guards by orders of magnitude, so the
   (table -> representative, transform) map is itself a store. The
   search is pure; memoizing it can never change a result, it only
   makes warm lookups skip straight to replay. *)
let canon_store : (string, string * Npn.transform) store =
  create ~name:"npn.canon" ~schema:"canon.v1" ~group:"npn" ~key_of:Fun.id

(** [canonical tt] is {!Logic.Npn.canonical}, memoized by the exact
    table. *)
let canonical tt =
  let rep_s, t =
    find_or_add canon_store (Truth_table.to_string tt) (fun () ->
        let rep, t = Npn.canonical tt in
        (Truth_table.to_string rep, t))
  in
  (Truth_table.of_string rep_s, t)

(* ------------------------------------------------------------------ *)
(* The NPN-indexed ESOP cover store                                    *)
(* ------------------------------------------------------------------ *)

(** NPN-canonical memoization of {!Logic.Esop_opt.minimize}, the kernel
    behind every ESOP-based oracle/synthesis path. *)
module Cover = struct
  let store : (string, Esop.t) store =
    create ~name:"npn.cover" ~schema:"esop.v1" ~group:"npn" ~key_of:Fun.id

  (* Drop exactly one occurrence of the constant-1 cube. *)
  let rec drop_tautology = function
    | [] -> []
    | c :: rest -> if Cube.equal c Cube.tautology then rest else c :: drop_tautology rest

  (** [replay t cover] rewrites the canonical representative's cover back
      to the requested function: [rep = Npn.apply t f], so a literal
      [x_j = b] of [rep] becomes [y_{perm(j)} = b ⊕ neg_j] of [f], and an
      output negation XORs in the constant-1 cube (cancelling one if the
      cover already carries it). *)
  let replay (t : Npn.transform) cover =
    let n = Array.length t.perm in
    let rewritten =
      List.map
        (fun c ->
          Cube.of_literals
            (List.map
               (fun (v, pol) -> (t.perm.(v), pol <> Bitops.bit t.input_neg v))
               (Cube.literals n c)))
        cover
    in
    if not t.output_neg then rewritten
    else if List.exists (Cube.equal Cube.tautology) rewritten then
      drop_tautology rewritten
    else rewritten @ [ Cube.tautology ]

  (* NPN canonization is exhaustive (n <= 6); above that an exact-key
     memo still deduplicates identical tables, and very wide tables skip
     the cache (the key alone would be 2^n characters). *)
  let max_npn_vars = 6
  let max_exact_vars = 12

  (* The >12-var bypass used to be silent; now it counts and warns once
     per process so slow synthesis has a visible cause. *)
  let bypass_warned = ref false

  let note_bypass n =
    Obs.count "cache.npn.bypass";
    if not !bypass_warned then begin
      bypass_warned := true;
      Printf.eprintf
        "cache: %d-input cover exceeds the %d-var cache limit; minimizing uncached \
         (consider the XAG/LUT pipeline for wide oracles)\n%!"
        n max_exact_vars
    end

  (** [minimize tt] is extensionally {!Logic.Esop_opt.minimize} — for
      [n <= 6] it always routes through the NPN representative (canonize,
      minimize the representative, replay), cache on or off, so the
      produced cover never depends on cache state. *)
  let minimize tt =
    let n = Truth_table.num_vars tt in
    if n <= max_npn_vars then begin
      let rep, t = Obs.with_span "cache.npn.lookup" (fun () -> canonical tt) in
      let cover =
        find_or_add store (Truth_table.to_string rep) (fun () -> Esop_opt.minimize rep)
      in
      Obs.with_span "cache.npn.replay" (fun () -> replay t cover)
    end
    else if n <= max_exact_vars then
      find_or_add store ("=" ^ Truth_table.to_string tt) (fun () -> Esop_opt.minimize tt)
    else begin
      note_bypass n;
      Esop_opt.minimize tt
    end
end
