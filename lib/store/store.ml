(* Content-addressed on-disk result cache.

   One JSON file per entry, named by the cache key.  Writes go through a
   temp file in the same directory followed by [Unix.rename], so readers
   never observe a partial entry; reads re-serialize the payload and
   compare its digest against the stored checksum, so bit rot and
   truncation degrade to a miss instead of a wrong answer.  LRU state is
   the file mtime: [find] touches the file on a hit, [add] evicts
   oldest-first until the directory is back under its size budget. *)

module Json = Fsa_json.Json
module Metrics = Fsa_obs.Metrics
module Recorder = Fsa_obs.Recorder

let m_hits = Metrics.counter "store.hits"
let m_misses = Metrics.counter "store.misses"
let m_evictions = Metrics.counter "store.evictions"

(* Enough of a key to correlate flight-recorder events with entries
   without blowing up the ring with full 32-char digests. *)
let short_key key = if String.length key > 12 then String.sub key 0 12 else key

(* v2: requirements/analyze outcomes embed an Fsa_report view, and
   requirements keys moved to the APA+models digest — v1 entries must
   not replay into the new shapes. *)
let format_version = 2

type t = { st_dir : string; st_max_bytes : int }

let dir t = t.st_dir

let default_dir () =
  match Sys.getenv_opt "FSA_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "fsa"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "fsa"
      | _ -> "_fsa_cache"))

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(max_bytes = 64 * 1024 * 1024) ~dir () =
  (try mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     raise (Sys_error
              (Printf.sprintf "%s: cannot create cache directory (%s)" dir
                 (Unix.error_message e))));
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": cache path is not a directory"));
  { st_dir = dir; st_max_bytes = max 0 max_bytes }

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let digest_hex s = Digest.to_hex (Digest.string s)

let cache_key ~digest ~kind ~params =
  let params =
    List.sort (fun (a, _) (b, _) -> String.compare a b) params
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
  in
  digest_hex
    (String.concat "\x00" (digest :: kind :: params))

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_key : string;
  e_kind : string;
  e_result : Json.t;
  e_output : string;
  e_exit : int;
}

(* The payload object, in fixed member order; the checksum is the digest
   of this exact serialization. *)
let payload_json e =
  Json.Obj
    [ ("format", Json.Int format_version);
      ("key", Json.Str e.e_key);
      ("kind", Json.Str e.e_kind);
      ("result", e.e_result);
      ("output", Json.Str e.e_output);
      ("exit", Json.Int e.e_exit) ]

let entry_to_json e =
  match payload_json e with
  | Json.Obj members ->
    Json.Obj
      (members
      @ [ ("checksum", Json.Str (digest_hex (Json.to_string (payload_json e))))
        ])
  | _ -> assert false

let entry_of_json ~key json =
  let ( let* ) o f = Option.bind o f in
  let* format = Option.bind (Json.member "format" json) Json.to_int in
  if format <> format_version then None
  else
    let* k = Option.bind (Json.member "key" json) Json.to_str in
    if not (String.equal k key) then None
    else
      let* kind = Option.bind (Json.member "kind" json) Json.to_str in
      let* result = Json.member "result" json in
      let* output = Option.bind (Json.member "output" json) Json.to_str in
      let* exit_ = Option.bind (Json.member "exit" json) Json.to_int in
      let* checksum = Option.bind (Json.member "checksum" json) Json.to_str in
      let e =
        { e_key = k;
          e_kind = kind;
          e_result = result;
          e_output = output;
          e_exit = exit_ }
      in
      if String.equal checksum (digest_hex (Json.to_string (payload_json e)))
      then Some e
      else None

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)
(* ------------------------------------------------------------------ *)

let entry_path t key = Filename.concat t.st_dir (key ^ ".json")

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let find t ~key =
  let path = entry_path t key in
  let entry =
    match read_file path with
    | None -> None
    | Some content -> (
      match Json.parse content with
      | Error _ -> None
      | Ok json -> entry_of_json ~key json)
  in
  (match entry with
  | Some _ ->
    Metrics.incr m_hits;
    Recorder.record Recorder.Cache_hit (short_key key);
    (* refresh the LRU clock; failure only weakens eviction ordering *)
    (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ())
  | None ->
    Metrics.incr m_misses;
    Recorder.record Recorder.Cache_miss (short_key key));
  entry

(* Oldest-first eviction until the directory fits the budget.  Entries
   sharing an mtime (coarse clocks) tie-break on file name for
   determinism. *)
let evict t =
  match Sys.readdir t.st_dir with
  | exception Sys_error _ -> ()
  | names ->
    let entries =
      Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name ".json" then
               let path = Filename.concat t.st_dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, st_size, st_mtime)
               | _ | (exception Unix.Unix_error _) -> None
             else None)
    in
    let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 entries in
    if total > t.st_max_bytes then begin
      let by_age =
        List.sort
          (fun (pa, _, ma) (pb, _, mb) ->
            let c = Float.compare ma mb in
            if c <> 0 then c else String.compare pa pb)
          entries
      in
      let excess = ref (total - t.st_max_bytes) in
      List.iter
        (fun (path, size, _) ->
          if !excess > 0 then begin
            (try
               Sys.remove path;
               excess := !excess - size;
               Metrics.incr m_evictions;
               Recorder.record Recorder.Eviction (Filename.basename path)
             with Sys_error _ -> ())
          end)
        by_age
    end

(* Distinct per writer even within one process: server worker domains
   share a pid, so a plain pid-keyed name could interleave two writers
   of the same file. *)
let tmp_seq = Atomic.make 0

let write_atomic ~path content =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d.%d.tmp" (Filename.basename path) (Unix.getpid ())
         (Atomic.fetch_and_add tmp_seq 1))
  in
  let fail msg =
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Sys_error msg)
  in
  try
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
    Unix.rename tmp path
  with
  | Sys_error msg -> fail msg
  | Unix.Unix_error (e, _, _) -> fail (path ^ ": " ^ Unix.error_message e)

let add t e =
  (try
     write_atomic ~path:(entry_path t e.e_key)
       (Json.to_string (entry_to_json e) ^ "\n")
   with Sys_error _ -> ());
  evict t

(* Directory scan, not bookkeeping: the cache is shared between
   processes, so the only truthful occupancy is what is on disk now. *)
let occupancy t =
  match Sys.readdir t.st_dir with
  | exception Sys_error _ -> (0, 0)
  | names ->
    Array.fold_left
      (fun (n, bytes) name ->
        if Filename.check_suffix name ".json" then
          match Unix.stat (Filename.concat t.st_dir name) with
          | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (n + 1, bytes + st_size)
          | _ -> (n, bytes)
          | exception Unix.Unix_error _ -> (n, bytes)
        else (n, bytes))
      (0, 0) names
