(* Content-addressed on-disk result cache.

   One JSON file per entry, named by the cache key.  Writes go through a
   temp file in the same directory followed by [Unix.rename], so readers
   never observe a partial entry; reads re-serialize the payload and
   compare its digest against the stored checksum, so bit rot and
   truncation degrade to a miss instead of a wrong answer.  LRU state is
   the file mtime: [find] stamps the file on a hit, [add] evicts
   oldest-first until the directory is back under its size budget.

   Each handle keeps an index of the directory (entry path -> size and
   LRU time, ordered oldest first, plus the total size) so that [add]
   evicts without listing the directory.  The index is filled by one
   scan at the handle's first [add] and rebuilt whenever the directory's
   mtime is not the one this handle saw after its own last change, i.e.
   when another process added or removed an entry since. *)

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

(* LRU times are whole microseconds: the resolution [Unix.utimes]
   stores, so a time written to an entry's mtime reads back unchanged.
   Entries are ordered oldest first, ties broken by path (every path has
   the same directory prefix, so that is the file name). *)
module Lru = Set.Make (struct
  type t = int * string

  let compare (ta, pa) (tb, pb) =
    let c = Int.compare ta tb in
    if c <> 0 then c else String.compare pa pb
end)

type t = {
  st_dir : string;
  st_max_bytes : int;
  st_lock : Mutex.t;
      (* guards the fields below: server worker domains and batch jobs
         share one handle *)
  st_slots : (string, int * int) Hashtbl.t;  (* entry path -> size, time *)
  mutable st_lru : Lru.t;
  mutable st_total : int;
  mutable st_stamp : int option;
      (* the directory's mtime after this handle's last change; [None]
         until the first scan *)
  mutable st_clock : int;  (* the last LRU time handed out *)
}

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
  { st_dir = dir;
    st_max_bytes = max 0 max_bytes;
    st_lock = Mutex.create ();
    st_slots = Hashtbl.create 64;
    st_lru = Lru.empty;
    st_total = 0;
    st_stamp = None;
    st_clock = 0 }

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
(* LRU index                                                           *)
(* ------------------------------------------------------------------ *)

let us_of_mtime m = Float.to_int (Float.round (m *. 1e6))

(* The middle of the microsecond: [Unix.utimes] truncates to whole
   microseconds, and at present-day epoch values a float is only good
   to a quarter of one, so the edge could land in the neighbour. *)
let mtime_of_us us = (Float.of_int us +. 0.5) /. 1e6

(* Strictly increasing per handle, so the handle's own operations never
   tie and a clock stepping back cannot reorder them. *)
let tick t =
  t.st_clock <- max (us_of_mtime (Unix.gettimeofday ())) (t.st_clock + 1);
  t.st_clock

(* Failure only weakens the ordering a later rescan sees. *)
let set_time path time =
  let m = mtime_of_us time in
  try Unix.utimes path m m with Unix.Unix_error _ -> ()

let forget t path =
  match Hashtbl.find_opt t.st_slots path with
  | None -> ()
  | Some (size, time) ->
    Hashtbl.remove t.st_slots path;
    t.st_lru <- Lru.remove (time, path) t.st_lru;
    t.st_total <- t.st_total - size

let remember t path ~size ~time =
  forget t path;
  Hashtbl.replace t.st_slots path (size, time);
  t.st_lru <- Lru.add (time, path) t.st_lru;
  t.st_total <- t.st_total + size

let dir_stamp t =
  match Unix.stat t.st_dir with
  | { Unix.st_mtime; _ } -> Some (us_of_mtime st_mtime)
  | exception Unix.Unix_error _ -> None

(* Fold [f] over the entry files on disk, with their [stat]. *)
let fold_entries t f init =
  match Sys.readdir t.st_dir with
  | exception Sys_error _ -> init
  | names ->
    Array.fold_left
      (fun acc name ->
        if Filename.check_suffix name ".json" then
          let path = Filename.concat t.st_dir name in
          match Unix.stat path with
          | { Unix.st_kind = Unix.S_REG; _ } as st -> f acc path st
          | _ | (exception Unix.Unix_error _) -> acc
        else acc)
      init names

let scan t =
  Hashtbl.reset t.st_slots;
  t.st_lru <- Lru.empty;
  t.st_total <- 0;
  fold_entries t
    (fun () path st ->
      remember t path ~size:st.Unix.st_size ~time:(us_of_mtime st.Unix.st_mtime))
    ()

(* Oldest-first eviction until the index fits the budget.  A file that
   is already gone was evicted by another process: its bytes are freed
   all the same, but the eviction is not this handle's to count. *)
let evict t =
  let rec go seq =
    if t.st_total > t.st_max_bytes then
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons ((_, path), rest) ->
        (match Unix.unlink path with
        | () ->
          forget t path;
          Metrics.incr m_evictions;
          Recorder.record Recorder.Eviction (Filename.basename path)
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> forget t path
        | exception Unix.Unix_error _ -> ());
        go rest
  in
  go (Lru.to_seq t.st_lru)

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
    (* refresh the LRU clock, on disk and, once scanned, in the index *)
    Mutex.protect t.st_lock (fun () ->
        let time = tick t in
        set_time path time;
        match Hashtbl.find_opt t.st_slots path with
        | Some (size, _) -> remember t path ~size ~time
        | None -> ())
  | None ->
    Metrics.incr m_misses;
    Recorder.record Recorder.Cache_miss (short_key key));
  entry

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
  let path = entry_path t e.e_key in
  let content = Json.to_string (entry_to_json e) ^ "\n" in
  Mutex.protect t.st_lock @@ fun () ->
  let stamp = dir_stamp t in
  if stamp = None || stamp <> t.st_stamp then scan t;
  (match write_atomic ~path content with
  | () ->
    let time = tick t in
    set_time path time;
    remember t path ~size:(String.length content) ~time
  | exception Sys_error _ -> ());
  evict t;
  t.st_stamp <- dir_stamp t

(* Directory scan, not the index: the index is only brought up to date
   by an [add], and can miss another process's change until its next
   rescan, so the only truthful occupancy is what is on disk now. *)
let occupancy t =
  fold_entries t (fun (n, bytes) _ st -> (n + 1, bytes + st.Unix.st_size)) (0, 0)
