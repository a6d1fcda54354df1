(** Content-addressed, on-disk cache of analysis results.

    Entries are keyed by a canonical digest of the elaborated model (see
    {!Fsa_spec.Elaborate.digest_of_spec}) combined with the analysis
    kind and its result-relevant parameters — never by file name,
    declaration order or exploration job count, so a spec re-parsed,
    re-ordered or explored in parallel hits the same entry.

    Entries are single JSON files written atomically (temp file in the
    cache directory + [rename]) and validated on read: a format-version
    mismatch, a checksum mismatch, a key mismatch or any parse failure
    makes {!find} report a miss, silently falling back to recomputation
    — a corrupt cache can cost time, never correctness.  The directory
    is bounded: after each {!add} the least-recently-used entries (by
    file mtime, which {!find} sets on every hit) are evicted, oldest
    first and ties broken by file name, until the total size is within
    budget.

    Each handle evicts from an in-memory index of the directory (entry
    path to size and LRU time, plus the total size), not from a listing:
    one directory scan fills it at the handle's first {!add}, so
    {!open_} and hits never scan.  {!find} and {!add} write the LRU time
    they record into the entry's mtime, so a rescan rebuilds the same
    order.  Before each {!add} the handle compares the directory's mtime
    with the one it saw after its own last change, and rescans when they
    differ: that catches entries other processes sharing the directory
    have added or evicted since.  Other processes can still
    - weaken the LRU order through their hits, which reorder entries on
      disk but not in this handle's index;
    - change the directory in the same microsecond as this handle's last
      change (or while that change is in progress), which is seen only
      at the next rescan; until then the directory can exceed the
      budget by the bytes they added.
    A mutex guards the index, so domains may share one handle.

    With observability enabled, the store records [store.hits],
    [store.misses] and [store.evictions]. *)

type t

val format_version : int
(** Bumped whenever the entry schema or the digest definition changes;
    entries written by other versions are ignored. *)

val default_dir : unit -> string
(** [$FSA_CACHE_DIR], else [$XDG_CACHE_HOME/fsa], else
    [$HOME/.cache/fsa], else [_fsa_cache] in the working directory. *)

val open_ : ?max_bytes:int -> dir:string -> unit -> t
(** Open (and create if needed) a cache directory.  [max_bytes]
    (default 64 MiB) bounds the total size of the stored entries.
    @raise Sys_error if the directory cannot be created. *)

val dir : t -> string

(** {1 Keys} *)

val digest_hex : string -> string
(** Hex digest of a string (the content-addressing primitive). *)

val cache_key :
  digest:string -> kind:string -> params:(string * string) list -> string
(** The entry key for analysis [kind] over a model with canonical
    [digest] under result-relevant [params] (sorted internally, so the
    caller's order is irrelevant). *)

(** {1 Entries} *)

type entry = {
  e_key : string;  (** the cache key the entry answers *)
  e_kind : string;  (** analysis kind, e.g. ["requirements"] *)
  e_result : Fsa_json.Json.t;
      (** structured result: the reachability summary (state/transition
          counts, minima, maxima, deadlocks) and the derived requirement
          set, as produced by the executor *)
  e_output : string;  (** rendered human report, byte-identical replay *)
  e_exit : int;  (** exit code of the run that produced the entry *)
}

val find : t -> key:string -> entry option
(** Look the key up; validates version and checksum, refreshes the
    entry's LRU time (its mtime, and its place in the index) on a hit,
    and never raises — I/O errors and corrupt entries are misses. *)

val add : t -> entry -> unit
(** Write the entry atomically, then evict least-recently-used entries
    beyond the size budget, taking sizes and order from the handle's
    index.  The directory is scanned only to fill the index, at the
    handle's first [add], and to rebuild it when the directory's mtime
    shows another process's change.  An entry that another process
    already deleted counts as freed, but not in [store.evictions].
    Write failures are silently ignored (the cache is an optimisation,
    not a stateful dependency). *)

val write_atomic : path:string -> string -> unit
(** Write a file whole or not at all: the content goes to a temp file
    in the same directory (named apart by pid and a per-process
    counter), which is then renamed over [path].  A crash mid-write
    never leaves a truncated [path], and a concurrent reader sees the
    old content or the new, never a prefix.  Every file the program
    writes goes through it: store entries, CLI outputs, flight dumps.
    @raise Sys_error when the write or the rename fails; the temp file
    is removed. *)

val occupancy : t -> int * int
(** [(entries, bytes)] currently on disk, by directory scan — not from
    the handle's index, which {!find} and {!open_} do not fill and which
    can miss another process's change until its next rescan.  [(0, 0)]
    when the directory is unreadable. *)

(**/**)

val entry_to_json : entry -> Fsa_json.Json.t
(** The on-disk representation (checksum included), exposed for tests. *)
