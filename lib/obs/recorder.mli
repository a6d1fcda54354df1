(** Flight recorder: a bounded, domain-safe ring buffer of structured
    events.

    The recorder keeps the most recent {!capacity} events — request
    queueing, cache traffic, span (phase) boundaries, cache evictions,
    errors, slow requests — so that when a request ends in a timeout or
    an internal error the server can dump everything that happened
    around it, keyed by trace id ({!dump_trace}), without having logged
    anything during normal operation.

    Recording is gated on {!Metrics.enabled} and is cheap when idle (one
    load and one branch); events may be recorded from any domain.  Span
    boundaries are mirrored into the ring automatically: this module
    installs itself as {!Span.set_phase_hook} at initialisation. *)

type kind =
  | Enqueue  (** a request entered the server's work queue *)
  | Dequeue  (** a worker domain picked the request up *)
  | Cache_hit
  | Cache_miss
  | Phase_start  (** a span opened ([r_detail] = span name) *)
  | Phase_end
  | Eviction  (** the result cache evicted an entry *)
  | Error  (** a request failed ([r_detail] = kind and message) *)
  | Slow  (** a request exceeded the slow-request threshold *)

type event = {
  r_seq : int;  (** arrival sequence number, monotonically increasing *)
  r_time_ns : int64;  (** {!Span.now_ns} at recording time *)
  r_domain : int;  (** id of the recording domain *)
  r_trace : string;  (** trace id, [""] outside any trace *)
  r_kind : kind;
  r_detail : string;
}

val kind_to_string : kind -> string

val record : ?trace:string -> ?time_ns:int64 -> kind -> string -> unit
(** [record kind detail] appends an event, overwriting the oldest one
    once the ring is full.  [trace] defaults to {!Span.current_trace},
    [time_ns] to {!Span.now_ns}.  A no-op while recording is disabled. *)

val events : unit -> event list
(** The surviving events, oldest first. *)

val events_for_trace : string -> event list

val dump_trace : trace_id:string -> string
(** Deterministic JSON dump of the surviving events carrying [trace_id]:
    [{"trace_id": .., "events": [..]}], events in sequence order,
    compact with one trailing newline. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Resize the ring (clearing it).  The default capacity is 1024. *)

val size : unit -> int
(** Number of events currently held. *)

val dropped : unit -> int
(** Number of events overwritten since the last {!reset}/{!set_capacity}. *)

val recorded : unit -> int
(** Total number of events recorded since the last
    {!reset}/{!set_capacity}. *)

val reset : unit -> unit
