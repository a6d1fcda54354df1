(** Wall-time spans with nesting and a propagatable trace context,
    exported as human-readable summaries or Chrome trace_event JSON.

    Spans record only while {!Metrics.enabled} holds; otherwise [with_]
    runs its body directly.  The clock is pluggable ({!set_clock}) so
    tests can make recorded timings deterministic.

    [with_] may be called from any domain: the completed-span buffer is
    mutex-protected, and the trace context (trace id, innermost open
    span, nesting depth) is tracked per domain, so concurrent workers
    (e.g. server request handlers) record correctly nested spans without
    interfering with each other.  {!with_trace} roots a context for one
    request; {!current_context} and {!with_context} carry it into
    spawned domains so their spans join the same trace tree. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;  (** nesting depth, 0 = top-level *)
  ev_seq : int;  (** completion sequence number *)
  ev_trace : string;  (** trace id, [""] outside any {!with_trace} *)
  ev_id : int;  (** span id, unique process-wide *)
  ev_parent : int;  (** enclosing span's id, [0] for a root span *)
  ev_domain : int;  (** id of the domain that recorded the span *)
}

type context = { ctx_trace : string; ctx_parent : int; ctx_depth : int }
(** A point in a trace tree, capturable in one domain and adoptable in
    another. *)

val set_clock : (unit -> int64) -> unit
(** Replace the nanosecond clock (tests inject a fake one here). *)

val use_default_clock : unit -> unit

val now_ns : unit -> int64
(** Current clock value: nanoseconds, never decreasing. *)

val with_ : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f ()] inside a span named [name]; the span is
    recorded when [f] returns or raises.  Spans nest. *)

val with_trace : trace_id:string -> (unit -> 'a) -> 'a
(** [with_trace ~trace_id f] runs [f ()] with the calling domain's trace
    context rooted at [trace_id]: spans recorded inside carry
    [ev_trace = trace_id], and the previous context is restored when [f]
    returns or raises.  Unlike {!with_}, the context switch happens even
    while recording is disabled, so a trace id set before enabling
    observability is not lost. *)

val current_trace : unit -> string
(** The calling domain's trace id ([""] when outside any trace). *)

val current_context : unit -> context
(** Capture the calling domain's trace context, typically just before
    [Domain.spawn]. *)

val with_context : context -> (unit -> 'a) -> 'a
(** Adopt a captured context for the duration of [f]: spans recorded by
    the calling domain attach under [ctx_parent] in [ctx_trace]'s tree.
    Restores the previous context afterwards. *)

val set_phase_hook : ([ `Start | `End ] -> string -> int64 -> unit) -> unit
(** Install a callback fired at every span boundary (while recording is
    enabled) with the span name and the already-read timestamp.  Used by
    {!Recorder} to mirror span boundaries into the flight-recorder ring;
    at most one hook is active. *)

val events : unit -> event list
(** Completed spans in chronological order (start time, then depth, then
    completion order). *)

val events_for_trace : string -> event list
(** The completed spans carrying the given trace id, in chronological
    order. *)

val reset : unit -> unit

val to_chrome_json : unit -> string
(** The recorded spans as a Chrome trace_event JSON array (compact, one
    trailing newline) of complete ("ph":"X") events, timestamps in
    microseconds, the recording domain as [tid], trace/span/parent ids
    under [args] when the span belongs to a trace.  Open the file in
    chrome://tracing or {{:https://ui.perfetto.dev}Perfetto}. *)

val pp_dur : int64 Fmt.t
(** Human-readable duration (ns/us/ms/s). *)

val pp_summary : unit Fmt.t
(** Indented per-span duration summary. *)
