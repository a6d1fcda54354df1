(** Process-wide metrics registry: counters, gauges and fixed-bucket
    histograms.

    Instruments are registered by name in a global table; registering the
    same name twice returns the same instrument (registering it with a
    different kind raises [Invalid_argument]).  Recording is O(1) and
    gated on a single process-wide flag — when disabled (the default),
    every record operation is one load and one branch and no state is
    mutated, so instrumented hot paths are effectively free.

    Counter and gauge recording is atomic and lock-free; registration,
    histogram recording, [reset] and the dump functions are serialised
    by an internal mutex.  All operations may therefore be performed
    from any domain (parallel exploration workers and server request
    workers record into shared instruments). *)

val set_enabled : bool -> unit
(** Turn recording on or off (off by default).  Registration is always
    possible; only recording is gated. *)

val enabled : unit -> bool

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Register (or look up) the counter with the given name. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) when recording is enabled. *)

val counter_value : counter -> int
val counter_name : counter -> string

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val set_gauge_max : gauge -> float -> unit
(** Raise the gauge to [v] if [v] exceeds its current value
    (high-watermark semantics). *)

val gauge_value : gauge -> float
val gauge_name : gauge -> string

(** {1 Histograms} *)

type histogram

val default_buckets : float array

val histogram : ?buckets:float array -> string -> histogram
(** Fixed-bucket histogram.  [buckets] are strictly increasing upper
    bounds; an implicit overflow bucket is appended.  A value [v] is
    counted in the first bucket whose bound is [>= v]. *)

val observe : histogram -> float -> unit
val histogram_counts : histogram -> int array
(** Per-bucket counts, the last entry being the overflow bucket. *)

val histogram_sum : histogram -> float
val histogram_count : histogram -> int
val histogram_name : histogram -> string

val quantile : histogram -> float -> float
(** [quantile h q] is a bucket-interpolated estimate of the [q]-quantile
    (e.g. [0.5] for the median) of the observed values: the bucket
    holding the rank-[q] observation is located and the estimate
    interpolated linearly between its bounds.  Values that fell in the
    overflow bucket are reported as the last finite bound.  [0.] on an
    empty histogram; [q] is clamped to [0, 1]. *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zero every registered instrument (registrations are kept). *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val gauges : unit -> (string * float) list

val to_json : unit -> Fsa_json.Json.t
(** Deterministic JSON dump of the whole registry:
    [{"counters": {..}, "gauges": {..}, "histograms": {..}}], keys sorted
    by name.  Each histogram is
    [{"bounds": [..], "counts": [..], "sum": .., "count": ..}]. *)

val to_prometheus : unit -> string
(** The registry in Prometheus text exposition format.  Names are
    sanitised for Prometheus ([.] and other illegal characters become
    [_], so ["server.latency_ms"] is exposed as [server_latency_ms]);
    histograms are rendered with cumulative [_bucket{le="..."}] series,
    a [+Inf] bucket, [_sum] and [_count]. *)

val pp_summary : unit Fmt.t
(** Human-readable table of every instrument. *)
