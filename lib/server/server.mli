(** Batch and daemon serving layer over the analysis pipeline.

    [Exec] is the shared executor: every analysis the CLI and the server
    both offer (reach, requirements, analyze, abstract, verify, check,
    report) runs through {!Exec.exec}, which consults the content-addressed
    result cache ({!Fsa_store.Store}) before paying for an exploration
    and stores fresh results for the next caller — so a result computed
    by [fsa reach --cache] is served to a later [fsa serve] request over
    the same model, and vice versa.

    The server itself speaks newline-delimited JSON.  One request per
    line:

    {v
    {"id": .., "op": "reach", "source": "..", "max_states": 10000}
    {"id": .., "op": "requirements", "spec": "path.fsa", "method": "direct"}
    v}

    [op] is one of {!Exec.all_ops} — [reach], [requirements],
    [analyze], [abstract], [verify], [check], [report] — or the
    protocol-level [stats] (below); the model comes either inline
    ([source]) or from a file ([spec]).  Optional members: the
    {!Exec.params} fields, decoded by {!Exec.params_of_json} —
    [max_states] (integer, clamped to the server's bound), [method]
    ([direct]|[abstract]), [flow] (boolean: skip dependence tests for
    pairs the static information-flow analysis proves independent —
    never changes the verdicts), [reduce] ([sym]|[por]|[sym+por]), [sos]
    (string) and [keep] (list of action names or a comma-separated
    string), each honoured by the ops {!Exec.fields} names — plus
    [timeout_ms] (integer, clamped to the server's budget), [cache]
    (boolean; [false] bypasses the store for one request) and
    [trace_id] (string, a client-chosen identifier for the request's
    trace; one is generated when absent).  An absent member takes its
    default; a present member of the wrong JSON type is answered with a
    [bad_request] error naming it.

    Each response is a single line, in request order, echoing the
    request's trace id:

    {v
    {"id": .., "trace_id": "..", "ok": true, "cached": false, "exit": 0,
     "result": {..}}
    {"id": .., "trace_id": "..", "ok": false,
     "error": {"kind": "timeout", "message": ".."}}
    v}

    Error kinds: [parse_error], [bad_request], [too_large], [timeout],
    [io_error], [internal].

    {b Tracing.}  Each request runs under {!Fsa_obs.Span.with_trace}
    with its trace id, so the spans it records — [server.request] and
    the analysis phases beneath it — form one tree per request even when
    several worker domains serve concurrently, and the flight recorder
    ({!Fsa_obs.Recorder}) attributes queueing, cache and phase events to
    it.  When a request ends in [timeout], [too_large] or [internal] and
    the server was configured with a flight directory, everything the
    recorder still holds for that trace is dumped to
    [<flight_dir>/<trace_id>.json]; requests slower than [sv_slow_ms]
    are logged and recorded as [slow] events.

    {b Introspection.}  The [stats] op takes no model and returns a
    point-in-time snapshot: interpolated p50/p90/p99 latency estimates,
    queue depth, per-worker in-flight state (op, trace id, busy time),
    cache occupancy, recorder fill, and the whole metrics registry in
    Prometheus text exposition format under ["prometheus"].

    With observability enabled the layer records [server.requests],
    [server.errors], a [server.latency_ms] histogram and one
    [server.request] span per request. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Json = Fsa_store.Json
module Store = Fsa_store.Store

type config = {
  sv_workers : int;  (** worker domains handling requests *)
  sv_max_states : int;  (** hard state-space bound per request *)
  sv_timeout_ms : int;  (** wall-clock budget per request; 0 = none *)
  sv_store : Store.t option;  (** result cache; [None] disables caching *)
  sv_stakeholder : Action.t -> Agent.t;
      (** stakeholder assignment for the tool path (requirements) *)
  sv_flight_dir : string option;
      (** where to write flight-recorder dumps for requests ending in
          [timeout], [too_large] or [internal]; [None] disables dumps *)
  sv_slow_ms : float;
      (** slow-request threshold in milliseconds; requests above it are
          logged and recorded as [slow] events.  [0.] disables the
          check. *)
}

val config :
  ?workers:int ->
  ?max_states:int ->
  ?timeout_ms:int ->
  ?store:Store.t ->
  ?stakeholder:(Action.t -> Agent.t) ->
  ?flight_dir:string ->
  ?slow_ms:float ->
  unit ->
  config
(** Defaults: 1 worker, 1_000_000 states, no timeout, no store, the
    paper's default stakeholder assignment, no flight dumps, no
    slow-request threshold. *)

exception Request_timeout
(** A request exceeded its wall-clock budget (checked cooperatively
    during state-space exploration). *)

exception Usage_error of string
(** The request or invocation is malformed at the analysis level
    (unknown sos, empty keep set, no check declarations, ...). *)

exception Too_large of int * string
(** {!Fsa_lts.Lts.State_space_too_large} raised from {!Exec.exec},
    enriched with the structural growth hint of
    {!Fsa_struct.Structural.growth_hint} naming the fastest-growing
    state components (possibly [""]). *)

(** {1 Shared executor} *)

module Exec : sig
  type op = Reach | Requirements | Analyze | Abstract | Verify | Check | Report

  val all_ops : op list

  val op_of_string : string -> op option
  val op_to_string : op -> string

  val meth_of_string : string -> Fsa_core.Analysis.dependence_method option
  val meth_to_string : Fsa_core.Analysis.dependence_method -> string

  type outcome = {
    oc_result : Json.t;  (** structured result (summary, requirements, ...) *)
    oc_output : string;  (** rendered human report, byte-identical replay *)
    oc_exit : int;  (** exit code the CLI should use: 0 clean, 1 findings *)
    oc_cached : bool;
  }

  type params = {
    meth : Fsa_core.Analysis.dependence_method;
    max_states : int;
    flow : bool;
    reduce : Fsa_sym.Sym.kind option;
    sos : string option;
    keep : string list option;
  }
  (** The options of one analysis.  The CLI flags, the request members
      of {!handle_line} and the labels of {!run} all build this record. *)

  val defaults : params
  (** Abstract method, 1_000_000 states, nothing else set. *)

  type field = Meth | Max_states | Flow | Reduce | Sos | Keep

  val fields : op -> field list
  (** The fields an op honours; it ignores the others. *)

  val key_params : op -> params -> (string * string) list
  (** The cache-key params of an op's outcome, derived from its
      {!fields} only.  [method] adds an ["engine"] param (the shared
      engine's version, or ["direct"]), so entries of another engine
      generation never replay; [reduce] and [sos] appear only when
      set. *)

  val params_of_json : bound:int -> Json.t -> params
  (** Decode the request members ["method"], ["max_states"], ["flow"],
      ["reduce"], ["sos"] and ["keep"], whatever the op.  An absent
      member takes its {!defaults} value, except [max_states], which
      defaults to [bound] and is clamped to it.
      @raise Usage_error naming a mistyped member, or on an unknown
      method or reduction or a non-positive [max_states]. *)

  val exec :
    config ->
    op:op ->
    ?progress:Fsa_obs.Progress.t ->
    ?deadline_ns:int64 ->
    ?cache:bool ->
    file:string ->
    params ->
    Fsa_spec.Ast.t ->
    outcome
  (** Run one analysis, cache-aware.  On a hit the stored outcome is
      replayed without touching the state space; on a miss the analysis
      runs and (if it completes) its outcome is stored under
      {!key_params} and the digest of the spec parts the op reads.
      [Check] is never cached: its diagnostics carry source locations,
      which the location-free digest deliberately ignores.  Timeouts and
      other errors propagate as exceptions and are never cached.
      [flow] prunes pairs with {!Fsa_flow.Flow} taint reachability; they
      are attributed ["static-flow"] in the report coverage and the
      per-pair ["pruned_by"] timing member.  [reduce] requests symmetry
      / partial-order reduction ({!Fsa_sym.Sym}).  Verify downgrades it
      to its symmetry half before keying and running ([sym+por] to
      [sym], [por] to none): the POR-reduced graph is unsound for
      arbitrary properties, and the symmetry path model-checks the
      exact unfolded graph.
      Under [meth = Abstract] the dependence pairs are answered by the
      shared multi-pair abstraction engine ({!Fsa_core.Analysis.tool}).
      With a store configured, its quotient is cached under kind
      ["quotient"], keyed by the APA digest, the erased-alphabet digest,
      [max_states], the effective reduction and the engine version.
      [Report] renders the {!Fsa_report.Report} view: the tool path
      when the spec elaborates instances (or the manual path for an
      explicitly named [sos]), otherwise the manual path over every
      declared functional model.  Requirements and report outcomes are
      keyed under the APA+models digest, since the embedded
      classification maps onto the functional models.
      [deadline_ns] (absolute, {!Fsa_obs.Span.now_ns} clock) arms a
      cooperative timeout checked during exploration; it is only used
      when no [progress] reporter is supplied.
      @raise Fsa_spec.Loc.Error on specs that do not elaborate
      @raise Usage_error on analysis-level misuse, including an
      exploring op on a spec without instances
      @raise Request_timeout past the deadline
      @raise Too_large beyond [max_states] *)

  val run :
    config ->
    op:op ->
    ?meth:Fsa_core.Analysis.dependence_method ->
    ?max_states:int ->
    ?flow:bool ->
    ?sos:string ->
    ?keep:string list ->
    ?reduce:Fsa_sym.Sym.kind ->
    ?progress:Fsa_obs.Progress.t ->
    ?deadline_ns:int64 ->
    ?cache:bool ->
    file:string ->
    Fsa_spec.Ast.t ->
    outcome
  (** {!exec} on the record of its labels; an absent one takes its
      {!defaults} value. *)
end

(** {1 Request handling} *)

val handle_line : ?seq:int -> config -> string -> string
(** Map one request line to one response line (no trailing newline).
    Never raises: every failure becomes a structured error response.
    The whole request runs under its trace id (accepted from the
    request's ["trace_id"] member or generated), which the response
    echoes.  [seq] is the server-side request sequence number, used only
    to label the flight recorder's dequeue event. *)

(** {1 Serving} *)

val request_shutdown : unit -> unit
(** Ask a running server loop to stop reading, drain the requests
    already accepted, flush their responses and return.  Safe to call
    from a signal handler. *)

val serve_channels : config -> fd_in:Unix.file_descr -> out_channel -> unit
(** Serve newline-delimited JSON requests from [fd_in] until end of
    file or {!request_shutdown}, writing one response line per request,
    in request order, to the output channel.  Requests are handled by
    [sv_workers] worker domains. *)

val serve_unix_socket : config -> path:string -> unit
(** Bind a Unix-domain stream socket at [path] and serve connections
    (serially) until {!request_shutdown}; the socket file is removed on
    exit. *)

(** {1 Batch runs} *)

module Batch : sig
  val run : config -> op:Exec.op -> jobs:int -> string list -> int
  (** Run the analysis over each spec file, [jobs] files in parallel,
      cache-aware.  Prints one JSON result line per file to stdout, in
      input order, and a summary to stderr; returns the exit code (0 if
      every file succeeded with exit 0, 1 otherwise). *)
end
