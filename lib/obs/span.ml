(* Wall-time spans with nesting and a propagatable trace context.

   A span measures one phase of the pipeline (elaborate, explore, derive,
   ...).  Spans nest lexically via [with_]; each completed span is kept in
   a process-wide buffer and can be exported either as a human-readable
   indented summary or as Chrome trace_event JSON ("ph":"X" complete
   events, timestamps in microseconds) that chrome://tracing and Perfetto
   open directly.

   Each domain carries a trace context — a trace id plus the id of the
   innermost open span — in domain-local state.  [with_trace] roots a
   context for one request; [current_context]/[with_context] hand it to a
   freshly spawned domain, so the spans a worker records attach to the
   same trace tree as its parent's.  Span ids are drawn from one global
   counter, so parent links are unambiguous across domains.

   The clock is pluggable so that tests can inject a deterministic fake;
   the default derives a never-decreasing nanosecond clock from
   [Unix.gettimeofday].  Like metrics, recording is gated on
   [Metrics.enabled]: with observability off, [with_] is a tail call to
   its body. *)

module Json = Fsa_json.Json

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_ns : int64;
  ev_dur_ns : int64;
  ev_depth : int;
  ev_seq : int;
  ev_trace : string;
  ev_id : int;
  ev_parent : int;
  ev_domain : int;
}

type context = { ctx_trace : string; ctx_parent : int; ctx_depth : int }

(* Rebased to process start: small offsets keep full double precision in
   [gettimeofday], giving effectively-nanosecond resolution, and trace
   timestamps start near zero.  Clamped to be non-decreasing. *)
let default_clock =
  let epoch = Unix.gettimeofday () in
  let last = ref 0L in
  fun () ->
    let now = Int64.of_float ((Unix.gettimeofday () -. epoch) *. 1e9) in
    if Int64.compare now !last > 0 then last := now;
    !last

let clock = ref default_clock
let set_clock f = clock := f
let use_default_clock () = clock := default_clock
let now_ns () = !clock ()

(* The completed-span buffer is shared across domains (server workers
   record request spans concurrently) and protected by a mutex; the
   trace context — trace id, innermost open span, nesting depth — is
   per-domain state, so spans nest lexically within each domain without
   cross-talk. *)
let recorded : event list ref = ref []
let seq = ref 0
let lock = Mutex.create ()
let next_id = Atomic.make 1

type dstate = {
  mutable ds_trace : string;
  mutable ds_parent : int;
  mutable ds_depth : int;
}

let dls = Domain.DLS.new_key (fun () -> { ds_trace = ""; ds_parent = 0; ds_depth = 0 })

let reset () =
  Mutex.protect lock (fun () ->
      recorded := [];
      seq := 0);
  Atomic.set next_id 1;
  let st = Domain.DLS.get dls in
  st.ds_trace <- "";
  st.ds_parent <- 0;
  st.ds_depth <- 0

let current_trace () = (Domain.DLS.get dls).ds_trace

let current_context () =
  let st = Domain.DLS.get dls in
  { ctx_trace = st.ds_trace; ctx_parent = st.ds_parent; ctx_depth = st.ds_depth }

let with_context ctx f =
  let st = Domain.DLS.get dls in
  let saved_trace = st.ds_trace
  and saved_parent = st.ds_parent
  and saved_depth = st.ds_depth in
  st.ds_trace <- ctx.ctx_trace;
  st.ds_parent <- ctx.ctx_parent;
  st.ds_depth <- ctx.ctx_depth;
  Fun.protect
    ~finally:(fun () ->
      st.ds_trace <- saved_trace;
      st.ds_parent <- saved_parent;
      st.ds_depth <- saved_depth)
    f

let with_trace ~trace_id f =
  with_context { ctx_trace = trace_id; ctx_parent = 0; ctx_depth = 0 } f

(* The flight recorder hooks in here to turn span boundaries into
   phase_start/phase_end ring events; the already-read timestamp is
   passed along so the hook costs no extra clock reading (and does not
   perturb injected test clocks). *)
let phase_hook : ([ `Start | `End ] -> string -> int64 -> unit) ref =
  ref (fun _ _ _ -> ())

let set_phase_hook f = phase_hook := f

let with_ ?(cat = "fsa") name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let st = Domain.DLS.get dls in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = st.ds_parent and d = st.ds_depth in
    st.ds_parent <- id;
    st.ds_depth <- d + 1;
    let start = now_ns () in
    !phase_hook `Start name start;
    let finish () =
      let stop = now_ns () in
      !phase_hook `End name stop;
      st.ds_parent <- parent;
      st.ds_depth <- d;
      Mutex.protect lock (fun () ->
          let s = !seq in
          Stdlib.incr seq;
          recorded :=
            { ev_name = name;
              ev_cat = cat;
              ev_start_ns = start;
              ev_dur_ns = Int64.sub stop start;
              ev_depth = d;
              ev_seq = s;
              ev_trace = st.ds_trace;
              ev_id = id;
              ev_parent = parent;
              ev_domain = (Domain.self () :> int) }
            :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

(* Chronological order: by start time, parents before the children that
   share their start instant, sequence number as the final tiebreak. *)
let events () =
  List.sort
    (fun a b ->
      let c = Int64.compare a.ev_start_ns b.ev_start_ns in
      if c <> 0 then c
      else
        let c = Stdlib.compare a.ev_depth b.ev_depth in
        if c <> 0 then c else Stdlib.compare a.ev_seq b.ev_seq)
    (Mutex.protect lock (fun () -> !recorded))

let events_for_trace trace =
  List.filter (fun ev -> String.equal ev.ev_trace trace) (events ())

(* Microseconds as a JSON float.  The default clock is rebased to
   process start, so offsets stay far below 2^53 ns and the printed
   value keeps every nanosecond digit. *)
let json_us ns = Json.Float (Int64.to_float ns /. 1e3)

let to_chrome_json () =
  let event ev =
    let trace =
      if ev.ev_trace = "" then []
      else
        [ ("trace", Json.Str ev.ev_trace);
          ("span", Json.Int ev.ev_id);
          ("parent", Json.Int ev.ev_parent) ]
    in
    Json.Obj
      [ ("name", Json.Str ev.ev_name);
        ("cat", Json.Str ev.ev_cat);
        ("ph", Json.Str "X");
        ("ts", json_us ev.ev_start_ns);
        ("dur", json_us ev.ev_dur_ns);
        ("pid", Json.Int 0);
        ("tid", Json.Int ev.ev_domain);
        ("args", Json.Obj (("depth", Json.Int ev.ev_depth) :: trace)) ]
  in
  Json.to_string (Json.List (List.map event (events ()))) ^ "\n"

let pp_dur ppf ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Fmt.pf ppf "%.2f s" (f /. 1e9)
  else if f >= 1e6 then Fmt.pf ppf "%.2f ms" (f /. 1e6)
  else if f >= 1e3 then Fmt.pf ppf "%.2f us" (f /. 1e3)
  else Fmt.pf ppf "%Ld ns" ns

let pp_summary ppf () =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun ev ->
      Fmt.pf ppf "%s%-*s %a@,"
        (String.make (2 * ev.ev_depth) ' ')
        (max 1 (40 - (2 * ev.ev_depth)))
        ev.ev_name pp_dur ev.ev_dur_ns)
    (events ());
  Fmt.pf ppf "@]"
