(* Flight recorder: a bounded ring of structured events.

   The recorder keeps the last [capacity] events — queueing, cache
   traffic, span (phase) boundaries, evictions, errors — so that when a
   request ends badly the server can dump everything that happened around
   it, keyed by trace id, without having logged anything in the steady
   state.  Recording is gated on [Metrics.enabled] and costs one mutex
   round and a few field writes per event; events are rare (per request /
   per phase, never per state), so the ring is far off any hot path.

   The ring is a mutex-protected array indexed by a monotonically
   increasing sequence number: slot [seq mod capacity] is overwritten in
   arrival order, which makes "the surviving events are exactly the last
   [capacity] ones, in order" a structural property rather than a
   bookkeeping obligation. *)

module Json = Fsa_json.Json

type kind =
  | Enqueue
  | Dequeue
  | Cache_hit
  | Cache_miss
  | Phase_start
  | Phase_end
  | Eviction
  | Error
  | Slow

type event = {
  r_seq : int;
  r_time_ns : int64;
  r_domain : int;
  r_trace : string;
  r_kind : kind;
  r_detail : string;
}

let kind_to_string = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Phase_start -> "phase_start"
  | Phase_end -> "phase_end"
  | Eviction -> "eviction"
  | Error -> "error"
  | Slow -> "slow"

let default_capacity = 1024

let lock = Mutex.create ()
let ring = ref (Array.make default_capacity None)
let next_seq = ref 0

let capacity () = Mutex.protect lock (fun () -> Array.length !ring)

let set_capacity n =
  let n = max 1 n in
  Mutex.protect lock (fun () ->
      ring := Array.make n None;
      next_seq := 0)

let reset () =
  Mutex.protect lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      next_seq := 0)

let record ?trace ?time_ns kind detail =
  if Metrics.enabled () then begin
    let trace = match trace with Some t -> t | None -> Span.current_trace () in
    let time_ns = match time_ns with Some t -> t | None -> Span.now_ns () in
    let domain = (Domain.self () :> int) in
    Mutex.protect lock (fun () ->
        let s = !next_seq in
        next_seq := s + 1;
        !ring.(s mod Array.length !ring) <-
          Some
            { r_seq = s;
              r_time_ns = time_ns;
              r_domain = domain;
              r_trace = trace;
              r_kind = kind;
              r_detail = detail })
  end

let events () =
  Mutex.protect lock (fun () ->
      Array.fold_left
        (fun acc slot -> match slot with None -> acc | Some ev -> ev :: acc)
        [] !ring)
  |> List.sort (fun a b -> Stdlib.compare a.r_seq b.r_seq)

let events_for_trace trace =
  List.filter (fun ev -> String.equal ev.r_trace trace) (events ())

let size () = List.length (events ())

let dropped () =
  Mutex.protect lock (fun () -> max 0 (!next_seq - Array.length !ring))

let recorded () = Mutex.protect lock (fun () -> !next_seq)

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic: events in sequence order, fixed member order — two
   dumps of the same ring state are identical. *)
let dump_trace ~trace_id =
  let event ev =
    Json.Obj
      [ ("seq", Json.Int ev.r_seq);
        ("t_us", Json.Float (Int64.to_float ev.r_time_ns /. 1e3));
        ("domain", Json.Int ev.r_domain);
        ("kind", Json.Str (kind_to_string ev.r_kind));
        ("detail", Json.Str ev.r_detail) ]
  in
  Json.to_string
    (Json.Obj
       [ ("trace_id", Json.Str trace_id);
         ("events", Json.List (List.map event (events_for_trace trace_id))) ])
  ^ "\n"

(* Mirror span boundaries into the ring as phase events.  Installed at
   module initialisation: any program that links the recorder gets phase
   events for free. *)
let () =
  Span.set_phase_hook (fun phase name time_ns ->
      record ~time_ns
        (match phase with `Start -> Phase_start | `End -> Phase_end)
        name)
