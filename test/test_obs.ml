(* Tests for Fsa_obs: the metrics registry, spans and progress
   reporting.  Timing-sensitive assertions use an injected deterministic
   clock so the expected output is stable. *)

module Metrics = Fsa_obs.Metrics
module Span = Fsa_obs.Span
module Recorder = Fsa_obs.Recorder
module Json = Fsa_json.Json
module Progress = Fsa_obs.Progress
module Lts = Fsa_lts.Lts
module V = Fsa_vanet.Vehicle_apa

(* The registry, span buffer and recorder ring are process-wide; every
   test starts from a clean slate and leaves observability switched
   off. *)
let with_obs f () =
  Metrics.reset ();
  Span.reset ();
  Recorder.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Span.use_default_clock ();
      Span.reset ();
      Recorder.reset ();
      Metrics.reset ())
    f

let check_contains what sub s =
  if not (String.length sub <= String.length s
         && (let found = ref false in
             for i = 0 to String.length s - String.length sub do
               if String.sub s i (String.length sub) = sub then found := true
             done;
             !found))
  then Alcotest.failf "%s: %S not found in %S" what sub s

(* A fake clock advancing 1000 ns per reading. *)
let install_fake_clock () =
  let t = ref 0L in
  Span.set_clock (fun () ->
      t := Int64.add !t 1000L;
      !t)

let test_counter_arithmetic () =
  let c = Metrics.counter "obs_test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "1 + 41" 42 (Metrics.counter_value c);
  let c' = Metrics.counter "obs_test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same instrument" 43
    (Metrics.counter_value c);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument
       "Metrics: obs_test.counter is already registered with a different kind")
    (fun () -> ignore (Metrics.gauge "obs_test.counter"))

let test_gauge () =
  let g = Metrics.gauge "obs_test.gauge" in
  Metrics.set_gauge g 3.5;
  Alcotest.(check (float 0.)) "set" 3.5 (Metrics.gauge_value g);
  Metrics.set_gauge_max g 2.0;
  Alcotest.(check (float 0.)) "max keeps larger" 3.5 (Metrics.gauge_value g);
  Metrics.set_gauge_max g 7.25;
  Alcotest.(check (float 0.)) "max raises" 7.25 (Metrics.gauge_value g)

let test_histogram_buckets () =
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 5. |] "obs_test.histogram" in
  List.iter (Metrics.observe h) [ 0.; 1.; 1.5; 2.; 5.; 5.1; 100. ];
  (* le convention: a value lands in the first bucket whose bound >= it *)
  Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 2 |]
    (Metrics.histogram_counts h);
  Alcotest.(check int) "count" 7 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 114.6 (Metrics.histogram_sum h)

let test_disabled_records_nothing () =
  Metrics.set_enabled false;
  let c = Metrics.counter "obs_test.counter" in
  let g = Metrics.gauge "obs_test.gauge" in
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 5. |] "obs_test.histogram" in
  Metrics.incr ~by:10 c;
  Metrics.set_gauge g 1.0;
  Metrics.set_gauge_max g 2.0;
  Metrics.observe h 1.0;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Metrics.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h);
  install_fake_clock ();
  let r = Span.with_ "disabled.span" (fun () -> 7) in
  Alcotest.(check int) "with_ is transparent" 7 r;
  Alcotest.(check int) "no span recorded" 0 (List.length (Span.events ()));
  Metrics.set_enabled true

let test_span_nesting () =
  install_fake_clock ();
  let r =
    Span.with_ "outer" (fun () ->
        Span.with_ ~cat:"inner-cat" "inner" (fun () -> ());
        Span.with_ ~cat:"inner-cat" "inner2" (fun () -> ());
        "result")
  in
  Alcotest.(check string) "with_ returns the body's value" "result" r;
  match Span.events () with
  | [ outer; inner; inner2 ] ->
    Alcotest.(check string) "outer first" "outer" outer.Span.ev_name;
    Alcotest.(check string) "then inner" "inner" inner.Span.ev_name;
    Alcotest.(check string) "then inner2" "inner2" inner2.Span.ev_name;
    Alcotest.(check int) "outer depth" 0 outer.Span.ev_depth;
    Alcotest.(check int) "inner depth" 1 inner.Span.ev_depth;
    Alcotest.(check string) "category kept" "inner-cat" inner.Span.ev_cat;
    (* clock readings: outer start 1000, inner 2000..3000,
       inner2 4000..5000, outer stop 6000 *)
    Alcotest.(check int64) "inner duration" 1000L inner.Span.ev_dur_ns;
    Alcotest.(check int64) "outer duration" 5000L outer.Span.ev_dur_ns;
    Alcotest.(check bool) "chronological order" true
      (Int64.compare inner.Span.ev_start_ns inner2.Span.ev_start_ns < 0)
  | evs -> Alcotest.failf "expected 3 spans, got %d" (List.length evs)

let test_span_survives_exceptions () =
  install_fake_clock ();
  (try Span.with_ "raising" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (Span.events ()))

let test_chrome_json_deterministic () =
  install_fake_clock ();
  Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> ()));
  let tid = string_of_int (Domain.self () :> int) in
  let expected =
    Printf.sprintf
      "[{\"name\":\"outer\",\"cat\":\"fsa\",\"ph\":\"X\",\"ts\":1,\"dur\":3,\"pid\":0,\"tid\":%s,\"args\":{\"depth\":0}},\
       {\"name\":\"inner\",\"cat\":\"fsa\",\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":0,\"tid\":%s,\"args\":{\"depth\":1}}]\n"
      tid tid
  in
  Alcotest.(check string) "stable trace output" expected
    (Span.to_chrome_json ());
  Alcotest.(check string) "export does not consume" expected
    (Span.to_chrome_json ())

let test_metrics_json_deterministic () =
  Metrics.incr ~by:3 (Metrics.counter "obs_test.zz_b");
  Metrics.incr ~by:1 (Metrics.counter "obs_test.zz_a");
  let json = Json.to_string (Metrics.to_json ()) in
  Alcotest.(check string) "dump is stable" json
    (Json.to_string (Metrics.to_json ()));
  match Result.map (Json.member "counters") (Json.parse json) with
  | Ok (Some (Json.Obj counters)) ->
    let ours =
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:"obs_test.zz_" k)
        counters
    in
    Alcotest.(check bool) "keys sorted by name" true
      (Json.equal (Json.Obj ours)
         (Json.Obj
            [ ("obs_test.zz_a", Json.Int 1); ("obs_test.zz_b", Json.Int 3) ]))
  | _ -> Alcotest.fail "the dump has no counters object"

let test_quantile_known_distribution () =
  let h = Metrics.histogram ~buckets:[| 10.; 20.; 50.; 100. |] "obs_test.q" in
  Alcotest.(check (float 1e-9)) "empty histogram" 0. (Metrics.quantile h 0.5);
  for v = 1 to 100 do
    Metrics.observe h (float_of_int v)
  done;
  (* 1..100 uniformly: the interpolated quantiles land on the exact
     values because bucket populations match the bucket widths. *)
  Alcotest.(check (float 1e-9)) "p10" 10. (Metrics.quantile h 0.1);
  Alcotest.(check (float 1e-9)) "p50" 50. (Metrics.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p90" 90. (Metrics.quantile h 0.9);
  Alcotest.(check (float 1e-9)) "p99" 99. (Metrics.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "q clamped above" 100. (Metrics.quantile h 1.5);
  let h2 = Metrics.histogram ~buckets:[| 1.; 2. |] "obs_test.q_overflow" in
  List.iter (Metrics.observe h2) [ 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "overflow reports the last bound" 2.
    (Metrics.quantile h2 0.5)

let test_prometheus_format () =
  Metrics.incr ~by:3 (Metrics.counter "obs_test.prom.count");
  Metrics.set_gauge (Metrics.gauge "obs_test.prom_gauge") 2.5;
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] "obs_test.prom_hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 5. ];
  let text = Metrics.to_prometheus () in
  Alcotest.(check string) "export is stable" text (Metrics.to_prometheus ());
  check_contains "sanitised counter" "# TYPE obs_test_prom_count counter\nobs_test_prom_count 3" text;
  check_contains "gauge" "obs_test_prom_gauge 2.5" text;
  check_contains "cumulative bucket 1" "obs_test_prom_hist_bucket{le=\"1\"} 1" text;
  check_contains "cumulative bucket 2" "obs_test_prom_hist_bucket{le=\"2\"} 2" text;
  check_contains "+Inf bucket" "obs_test_prom_hist_bucket{le=\"+Inf\"} 3" text;
  check_contains "sum" "obs_test_prom_hist_sum 7" text;
  check_contains "count" "obs_test_prom_hist_count 3" text

let test_trace_context () =
  install_fake_clock ();
  Span.with_trace ~trace_id:"req-1" (fun () ->
      Alcotest.(check string) "trace visible inside" "req-1"
        (Span.current_trace ());
      Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> ())));
  Span.with_ "untracked" (fun () -> ());
  Alcotest.(check string) "trace restored outside" "" (Span.current_trace ());
  let find name = List.find (fun e -> e.Span.ev_name = name) (Span.events ()) in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check string) "outer carries the trace" "req-1" outer.Span.ev_trace;
  Alcotest.(check string) "inner carries the trace" "req-1" inner.Span.ev_trace;
  Alcotest.(check int) "outer is a root" 0 outer.Span.ev_parent;
  Alcotest.(check int) "inner hangs off outer" outer.Span.ev_id
    inner.Span.ev_parent;
  Alcotest.(check string) "span outside the trace" ""
    (find "untracked").Span.ev_trace;
  Alcotest.(check int) "events_for_trace finds exactly the pair" 2
    (List.length (Span.events_for_trace "req-1"))

let test_trace_crosses_domains () =
  install_fake_clock ();
  Span.with_trace ~trace_id:"xd-1" (fun () ->
      Span.with_ "outer" (fun () ->
          let ctx = Span.current_context () in
          let d =
            Domain.spawn (fun () ->
                Span.with_context ctx (fun () ->
                    Span.with_ "child" (fun () -> ())))
          in
          Domain.join d));
  let find name = List.find (fun e -> e.Span.ev_name = name) (Span.events ()) in
  let outer = find "outer" and child = find "child" in
  Alcotest.(check string) "child joined the trace" "xd-1" child.Span.ev_trace;
  Alcotest.(check int) "child hangs off outer across domains"
    outer.Span.ev_id child.Span.ev_parent;
  Alcotest.(check int) "child depth continues the tree" 1 child.Span.ev_depth;
  Alcotest.(check bool) "recorded by different domains" true
    (outer.Span.ev_domain <> child.Span.ev_domain)

let test_recorder_wraparound () =
  Recorder.set_capacity 8;
  Fun.protect ~finally:(fun () -> Recorder.set_capacity 1024) @@ fun () ->
  for i = 0 to 19 do
    Recorder.record Recorder.Error (Printf.sprintf "e%d" i)
  done;
  let evs = Recorder.events () in
  Alcotest.(check int) "ring holds capacity events" 8 (List.length evs);
  Alcotest.(check int) "dropped the excess" 12 (Recorder.dropped ());
  Alcotest.(check (list int)) "the last 8 survive, in order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Recorder.r_seq) evs);
  Alcotest.(check string) "oldest survivor" "e12"
    (List.hd evs).Recorder.r_detail;
  let dump = Recorder.dump_trace ~trace_id:"" in
  Alcotest.(check string) "dump is deterministic" dump
    (Recorder.dump_trace ~trace_id:"")

let test_recorder_multi_domain_wraparound () =
  Recorder.set_capacity 64;
  Fun.protect ~finally:(fun () -> Recorder.set_capacity 1024) @@ fun () ->
  let doms =
    Array.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to 99 do
              Recorder.record
                ~trace:(Printf.sprintf "dom-%d" w)
                Recorder.Enqueue (string_of_int i)
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check int) "every record counted" 400 (Recorder.recorded ());
  Alcotest.(check int) "ring full" 64 (Recorder.size ());
  Alcotest.(check int) "dropped = recorded - capacity" 336
    (Recorder.dropped ());
  let evs = Recorder.events () in
  List.iteri
    (fun i ev ->
      Alcotest.(check int) "survivors are the contiguous tail" (336 + i)
        ev.Recorder.r_seq)
    evs

let test_recorder_mirrors_spans () =
  install_fake_clock ();
  Span.with_trace ~trace_id:"ph-1" (fun () ->
      Span.with_ "tool.explore" (fun () -> ()));
  let phases =
    List.filter
      (fun e ->
        e.Recorder.r_kind = Recorder.Phase_start
        || e.Recorder.r_kind = Recorder.Phase_end)
      (Recorder.events_for_trace "ph-1")
  in
  match phases with
  | [ s; e ] ->
    Alcotest.(check string) "phase_start names the span" "tool.explore"
      s.Recorder.r_detail;
    Alcotest.(check bool) "start before end" true
      (s.Recorder.r_kind = Recorder.Phase_start
      && e.Recorder.r_kind = Recorder.Phase_end);
    Alcotest.(check bool) "timestamps ordered" true
      (Int64.compare s.Recorder.r_time_ns e.Recorder.r_time_ns < 0)
  | evs -> Alcotest.failf "expected 2 phase events, got %d" (List.length evs)

let test_progress_throttling () =
  install_fake_clock ();
  let fired = ref [] in
  let p =
    Progress.create ~every_n:2 ~every_ns:Int64.max_int (fun u ->
        fired := (u.Progress.u_count, u.Progress.u_final) :: !fired)
  in
  for count = 1 to 6 do
    Progress.tick p ~count ~frontier:count
  done;
  Progress.finish p ~count:6;
  Alcotest.(check (list (pair int bool)))
    "fires every 2 items, then a final report"
    [ (2, false); (4, false); (6, false); (6, true) ]
    (List.rev !fired)

let test_progress_silent_run () =
  install_fake_clock ();
  let fired = ref 0 in
  let p =
    Progress.create ~every_n:1_000_000 ~every_ns:Int64.max_int (fun _ ->
        incr fired)
  in
  for count = 1 to 100 do
    Progress.tick p ~count ~frontier:0
  done;
  Progress.finish p ~count:100;
  Alcotest.(check int) "below both thresholds: fully silent" 0 !fired

let test_explore_instrumented () =
  let ticks = ref [] in
  let progress =
    Progress.create ~every_n:1 ~every_ns:Int64.max_int (fun u ->
        if not u.Progress.u_final then ticks := u.Progress.u_count :: !ticks)
  in
  let lts = Lts.explore ~progress (V.two_vehicles ()) in
  Alcotest.(check int) "13 states explored" 13 (Lts.nb_states lts);
  Alcotest.(check int) "progress saw the full count" 13
    (List.fold_left max 0 !ticks);
  Alcotest.(check int) "lts.states_explored" 13
    (Metrics.counter_value (Metrics.counter "lts.states_explored"));
  Alcotest.(check bool) "apa.rules_tried nonzero" true
    (Metrics.counter_value (Metrics.counter "apa.rules_tried") > 0);
  Alcotest.(check bool) "lts.explore span recorded" true
    (List.exists
       (fun e -> e.Span.ev_name = "lts.explore")
       (Span.events ()))

let suite =
  [ Alcotest.test_case "counter arithmetic" `Quick (with_obs test_counter_arithmetic);
    Alcotest.test_case "gauge set and max" `Quick (with_obs test_gauge);
    Alcotest.test_case "histogram bucket boundaries" `Quick
      (with_obs test_histogram_buckets);
    Alcotest.test_case "disabled registry records nothing" `Quick
      (with_obs test_disabled_records_nothing);
    Alcotest.test_case "span nesting and ordering" `Quick
      (with_obs test_span_nesting);
    Alcotest.test_case "span survives exceptions" `Quick
      (with_obs test_span_survives_exceptions);
    Alcotest.test_case "chrome trace JSON deterministic" `Quick
      (with_obs test_chrome_json_deterministic);
    Alcotest.test_case "metrics JSON deterministic and sorted" `Quick
      (with_obs test_metrics_json_deterministic);
    Alcotest.test_case "quantile against a known distribution" `Quick
      (with_obs test_quantile_known_distribution);
    Alcotest.test_case "prometheus text exposition" `Quick
      (with_obs test_prometheus_format);
    Alcotest.test_case "trace context threads through spans" `Quick
      (with_obs test_trace_context);
    Alcotest.test_case "trace context crosses domains" `Quick
      (with_obs test_trace_crosses_domains);
    Alcotest.test_case "recorder ring wraparound" `Quick
      (with_obs test_recorder_wraparound);
    Alcotest.test_case "recorder wraparound under multi-domain load" `Quick
      (with_obs test_recorder_multi_domain_wraparound);
    Alcotest.test_case "recorder mirrors span phases" `Quick
      (with_obs test_recorder_mirrors_spans);
    Alcotest.test_case "progress throttling" `Quick
      (with_obs test_progress_throttling);
    Alcotest.test_case "progress silent below thresholds" `Quick
      (with_obs test_progress_silent_run);
    Alcotest.test_case "explore records metrics, spans and progress" `Quick
      (with_obs test_explore_instrumented) ]
