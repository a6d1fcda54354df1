(* Tests for Fsa_server: the shared executor (cache-aware analysis
   runs), the request/response protocol and the serving loop (EOF and
   shutdown drains, response ordering). *)

module Server = Fsa_server.Server
module Exec = Fsa_server.Server.Exec
module Json = Fsa_store.Json
module Store = Fsa_store.Store
module Parser = Fsa_spec.Parser

(* Known-good model shared with the store tests. *)
let spec_text = Test_store.spec_text
let spec_text_permuted = Test_store.spec_text_permuted

(* A spec whose check set contains one failing property. *)
let spec_text_failing_check =
  spec_text ^ "\ncheck absence V1_sense before V2_show\n"

(* 2^18 reachable states: enough that a millisecond budget cannot
   finish, while --max-states keeps the failure mode bounded. *)
let bomb_spec =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "component Flip {\n\
    \  state a = { t }\n\
    \  state b = { }\n\
    \  action go: take a(_x) -> put b(_x)\n\
    \  action back: take b(_x) -> put a(_x)\n\
     }\n";
  for i = 1 to 18 do
    Buffer.add_string b
      (Printf.sprintf "instance F%d = Flip(%d) { a = { t } }\n" i i)
  done;
  Buffer.contents b

let request fields = Json.to_string (Json.Obj fields)

let source_request ?(source = spec_text) ~id ~op extra =
  request
    ([ ("id", Json.Int id); ("op", Json.Str op); ("source", Json.Str source) ]
    @ extra)

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "response is not JSON (%s): %s" msg line

let is_ok resp = Json.member "ok" resp = Some (Json.Bool true)

let error_kind resp =
  Option.bind (Json.member "error" resp) (fun e ->
      Option.bind (Json.member "kind" e) Json.to_str)

let result_member k resp =
  Option.bind (Json.member "result" resp) (Json.member k)

let with_store_dir f () =
  let dir = Test_store.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> Test_store.rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()))

(* ------------------------------------------------------------------ *)
(* Round-trips per request type                                        *)
(* ------------------------------------------------------------------ *)

let test_roundtrips () =
  let cfg = Server.config () in
  let reply line = parse_response (Server.handle_line cfg line) in
  (* reach *)
  let r = reply (source_request ~id:1 ~op:"reach" []) in
  Alcotest.(check bool) "reach ok" true (is_ok r);
  Alcotest.(check bool) "reach states" true
    (result_member "states" r = Some (Json.Int 13));
  (* requirements *)
  let r =
    reply
      (source_request ~id:2 ~op:"requirements"
         [ ("method", Json.Str "direct") ])
  in
  Alcotest.(check bool) "requirements ok" true (is_ok r);
  (match Option.bind (result_member "requirements" r) Json.to_list with
  | Some reqs -> Alcotest.(check int) "three requirements" 3 (List.length reqs)
  | None -> Alcotest.fail "requirements missing");
  (* analyze *)
  let r = reply (source_request ~id:3 ~op:"analyze" []) in
  Alcotest.(check bool) "analyze ok" true (is_ok r);
  (match Option.bind (result_member "soses" r) Json.to_list with
  | Some [ sos ] ->
    Alcotest.(check bool) "sos name" true
      (Json.member "name" sos = Some (Json.Str "two_vehicles"))
  | _ -> Alcotest.fail "one sos expected");
  (* abstract *)
  let r =
    reply
      (source_request ~id:4 ~op:"abstract"
         [ ("keep", Json.List [ Json.Str "V1_sense"; Json.Str "V2_show" ]) ])
  in
  Alcotest.(check bool) "abstract ok" true (is_ok r);
  Alcotest.(check bool) "abstract dependence" true
    (result_member "dependence" r = Some (Json.Bool true));
  (* verify *)
  let r = reply (source_request ~id:5 ~op:"verify" []) in
  Alcotest.(check bool) "verify ok" true (is_ok r);
  Alcotest.(check bool) "verify clean" true
    (result_member "failed" r = Some (Json.Int 0));
  (* check *)
  let r = reply (source_request ~id:6 ~op:"check" []) in
  Alcotest.(check bool) "check ok" true (is_ok r)

let test_protocol_errors () =
  let cfg = Server.config () in
  let reply line = parse_response (Server.handle_line cfg line) in
  let r = reply "this is not json" in
  Alcotest.(check bool) "malformed not ok" false (is_ok r);
  Alcotest.(check (option string)) "malformed kind" (Some "parse_error")
    (error_kind r);
  let r = reply (source_request ~id:1 ~op:"frobnicate" []) in
  Alcotest.(check (option string)) "unknown op" (Some "bad_request")
    (error_kind r);
  let r = reply (request [ ("id", Json.Int 2); ("op", Json.Str "reach") ]) in
  Alcotest.(check (option string)) "missing source" (Some "bad_request")
    (error_kind r);
  let r = reply (source_request ~id:3 ~op:"reach" ~source:"component {" []) in
  Alcotest.(check (option string)) "bad spec" (Some "parse_error")
    (error_kind r);
  let r =
    reply (source_request ~id:4 ~op:"reach" [ ("max_states", Json.Int 3) ])
  in
  Alcotest.(check (option string)) "over limit" (Some "too_large")
    (error_kind r);
  (* the id is echoed even on errors *)
  Alcotest.(check bool) "id echoed" true (Json.member "id" r = Some (Json.Int 4))

let test_timeout_reply () =
  let cfg = Server.config ~max_states:400_000 () in
  let r =
    parse_response
      (Server.handle_line cfg
         (source_request ~id:9 ~op:"reach" ~source:bomb_spec
            [ ("timeout_ms", Json.Int 1) ]))
  in
  Alcotest.(check (option string)) "timeout kind" (Some "timeout")
    (error_kind r)

(* ------------------------------------------------------------------ *)
(* Executor caching                                                    *)
(* ------------------------------------------------------------------ *)

let test_exec_cache_reparse_independent =
  with_store_dir @@ fun store ->
  let cfg = Server.config ~store () in
  let o1 =
    Exec.run cfg ~op:Exec.Reach ~file:"a.fsa" (Parser.parse_string spec_text)
  in
  Alcotest.(check bool) "first run computes" false o1.Exec.oc_cached;
  (* a different parse, permuted declarations and a different file name
     must all hit the same entry *)
  let o2 =
    Exec.run cfg ~op:Exec.Reach ~file:"b.fsa"
      (Parser.parse_string spec_text_permuted)
  in
  Alcotest.(check bool) "second run hits" true o2.Exec.oc_cached;
  Alcotest.(check string) "byte-identical replay" o1.Exec.oc_output
    o2.Exec.oc_output;
  Alcotest.(check int) "exit replayed" o1.Exec.oc_exit o2.Exec.oc_exit;
  (* a cache bypass still computes *)
  let o3 =
    Exec.run cfg ~op:Exec.Reach ~cache:false ~file:"a.fsa"
      (Parser.parse_string spec_text)
  in
  Alcotest.(check bool) "bypass computes" false o3.Exec.oc_cached;
  Alcotest.(check string) "bypass output agrees" o1.Exec.oc_output
    o3.Exec.oc_output

(* Every option that shapes a requirements or report outcome keys its
   cache entry: a store-served result must equal a fresh run's under the
   same options, for every combination, in one shared store (an option
   left out of the key would replay a neighbour's entry here).  Only the
   wall-clock "timings" member may differ. *)
let test_cached_equals_fresh =
  with_store_dir @@ fun store ->
  let cfg = Server.config ~store () in
  let spec = Parser.parse_string spec_text in
  let strip = function
    | Json.Obj ms -> Json.Obj (List.remove_assoc "timings" ms)
    | j -> j
  in
  List.iter
    (fun op ->
      List.iter
        (fun meth ->
          List.iter
            (fun flow ->
              List.iter
                (fun reduce ->
                  let run ~cache =
                    Exec.run cfg ~op ~meth ~flow ?reduce ~cache ~file:"a.fsa"
                      spec
                  in
                  let label =
                    Printf.sprintf "%s/%s/flow %b/reduce %s"
                      (Exec.op_to_string op)
                      (match meth with
                      | Fsa_core.Analysis.Direct -> "direct"
                      | Fsa_core.Analysis.Abstract -> "abstract")
                      flow
                      (Option.fold ~none:"none" ~some:Fsa_sym.Sym.kind_to_string
                         reduce)
                  in
                  let first = run ~cache:true in
                  let replay = run ~cache:true in
                  let fresh = run ~cache:false in
                  Alcotest.(check bool) (label ^ ": replay is a hit") true
                    replay.Exec.oc_cached;
                  Alcotest.(check string)
                    (label ^ ": first stored result = fresh")
                    (Json.to_string (strip fresh.Exec.oc_result))
                    (Json.to_string (strip first.Exec.oc_result));
                  Alcotest.(check string)
                    (label ^ ": cached result = fresh")
                    (Json.to_string (strip fresh.Exec.oc_result))
                    (Json.to_string (strip replay.Exec.oc_result));
                  Alcotest.(check string)
                    (label ^ ": cached output = fresh") fresh.Exec.oc_output
                    replay.Exec.oc_output)
                [ None; Some Fsa_sym.Sym.Sym_por ])
            [ false; true ])
        [ Fsa_core.Analysis.Direct; Fsa_core.Analysis.Abstract ])
    [ Exec.Requirements; Exec.Report ]

(* The cache-key table, pinned here independently of [Exec.fields]: the
   fields each op honours. *)
let honoured =
  let open Exec in
  function
  | Reach | Verify -> [ Max_states; Reduce ]
  | Requirements -> [ Meth; Max_states; Flow; Reduce ]
  | Report -> [ Meth; Max_states; Flow; Reduce; Sos ]
  | Analyze -> [ Sos ]
  | Abstract -> [ Max_states; Keep ]
  | Check -> []

let perturb p =
  let open Exec in
  function
  | Meth -> { p with meth = Fsa_core.Analysis.Direct }
  | Max_states -> { p with max_states = 500_000 }
  | Flow -> { p with flow = true }
  | Reduce -> { p with reduce = Some Fsa_sym.Sym.Sym }
  | Sos -> { p with sos = Some "two_vehicles" }
  | Keep -> { p with keep = Some [ "V1_sense" ] }

(* Per op and field: changing a field the op honours changes its cache
   key; changing one it ignores leaves the key and the fresh outcome
   (minus wall-clock timings) unchanged.  The default keys stay pinned,
   so stores written by earlier releases keep hitting. *)
let test_key_params_complete () =
  let cfg = Server.config () in
  let spec = Parser.parse_string spec_text in
  let base = { Exec.defaults with keep = Some [ "V1_sense"; "V2_show" ] } in
  let key op p = List.sort compare (Exec.key_params op p) in
  let fresh op p =
    match (Exec.exec cfg ~op ~cache:false ~file:"a.fsa" p spec).Exec.oc_result with
    | Json.Obj ms -> Json.to_string (Json.Obj (List.remove_assoc "timings" ms))
    | j -> Json.to_string j
  in
  List.iter
    (fun op ->
      let before = fresh op base in
      List.iter
        (fun (name, f) ->
          let label = Exec.op_to_string op ^ "/" ^ name in
          let changed = perturb base f in
          if List.mem f (honoured op) then
            Alcotest.(check bool) (label ^ ": honoured, keyed") true
              (key op base <> key op changed)
          else begin
            Alcotest.(check bool) (label ^ ": ignored, not keyed") true
              (key op base = key op changed);
            Alcotest.(check string) (label ^ ": ignored, same outcome") before
              (fresh op changed)
          end)
        [ ("method", Exec.Meth);
          ("max_states", Max_states);
          ("flow", Flow);
          ("reduce", Reduce);
          ("sos", Sos);
          ("keep", Keep) ])
    Exec.all_ops;
  let pinned = [ ("max_states", "1000000") ] in
  let tool =
    List.sort compare
      (pinned
      @ [ ("method", "abstract"); ("engine", "shared-v1"); ("flow", "none") ])
  in
  List.iter
    (fun (op, want) ->
      Alcotest.(check (list (pair string string)))
        (Exec.op_to_string op ^ ": default key pinned")
        want
        (key op Exec.defaults))
    [ (Exec.Reach, pinned);
      (Exec.Verify, pinned);
      (Exec.Requirements, tool);
      (Exec.Report, tool);
      (Exec.Analyze, []);
      (Exec.Check, []);
      (Exec.Abstract, [ ("keep", ""); ("max_states", "1000000") ]) ];
  Alcotest.(check bool) "no members decode to the defaults" true
    (Exec.params_of_json ~bound:Exec.defaults.max_states (Json.Obj [])
    = Exec.defaults)

(* A state-space overflow reaches the caller as [Too_large] carrying the
   structural growth hint naming the runaway components. *)
let test_too_large_hint () =
  let cfg = Server.config () in
  match
    Exec.run cfg ~op:Exec.Reach ~max_states:5 ~file:"a.fsa"
      (Parser.parse_string spec_text)
  with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Server.Too_large (n, hint) ->
    Alcotest.(check int) "bound carried" 5 n;
    Alcotest.(check bool) "hint names a component" true
      (String.length hint > 0)

let test_exec_caches_verify_failures =
  with_store_dir @@ fun store ->
  let cfg = Server.config ~store () in
  let spec = Parser.parse_string spec_text_failing_check in
  let o1 = Exec.run cfg ~op:Exec.Verify ~file:"f.fsa" spec in
  Alcotest.(check int) "failing checks exit 1" 1 o1.Exec.oc_exit;
  Alcotest.(check bool) "computed" false o1.Exec.oc_cached;
  let o2 = Exec.run cfg ~op:Exec.Verify ~file:"f.fsa" spec in
  Alcotest.(check bool) "replayed" true o2.Exec.oc_cached;
  Alcotest.(check int) "exit code replayed" 1 o2.Exec.oc_exit;
  Alcotest.(check string) "report replayed" o1.Exec.oc_output o2.Exec.oc_output

let test_exec_usage_errors () =
  let cfg = Server.config () in
  let spec = Parser.parse_string spec_text in
  (try
     ignore (Exec.run cfg ~op:Exec.Analyze ~sos:"nope" ~file:"a.fsa" spec);
     Alcotest.fail "unknown sos must raise"
   with Server.Usage_error _ -> ());
  try
    ignore (Exec.run cfg ~op:Exec.Abstract ~file:"a.fsa" spec);
    Alcotest.fail "missing keep set must raise"
  with Server.Usage_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sustained mixed traffic                                             *)
(* ------------------------------------------------------------------ *)

let test_hundred_mixed_requests =
  with_store_dir @@ fun store ->
  let cfg = Server.config ~store () in
  let ops = [| "reach"; "requirements"; "analyze"; "verify"; "check" |] in
  let errors = ref 0 in
  for i = 0 to 99 do
    let line =
      if i = 50 then "{not json"
      else if i = 75 then
        source_request ~id:i ~op:"reach" [ ("max_states", Json.Int 2) ]
      else source_request ~id:i ~op:ops.(i mod Array.length ops) []
    in
    let resp = parse_response (Server.handle_line cfg line) in
    if not (is_ok resp) then incr errors
  done;
  Alcotest.(check int) "exactly the two poisoned requests fail" 2 !errors

(* ------------------------------------------------------------------ *)
(* Serving loop                                                        *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

let response_file () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fsa_server_test_%d_%d.out" (Unix.getpid ())
       (Test_store.tmp_counter_next ()))

let test_serve_channels_eof_drain () =
  let n = 6 in
  let rd, wr = Unix.pipe () in
  let requests =
    String.concat ""
      (List.init n (fun i ->
           source_request ~id:i ~op:"reach" [] ^ "\n"))
  in
  (* the whole stream fits in the pipe buffer, so writing before serving
     cannot block *)
  let len = String.length requests in
  assert (Unix.write_substring wr requests 0 len = len);
  Unix.close wr;
  let out = response_file () in
  let oc = open_out out in
  let cfg = Server.config ~workers:2 () in
  Server.serve_channels cfg ~fd_in:rd oc;
  close_out oc;
  Unix.close rd;
  let lines = read_lines out in
  Sys.remove out;
  Alcotest.(check int) "one response per request" n (List.length lines);
  (* responses come back in request order even with two workers *)
  List.iteri
    (fun i line ->
      let resp = parse_response line in
      Alcotest.(check bool)
        (Printf.sprintf "response %d in order" i)
        true
        (Json.member "id" resp = Some (Json.Int i) && is_ok resp))
    lines

let test_serve_channels_shutdown_drain () =
  let n = 3 in
  let rd, wr = Unix.pipe () in
  let requests =
    String.concat ""
      (List.init n (fun i -> source_request ~id:i ~op:"reach" [] ^ "\n"))
  in
  let len = String.length requests in
  assert (Unix.write_substring wr requests 0 len = len);
  (* the write end stays open: only request_shutdown can end the loop *)
  let stopper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.4;
        Server.request_shutdown ())
  in
  let out = response_file () in
  let oc = open_out out in
  let cfg = Server.config ~workers:2 () in
  Server.serve_channels cfg ~fd_in:rd oc;
  close_out oc;
  Domain.join stopper;
  Unix.close wr;
  Unix.close rd;
  let lines = read_lines out in
  Sys.remove out;
  Alcotest.(check int) "accepted requests drained before exit" n
    (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "drained response ok" true
        (is_ok (parse_response line)))
    lines

(* ------------------------------------------------------------------ *)
(* Tracing, introspection and the flight recorder                      *)
(* ------------------------------------------------------------------ *)

module Metrics = Fsa_obs.Metrics
module Span = Fsa_obs.Span
module Recorder = Fsa_obs.Recorder

(* Observability on, from (and back to) a clean slate: these tests read
   process-global span and recorder state. *)
let with_tracing f () =
  Metrics.reset ();
  Span.reset ();
  Recorder.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Span.reset ();
      Recorder.reset ())
    f

let trace_id_of resp = Option.bind (Json.member "trace_id" resp) Json.to_str

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub haystack i nl) needle || go (i + 1))
  in
  go 0

let test_trace_echo () =
  let cfg = Server.config () in
  let reply line = parse_response (Server.handle_line cfg line) in
  let r =
    reply
      (source_request ~id:1 ~op:"reach" [ ("trace_id", Json.Str "my-trace") ])
  in
  Alcotest.(check (option string)) "explicit trace echoed" (Some "my-trace")
    (trace_id_of r);
  let r = reply (source_request ~id:2 ~op:"reach" []) in
  (match trace_id_of r with
  | Some t ->
    Alcotest.(check bool) "generated trace id non-empty" true
      (String.length t > 0)
  | None -> Alcotest.fail "trace_id missing from response");
  (* error responses echo the trace id too *)
  let r =
    reply
      (request
         [ ("id", Json.Int 3); ("op", Json.Str "reach");
           ("trace_id", Json.Str "err-trace") ])
  in
  Alcotest.(check bool) "error response not ok" false (is_ok r);
  Alcotest.(check (option string)) "error echoes trace" (Some "err-trace")
    (trace_id_of r)

let test_timings_in_result () =
  let cfg = Server.config () in
  let r =
    parse_response
      (Server.handle_line cfg (source_request ~id:1 ~op:"requirements" []))
  in
  Alcotest.(check bool) "requirements ok" true (is_ok r);
  let timings = result_member "timings" r in
  Alcotest.(check bool) "timings present" true (timings <> None);
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " present") true
        (Option.bind timings (Json.member phase) <> None))
    [ "explore_ms"; "min_max_ms"; "matrix_ms"; "derive_ms" ];
  match Option.bind (Option.bind timings (Json.member "pairs")) Json.to_list with
  | Some (pair :: _) ->
    Alcotest.(check bool) "pair names min and max" true
      (Json.member "min" pair <> None && Json.member "max" pair <> None)
  | _ -> Alcotest.fail "per-pair timings missing"

let test_stats_op =
  with_tracing @@ fun () ->
  let cfg = Server.config () in
  (* serve something first so the latency histogram has an observation *)
  ignore (Server.handle_line cfg (source_request ~id:1 ~op:"reach" []));
  let r =
    parse_response
      (Server.handle_line cfg
         (request [ ("id", Json.Int 2); ("op", Json.Str "stats") ]))
  in
  Alcotest.(check bool) "stats ok" true (is_ok r);
  let latency = result_member "latency_ms" r in
  List.iter
    (fun q ->
      Alcotest.(check bool) (q ^ " present") true
        (Option.bind latency (Json.member q) <> None))
    [ "p50"; "p90"; "p99" ];
  (match Option.bind (Option.bind latency (Json.member "count")) Json.to_int with
  | Some n -> Alcotest.(check bool) "latency counted" true (n >= 1)
  | None -> Alcotest.fail "latency count missing");
  Alcotest.(check bool) "queue idle" true
    (result_member "queue_depth" r = Some (Json.Int 0));
  (* worker slots reflect the last serving loop (none has run inside
     this test), so only the member's shape is asserted *)
  (match Option.bind (result_member "workers" r) Json.to_list with
  | Some _ -> ()
  | None -> Alcotest.fail "workers missing");
  (match Option.bind (result_member "recorder" r) (Json.member "capacity") with
  | Some _ -> ()
  | None -> Alcotest.fail "recorder state missing");
  match Option.bind (result_member "prometheus" r) Json.to_str with
  | Some text ->
    Alcotest.(check bool) "prometheus exposes the latency histogram" true
      (contains text "server_latency_ms_bucket{le=")
  | None -> Alcotest.fail "prometheus payload missing"

let test_flight_dump_on_timeout =
  with_tracing @@ fun () ->
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fsa_flight_%d_%d" (Unix.getpid ())
         (Test_store.tmp_counter_next ()))
  in
  Fun.protect ~finally:(fun () -> Test_store.rm_rf dir) @@ fun () ->
  let cfg = Server.config ~max_states:400_000 ~flight_dir:dir () in
  let r =
    parse_response
      (Server.handle_line cfg
         (source_request ~id:7 ~op:"reach" ~source:bomb_spec
            [ ("timeout_ms", Json.Int 1); ("trace_id", Json.Str "boom-1") ]))
  in
  Alcotest.(check (option string)) "timeout kind" (Some "timeout")
    (error_kind r);
  let path = Filename.concat dir "boom-1.json" in
  Alcotest.(check bool) "flight dump written" true (Sys.file_exists path);
  let dump =
    parse_response (In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check (option string)) "dump names the trace" (Some "boom-1")
    (Option.bind (Json.member "trace_id" dump) Json.to_str);
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "events" dump) Json.to_list)
  in
  Alcotest.(check bool) "dump holds events" true (events <> []);
  let kinds =
    List.filter_map
      (fun e -> Option.bind (Json.member "kind" e) Json.to_str)
      events
  in
  Alcotest.(check bool) "phase events captured" true
    (List.mem "phase_start" kinds);
  Alcotest.(check bool) "the failure itself captured" true
    (List.mem "error" kinds);
  (* a successful request must not dump *)
  let r =
    parse_response
      (Server.handle_line cfg
         (source_request ~id:8 ~op:"reach"
            [ ("trace_id", Json.Str "fine-1") ]))
  in
  Alcotest.(check bool) "clean request ok" true (is_ok r);
  Alcotest.(check bool) "no dump for a clean request" false
    (Sys.file_exists (Filename.concat dir "fine-1.json"))

(* Concurrent requests under distinct trace ids: each trace's span tree
   must be self-contained — one server.request root, every other span
   parented inside the same trace — even with several worker domains
   interleaving. *)
let test_concurrent_trace_trees =
  with_tracing @@ fun () ->
  let n = 6 in
  let rd, wr = Unix.pipe () in
  let requests =
    String.concat ""
      (List.init n (fun i ->
           source_request ~id:i ~op:"reach"
             [ ("trace_id", Json.Str (Printf.sprintf "t-%d" i)) ]
           ^ "\n"))
  in
  let len = String.length requests in
  assert (Unix.write_substring wr requests 0 len = len);
  Unix.close wr;
  let out = response_file () in
  let oc = open_out out in
  let cfg = Server.config ~workers:3 () in
  Server.serve_channels cfg ~fd_in:rd oc;
  close_out oc;
  Unix.close rd;
  let lines = read_lines out in
  Sys.remove out;
  Alcotest.(check int) "one response per request" n (List.length lines);
  List.iteri
    (fun i line ->
      Alcotest.(check (option string))
        (Printf.sprintf "trace %d echoed" i)
        (Some (Printf.sprintf "t-%d" i))
        (trace_id_of (parse_response line)))
    lines;
  for i = 0 to n - 1 do
    let trace = Printf.sprintf "t-%d" i in
    let evs = Span.events_for_trace trace in
    (match List.filter (fun e -> e.Span.ev_parent = 0) evs with
    | [ root ] ->
      Alcotest.(check string)
        (trace ^ " rooted at the request span")
        "server.request" root.Span.ev_name
    | roots ->
      Alcotest.failf "%s has %d root spans, wanted 1" trace
        (List.length roots));
    let ids = List.map (fun e -> e.Span.ev_id) evs in
    List.iter
      (fun e ->
        if e.Span.ev_parent <> 0 then
          Alcotest.(check bool)
            (Printf.sprintf "%s span %d parented in-trace" trace e.Span.ev_id)
            true
            (List.mem e.Span.ev_parent ids))
      evs
  done

(* A present member of the wrong JSON type is a bad request naming the
   member, never a silent default (a string "3" must not mean "no
   bound"). *)
let test_mistyped_member (member, op, value) () =
  let cfg = Server.config () in
  let r =
    parse_response
      (Server.handle_line cfg (source_request ~id:7 ~op [ (member, value) ]))
  in
  Alcotest.(check (option string)) "bad_request" (Some "bad_request")
    (error_kind r);
  let message =
    Option.bind (Json.member "error" r) (fun e ->
        Option.bind (Json.member "message" e) Json.to_str)
  in
  Alcotest.(check bool) "message names the member" true
    (match message with
    | Some m -> contains m (Printf.sprintf "%S" member)
    | None -> false);
  Alcotest.(check bool) "a trace id is still echoed" true
    (match Json.member "trace_id" r with
    | Some (Json.Str t) -> t <> ""
    | _ -> false)

(* Every bundled spec through every exploring op answers a result or a
   structured error, never an internal one.  evita_onboard declares no
   instances: the exploring ops reject it as a bad request, and the
   executor raises the usage error the CLI maps to exit 2. *)
let test_examples_never_internal () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    let cfg = Server.config () in
    List.iter
      (fun path ->
        List.iter
          (fun op ->
            let r =
              parse_response
                (Server.handle_line cfg
                   (request
                      [ ("id", Json.Int 1);
                        ("op", Json.Str op);
                        ("spec", Json.Str path);
                        ("keep", Json.Str "a,b") ]))
            in
            let label = Printf.sprintf "%s %s" op (Filename.basename path) in
            match error_kind r with
            | None -> Alcotest.(check bool) (label ^ ": ok") true (is_ok r)
            | Some kind ->
              Alcotest.(check bool)
                (label ^ ": structured error, not " ^ kind)
                true (kind <> "internal"))
          [ "reach"; "requirements"; "report"; "verify"; "abstract" ])
      (Test_check.example_files dir);
    let onboard = Parser.parse_file (Filename.concat dir "evita_onboard.fsa") in
    let message = "apa_of_spec: the specification declares no instances" in
    List.iter
      (fun op ->
        match Exec.exec cfg ~op ~file:"evita_onboard.fsa" Exec.defaults onboard with
        | _ -> Alcotest.failf "%s: expected a usage error" (Exec.op_to_string op)
        | exception Server.Usage_error m ->
          Alcotest.(check string) (Exec.op_to_string op ^ ": message") message m)
      [ Exec.Reach; Exec.Requirements ]

let mistyped_members =
  [ ("max_states", "reach", Json.Str "3");
    ("timeout_ms", "reach", Json.Str "1");
    ("method", "requirements", Json.Int 1);
    ("flow", "requirements", Json.Str "yes");
    ("sos", "analyze", Json.Bool true);
    ("keep", "abstract", Json.List [ Json.Str "V1_sense"; Json.Int 2 ]);
    ("reduce", "reach", Json.Bool true);
    ("cache", "reach", Json.Str "no");
    ("trace_id", "reach", Json.Int 7) ]

let suite =
  [ Alcotest.test_case "request round-trips" `Quick test_roundtrips;
    Alcotest.test_case "protocol errors" `Quick test_protocol_errors;
    Alcotest.test_case "timeout reply" `Quick test_timeout_reply;
    Alcotest.test_case "exec cache ignores reparse/name" `Quick
      test_exec_cache_reparse_independent;
    Alcotest.test_case "exec cache: cached = fresh" `Quick
      test_cached_equals_fresh;
    Alcotest.test_case "cache key covers honoured fields" `Quick
      test_key_params_complete;
    Alcotest.test_case "example specs never internal" `Quick
      test_examples_never_internal;
    Alcotest.test_case "too large carries growth hint" `Quick
      test_too_large_hint;
    Alcotest.test_case "exec caches verify failures" `Quick
      test_exec_caches_verify_failures;
    Alcotest.test_case "exec usage errors" `Quick test_exec_usage_errors;
    Alcotest.test_case "hundred mixed requests" `Quick
      test_hundred_mixed_requests;
    Alcotest.test_case "serve drains on eof" `Quick
      test_serve_channels_eof_drain;
    Alcotest.test_case "serve drains on shutdown" `Quick
      test_serve_channels_shutdown_drain;
    Alcotest.test_case "trace id echoed" `Quick test_trace_echo;
    Alcotest.test_case "phase timings in results" `Quick
      test_timings_in_result;
    Alcotest.test_case "stats op" `Quick test_stats_op;
    Alcotest.test_case "flight dump on timeout" `Quick
      test_flight_dump_on_timeout;
    Alcotest.test_case "concurrent trace trees" `Quick
      test_concurrent_trace_trees ]
  @ List.map
      (fun ((member, _, _) as case) ->
        Alcotest.test_case ("mistyped " ^ member) `Quick
          (test_mistyped_member case))
      mistyped_members
