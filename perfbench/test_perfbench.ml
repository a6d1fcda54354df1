(* The benchmark's own tests: deterministic inputs, a checker that
   rejects wrong outputs, well-formed metric names, and a smoke run of
   every workload.  Run from the repository root's build directory:
   test_perfbench.exe --root DIR (DIR holds examples/ and perfbench/). *)

open Perfbench
module Json = Fsa_store.Json

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let root =
  match Array.to_list Sys.argv with
  | _ :: "--root" :: r :: _ -> r
  | _ -> "."

(* ---- generator --------------------------------------------------- *)

let () =
  let texts seed =
    let rng = Gen.rng seed in
    List.init 3 (fun _ -> (Gen.fleet rng ~pairs:4).Gen.f_text)
  in
  check "generator: same seed, same fleets" (texts 7 = texts 7);
  check "generator: other seed, other fleets" (texts 7 <> texts 8);
  let f = Gen.fleet (Gen.rng 3) ~pairs:4 in
  let spec = Fsa_spec.Parser.parse_string f.Gen.f_text in
  let env = Fsa_spec.Elaborate.env_of_spec spec in
  check "generator: fleet declares 8 instances"
    (List.length env.Fsa_spec.Elaborate.instances = 8);
  let rules = Fsa_apa.Apa.rule_names (Fsa_spec.Elaborate.apa_of_spec spec) in
  check "generator: every show rule belongs to a generated receiver"
    (List.for_all
       (fun p -> List.mem (Gen.vname p.Gen.receiver ^ "_show") rules)
       f.Gen.f_pairs);
  let d t = Fsa_spec.Elaborate.digest_of_spec ~parts:[ `Apa ] (Fsa_spec.Parser.parse_string t) in
  check "generator: reformatted text keeps its digest"
    (d f.Gen.f_text = d (Gen.reformat 1 f.Gen.f_text));
  let a = Gen.fresh_fleet (Gen.rng 1) ~pairs:1 0 and b = Gen.fresh_fleet (Gen.rng 1) ~pairs:1 1 in
  check "generator: first-seen fleets have new digests" (d a.Gen.f_text <> d b.Gen.f_text)

(* ---- reference checker ------------------------------------------- *)

let auth_json (c, e, s) =
  Json.Obj [ ("cause", Json.Str c); ("effect", Json.Str e); ("stakeholder", Json.Str s) ]

let with_requirements result reqs =
  match result with
  | Json.Obj members ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           if k = "requirements" then
             (k, Json.List (List.map auth_json reqs))
           else (k, v))
         members)
  | j -> j

let () =
  let module Server = Fsa_server.Server in
  let cfg = Server.config ~stakeholder:Workloads.stakeholder () in
  let spec_text = Workloads.read_file (Filename.concat root "examples/specs/two_vehicles.fsa") in
  let r = Reference.load (Filename.concat root "perfbench/expected/two_vehicles.expected") in
  let o =
    Server.Exec.run cfg ~op:Server.Exec.Report ~file:"two_vehicles.fsa"
      (Fsa_spec.Parser.parse_string spec_text)
  in
  let result = o.Server.Exec.oc_result in
  let got = Reference.requirements_of result in
  check "checker: accepts the program's two_vehicles report"
    (Reference.check r ~op:"report" (Ok (0, result)) = Reference.Ok);
  let dropped = with_requirements result (List.tl got) in
  check "checker: rejects a report with one requirement dropped"
    (match Reference.check r ~op:"report" (Ok (0, dropped)) with
    | Reference.Mismatch _ -> true
    | _ -> false);
  let swapped =
    with_requirements result
      (match got with (c, e, _) :: rest -> (c, e, "D_1") :: rest | [] -> [])
  in
  let v = Reference.check r ~op:"report" (Ok (0, swapped)) in
  check "checker: rejects a report with one stakeholder swapped"
    (match v with Reference.Stakeholder_mismatch _ -> true | _ -> false);
  check "checker: rejects an error where a result is expected"
    (Reference.check r ~op:"reach" (Error "bad_request") <> Reference.Ok);
  let onboard = Reference.load (Filename.concat root "perfbench/expected/evita_onboard.expected") in
  check "checker: accepts the expected structured error"
    (Reference.check onboard ~op:"reach" (Error "bad_request") = Reference.Ok);
  (* generated fleets: the reference follows from the construction *)
  let f = Gen.fleet (Gen.rng 5) ~pairs:1 in
  let fr = Reference.of_fleet f in
  let o =
    Server.Exec.run cfg ~op:Server.Exec.Requirements ~file:"fleet.fsa"
      (Fsa_spec.Parser.parse_string f.Gen.f_text)
  in
  check "checker: accepts the program's requirements on a generated fleet"
    (Reference.check fr ~op:"requirements" (Ok (0, o.Server.Exec.oc_result)) = Reference.Ok)

(* ---- metric names ------------------------------------------------ *)

let () =
  let timed =
    { Workloads.op_ms = [ 1.; 2. ]; hit_ms = [ 1. ]; miss_ms = [ 2. ]; window_s = 1.; peak_mb = 1.;
      t = Workloads.tally () }
  in
  timed.Workloads.t.Workloads.attempted <- 2;
  let e2e = Workloads.end_to_end timed ~setup_s:[ 0.5 ] in
  let per_layer = List.map fst Tracing.metric_specs in
  let all = List.map (fun m -> (m.Stats.name, m.Stats.unit_)) e2e @ Tracing.metric_specs in
  check "metrics: every name matches [A-Za-z0-9_.-]+"
    (List.for_all (fun (n, _) -> Stats.valid_name n) all);
  check "metrics: every metric has a unit" (List.for_all (fun (_, u) -> Stats.valid_unit u) all);
  check "metrics: names are unique"
    (List.length (List.sort_uniq compare (List.map fst all)) = List.length all);
  let line = Stats.result_line ~correct:true ~attempted:2 ~failed:0 e2e in
  check "metrics: the result line is JSON with the four keys"
    (match Json.parse line with
    | Ok (Json.Obj ms) -> List.map fst ms = [ "correct"; "attempted"; "failed"; "metrics" ]
    | _ -> false);
  let bench = Workloads.read_file (Filename.concat root "BENCHMARK.json") in
  match Json.parse bench with
  | Error e -> check ("metrics: BENCHMARK.json parses: " ^ e) false
  | Ok b ->
    let names k =
      match Json.member k b with
      | Some (Json.List l) ->
        List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str) l
      | _ -> []
    in
    check "metrics: BENCHMARK.json lists exactly the end-to-end metrics"
      (names "end_to_end" = List.map (fun m -> m.Stats.name) e2e);
    check "metrics: BENCHMARK.json lists exactly the per-layer metrics"
      (names "per_layer" = per_layer);
    check "metrics: BENCHMARK.json lists exactly the workloads"
      (names "workloads" = Workloads.names)

(* ---- smoke: a few ops of every workload -------------------------- *)

let () =
  List.iter
    (fun w ->
      let env = Workloads.setup ~root ~seed:11 w in
      let r = Workloads.timed_run env ~seconds:0. in
      Workloads.teardown env;
      let t = r.Workloads.t in
      check (Printf.sprintf "smoke %s: ran and checked ops" w) (t.Workloads.attempted >= 1);
      check (Printf.sprintf "smoke %s: no op failed" w) (t.Workloads.failed = 0))
    Workloads.names;
  let env = Workloads.setup ~root ~seed:11 "serve" in
  let r = Tracing.traced_run env ~seconds:0. in
  let defects = Workloads.probe_known_defects env in
  Workloads.teardown env;
  check "smoke serve traced: one whole pass, no op failed"
    (r.Tracing.ops = env.Workloads.cycle && r.Tracing.t.Workloads.failed = 0);
  check "smoke serve: smart_grid requirements and report are probed for the known defect"
    (List.length defects = 2
    && List.for_all (String.starts_with ~prefix:"known defect") defects);
  check "smoke serve traced: every per-layer metric present"
    (List.map (fun m -> m.Stats.name) r.Tracing.metrics = List.map fst Tracing.metric_specs)

let () =
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
