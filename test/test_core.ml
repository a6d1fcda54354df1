(* Tests for Fsa_core.Analysis: the two analysis paths and their
   cross-validation. *)

module Action = Fsa_term.Action
module Agent = Fsa_term.Agent
module Auth = Fsa_requirements.Auth
module Analysis = Fsa_core.Analysis
module Lts = Fsa_lts.Lts
module S = Fsa_vanet.Scenario
module V = Fsa_vanet.Vehicle_apa

let auth = Alcotest.testable Auth.pp Auth.equal

let test_manual_report () =
  let r = Analysis.manual S.two_vehicles in
  Alcotest.(check int) "3 requirements" 3 (List.length r.Analysis.m_requirements);
  Alcotest.(check int) "chi matches requirements" 3 (List.length r.Analysis.m_chi);
  Alcotest.(check int) "every requirement classified" 3
    (List.length r.Analysis.m_classified);
  Alcotest.(check int) "3 incoming boundary actions" 3
    (List.length r.Analysis.m_boundary.Fsa_model.Sos.incoming);
  Alcotest.(check int) "1 outgoing boundary action" 1
    (List.length r.Analysis.m_boundary.Fsa_model.Sos.outgoing)

let test_tool_report_two_vehicles () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  Alcotest.(check int) "13 states" 13 r.Analysis.t_stats.Fsa_lts.Lts.nb_states;
  Alcotest.(check (list auth)) "Sect. 5.4 requirement set"
    [ Auth.make ~cause:(V.v_pos 1) ~effect:(V.v_show 2)
        ~stakeholder:(Agent.concrete "D" 2);
      Auth.make ~cause:(V.v_sense 1) ~effect:(V.v_show 2)
        ~stakeholder:(Agent.concrete "D" 2);
      Auth.make ~cause:(V.v_pos 2) ~effect:(V.v_show 2)
        ~stakeholder:(Agent.concrete "D" 2) ]
    r.Analysis.t_requirements

let test_tool_report_four_vehicles () =
  let r = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  Alcotest.(check int) "169 states" 169 r.Analysis.t_stats.Fsa_lts.Lts.nb_states;
  Alcotest.(check int) "6 requirements (Sect. 5.5)" 6
    (List.length r.Analysis.t_requirements);
  (* the matrix covers all (max, min) combinations *)
  Alcotest.(check int) "2 maxima rows" 2 (List.length r.Analysis.t_matrix);
  List.iter
    (fun (_, row) -> Alcotest.(check int) "6 minima columns" 6 (List.length row))
    r.Analysis.t_matrix

(* The tool path decides every pair by abstraction; the direct BFS on
   the whole graph must give each pair the same verdict. *)
let test_methods_agree () =
  List.iter
    (fun apa ->
      let r = Analysis.tool ~stakeholder:V.stakeholder apa in
      let lts = Lts.explore apa in
      List.iter
        (fun (mn, mx, dep) ->
          Alcotest.(check bool)
            (Fmt.str "%s: direct = abstract (%a, %a)" (Fsa_apa.Apa.name apa)
               Action.pp mn Action.pp mx)
            (Lts.depends_on lts ~max_action:mx ~min_action:mn)
            dep)
        (Analysis.matrix_pairs r))
    [ V.two_vehicles (); V.four_vehicles (); V.chain 3; V.chain 4 ]

let test_crosscheck_agreement () =
  List.iter
    (fun (apa, sos) ->
      let tool = Analysis.tool ~stakeholder:V.stakeholder apa in
      let manual = Analysis.manual sos in
      let c =
        Analysis.crosscheck ~map:V.manual_action_of_label
          ~manual_requirements:manual.Analysis.m_requirements
          ~tool_requirements:tool.Analysis.t_requirements
      in
      Alcotest.(check bool) (Fsa_apa.Apa.name apa ^ " agrees") true c.Analysis.c_agree)
    [ (V.two_vehicles (), S.chain_concrete 2);
      (V.four_vehicles (), S.pairs_concrete 2);
      (V.chain 3, S.chain_concrete 3);
      (V.chain 5, S.chain_concrete 5) ]

let test_crosscheck_detects_differences () =
  let tool = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  let manual = Analysis.manual (S.chain_concrete 2) in
  (* inject a spurious manual requirement *)
  let spurious =
    Auth.make
      ~cause:(Action.of_string_exn "pos(GPS_9, pos)")
      ~effect:(Action.of_string_exn "show(HMI_2, warn)")
      ~stakeholder:(Agent.concrete "D" 2)
  in
  let c =
    Analysis.crosscheck ~map:V.manual_action_of_label
      ~manual_requirements:(spurious :: manual.Analysis.m_requirements)
      ~tool_requirements:tool.Analysis.t_requirements
  in
  Alcotest.(check bool) "disagreement detected" false c.Analysis.c_agree;
  Alcotest.(check (list auth)) "manual-only requirement reported" [ spurious ]
    c.Analysis.c_manual_only;
  (* and a tool action without a manual image is reported *)
  let c2 =
    Analysis.crosscheck
      ~map:(fun _ -> None)
      ~manual_requirements:[]
      ~tool_requirements:tool.Analysis.t_requirements
  in
  Alcotest.(check bool) "unmapped actions detected" false c2.Analysis.c_agree;
  Alcotest.(check bool) "unmapped list non-empty" true (c2.Analysis.c_unmapped <> [])

let test_max_states_plumbing () =
  match
    Analysis.tool ~max_states:5 ~stakeholder:V.stakeholder (V.two_vehicles ())
  with
  | _ -> Alcotest.fail "bound must propagate"
  | exception Fsa_lts.Lts.State_space_too_large _ -> ()

let test_reports_render () =
  let manual = Analysis.manual S.three_vehicles in
  let text = Fmt.str "%a" Analysis.pp_manual_report manual in
  Alcotest.(check bool) "manual report mentions policy" true
    (let sub = "policy" in
     let rec contains i =
       i + String.length sub <= String.length text
       && (String.sub text i (String.length sub) = sub || contains (i + 1))
     in
     contains 0);
  let tool = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  let text2 = Fmt.str "%a" Analysis.pp_tool_report tool in
  Alcotest.(check bool) "tool report mentions minima" true
    (let sub = "minima" in
     let rec contains i =
       i + String.length sub <= String.length text2
       && (String.sub text2 i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Modular decomposition (DESIGN.md §14)                               *)
(* ------------------------------------------------------------------ *)

module Apa = Fsa_apa.Apa
module Term = Fsa_term.Term
module Metrics = Fsa_obs.Metrics
module Exec = Fsa_server.Server.Exec
module Json = Fsa_json.Json

let stakeholder = Fsa_requirements.Derive.default_stakeholder

let evita_fleet () =
  let dir =
    List.find Sys.file_exists [ "examples/specs"; "../../../examples/specs" ]
  in
  Fsa_spec.Parser.parse_file (Filename.concat dir "evita_fleet.fsa")

(* The APA was analysed as one graph, and that graph is the product. *)
let check_one_module what apa =
  let r = Analysis.tool ~stakeholder apa in
  Alcotest.(check bool) (what ^ ": one module") true (Lts.is_explored r.Analysis.t_lts);
  Alcotest.(check bool) (what ^ ": product stats") true
    (r.Analysis.t_stats = Lts.stats (Lts.explore apa));
  r

(* Two put-only rules on one component commute, yet the union of their
   puts merges states: 2 global states, not 2 x 2. *)
let test_put_only_shared_component () =
  let put_x name =
    Apa.rule ~takes:[] ~puts:[ Apa.put "c" (Term.sym "x") ] name
  in
  let apa =
    Apa.make ~components:[ ("c", Term.Set.empty) ]
      ~rules:[ put_x "a"; put_x "b" ] "puts"
  in
  let r = check_one_module "put-only" apa in
  Alcotest.(check int) "2 states" 2 r.Analysis.t_stats.Lts.nb_states

(* Rules on disjoint state, but one custom label for both: the module
   alphabets would overlap, so the APA is analysed whole. *)
let test_custom_labels_one_module () =
  let move name src dst =
    Apa.rule ~label:(fun _ -> Action.make "move")
      ~takes:[ Apa.take src (Term.var "x") ]
      ~puts:[ Apa.put dst (Term.var "x") ]
      name
  in
  let one = Term.Set.singleton (Term.sym "t") in
  let apa =
    Apa.make
      ~components:
        [ ("p", one); ("q", Term.Set.empty); ("r", one); ("s", Term.Set.empty) ]
      ~rules:[ move "a" "p" "q"; move "b" "r" "s" ]
      "custom"
  in
  let r = check_one_module "custom labels" apa in
  Alcotest.(check int) "4 states" 4 r.Analysis.t_stats.Lts.nb_states

(* [max_states] bounds the product the modules stand for. *)
let test_fleet_state_bound () =
  let apa = Fsa_spec.Elaborate.apa_of_spec (evita_fleet ()) in
  (match Analysis.tool ~max_states:28_560 ~stakeholder:V.stakeholder apa with
  | _ -> Alcotest.fail "28 561 states exceed a bound of 28 560"
  | exception Lts.State_space_too_large 28_560 -> ());
  let r = Analysis.tool ~max_states:28_561 ~stakeholder:V.stakeholder apa in
  Alcotest.(check int) "28 561 states" 28_561 r.Analysis.t_stats.Lts.nb_states;
  Alcotest.(check bool) "product not explored" false
    (Lts.is_explored r.Analysis.t_lts)

(* Under an ample-set reduction the maxima come from each interference
   module's graph, explored alone; no product bound applies.  The
   reduced fleet fits 20 000 states where its product (28 561) does
   not, and keeps the unreduced run's requirements. *)
let test_fleet_reduced_under_product_bound () =
  let spec = evita_fleet () in
  let apa = Fsa_spec.Elaborate.apa_of_spec spec in
  let sigs = Fsa_spec.Elaborate.guard_signatures spec in
  let full = Analysis.tool ~stakeholder:V.stakeholder apa in
  List.iter
    (fun (name, kind) ->
      let plan =
        Fsa_sym.Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) kind apa
      in
      let r =
        Analysis.tool ~max_states:20_000 ~reduce:plan ~stakeholder:V.stakeholder apa
      in
      Alcotest.(check int) (name ^ ": 12 requirements") 12
        (List.length r.Analysis.t_requirements);
      Alcotest.(check bool) (name ^ ": unreduced requirements") true
        (Auth.equal_set full.Analysis.t_requirements r.Analysis.t_requirements))
    [ ("por", Fsa_sym.Sym.Por); ("sym+por", Fsa_sym.Sym.Sym_por) ]

(* The report op decides the fleet on its four 13-state module graphs,
   one shared engine each, and never explores the product. *)
let test_report_op_stays_modular () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  let cfg = Fsa_server.Server.config ~stakeholder:V.stakeholder () in
  let oc =
    Exec.run cfg ~op:Exec.Report ~cache:false ~file:"evita_fleet.fsa"
      (evita_fleet ())
  in
  let counter name = List.assoc name (Metrics.counters ()) in
  Alcotest.(check int) "4 x 13 states explored" 52 (counter "lts.states_explored");
  Alcotest.(check int) "one shared engine per module" 4
    (counter "hom.shared_builds");
  Alcotest.(check (option int)) "the report counts the product" (Some 28_561)
    (Option.bind
       (Option.bind (Json.member "graph" oc.Exec.oc_result) (Json.member "states"))
       Json.to_int)

let suite =
  [ Alcotest.test_case "manual report" `Quick test_manual_report;
    Alcotest.test_case "tool report (2 vehicles)" `Quick test_tool_report_two_vehicles;
    Alcotest.test_case "tool report (4 vehicles)" `Quick test_tool_report_four_vehicles;
    Alcotest.test_case "direct = abstract" `Quick test_methods_agree;
    Alcotest.test_case "crosscheck agreement" `Quick test_crosscheck_agreement;
    Alcotest.test_case "crosscheck detects differences" `Quick test_crosscheck_detects_differences;
    Alcotest.test_case "max_states plumbing" `Quick test_max_states_plumbing;
    Alcotest.test_case "reports render" `Quick test_reports_render;
    Alcotest.test_case "put-only shared component is one module" `Quick
      test_put_only_shared_component;
    Alcotest.test_case "custom labels are one module" `Quick
      test_custom_labels_one_module;
    Alcotest.test_case "fleet state bound" `Quick test_fleet_state_bound;
    Alcotest.test_case "reduced fleet under the product bound" `Quick
      test_fleet_reduced_under_product_bound;
    Alcotest.test_case "report op stays modular" `Quick
      test_report_op_stays_modular ]
