(* Experiment harness: regenerates every table and figure of the paper's
   evaluation and reports paper-expected vs. measured values, followed by
   Bechamel micro-benchmarks of the computational kernels.

   Run with: dune exec bench/main.exe
   (pass --no-perf to skip the timing section) *)

module Term = Fsa_term.Term
module Agent = Fsa_term.Agent
module Action = Fsa_term.Action
module Sos = Fsa_model.Sos
module Auth = Fsa_requirements.Auth
module Derive = Fsa_requirements.Derive
module Classify = Fsa_requirements.Classify
module Generalise = Fsa_requirements.Generalise
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Analysis = Fsa_core.Analysis
module S = Fsa_vanet.Scenario
module V = Fsa_vanet.Vehicle_apa
module Evita = Fsa_vanet.Evita

let failures = ref 0

let section id title = Fmt.pr "@.===== [%s] %s =====@." id title

let check id ~expected ~measured pp =
  let ok = expected = measured in
  if not ok then incr failures;
  Fmt.pr "  %-52s paper: %-20s measured: %-20s %s@." id
    (Fmt.str "%a" pp expected)
    (Fmt.str "%a" pp measured)
    (if ok then "OK" else "MISMATCH")

let check_int id ~expected ~measured = check id ~expected ~measured Fmt.int

let check_set id ~expected ~measured =
  let expected = List.sort_uniq String.compare expected in
  let measured = List.sort_uniq String.compare measured in
  let ok = expected = measured in
  if not ok then incr failures;
  Fmt.pr "  %-32s %s@." id (if ok then "OK" else "MISMATCH");
  if not ok then begin
    Fmt.pr "    paper:    @[%a@]@." Fmt.(list ~sep:comma string) expected;
    Fmt.pr "    measured: @[%a@]@." Fmt.(list ~sep:comma string) measured
  end
  else Fmt.pr "    @[%a@]@." Fmt.(list ~sep:comma string) measured

let req_strings reqs = List.map Auth.to_string reqs

(* =================================================================== *)
(* T1 — Table 1: the actions of the example system                     *)
(* =================================================================== *)

let exp_table1 () =
  section "T1" "Table 1: actions of the example system";
  List.iter
    (fun (action, explanation) ->
      Fmt.pr "  %-22s %s@." (Action.to_string action) explanation)
    S.table1;
  check_int "number of action kinds" ~expected:7
    ~measured:(List.length S.table1)

(* =================================================================== *)
(* F1 — Fig. 1: functional component models                            *)
(* =================================================================== *)

let exp_fig1 () =
  section "F1" "Fig. 1: functional component models (RSU, vehicle)";
  Fmt.pr "%a@." Fsa_model.Component.pp S.rsu_component;
  Fmt.pr "%a@." Fsa_model.Component.pp S.vehicle_template;
  check_int "RSU actions" ~expected:1
    ~measured:(List.length (Fsa_model.Component.actions S.rsu_component));
  check_int "vehicle actions" ~expected:6
    ~measured:(List.length (Fsa_model.Component.actions S.vehicle_template));
  check_int "vehicle internal flows" ~expected:6
    ~measured:(List.length (Fsa_model.Component.flows S.vehicle_template))

(* =================================================================== *)
(* F2 — Fig. 2 and Examples 1-2                                        *)
(* =================================================================== *)

let exp_fig2 () =
  section "F2" "Fig. 2 / Examples 1-2: vehicle w receives a warning from the RSU";
  let reqs = Derive.of_sos S.rsu_and_vehicle in
  check_set "requirement set"
    ~expected:
      [ "auth(pos(GPS_w, pos), show(HMI_w, warn), D_w)";
        "auth(send(cam(pos)), show(HMI_w, warn), D_w)" ]
    ~measured:(req_strings reqs)

(* =================================================================== *)
(* F3 — Fig. 3 and Example 3                                           *)
(* =================================================================== *)

let exp_fig3 () =
  section "F3" "Fig. 3 / Example 3: vehicle w receives a warning from vehicle 1";
  let poset = Sos.poset S.two_vehicles in
  let module P = Fsa_model.Action_graph.P in
  check_int "zeta (direct flows)" ~expected:5
    ~measured:(Fsa_model.Action_graph.G.nb_edges (P.base poset));
  check_int "zeta* (incl. reflexive pairs)" ~expected:16
    ~measured:(List.length (P.closure_pairs poset));
  check_set "chi_1 requirements (1)-(3)"
    ~expected:
      [ "auth(pos(GPS_1, pos), show(HMI_w, warn), D_w)";
        "auth(pos(GPS_w, pos), show(HMI_w, warn), D_w)";
        "auth(sense(ESP_1, sW), show(HMI_w, warn), D_w)" ]
    ~measured:(req_strings (Derive.of_sos S.two_vehicles))

(* =================================================================== *)
(* F4 — Fig. 4: forwarding, chi_2, the parameterised family, (1)-(4)   *)
(* =================================================================== *)

let exp_fig4 () =
  section "F4" "Fig. 4: vehicle 2 forwards warnings; chi_2 and requirements (1)-(4)";
  let reqs2 = Derive.of_sos S.two_vehicles in
  let reqs3 = Derive.of_sos S.three_vehicles in
  check_set "chi_2 \\ chi_1"
    ~expected:[ "auth(pos(GPS_2, pos), show(HMI_w, warn), D_w)" ]
    ~measured:(req_strings (Auth.diff reqs3 reqs2));
  (* chi_i = chi_(i-1) + pos(GPS_i) *)
  let growth =
    List.map (fun n -> List.length (Derive.of_sos (S.chain n))) [ 2; 3; 4; 5; 6 ]
  in
  check "chi_i grows by one per forwarder" ~expected:[ 3; 4; 5; 6; 7 ]
    ~measured:growth
    Fmt.(Dump.list int);
  (* first-order generalisation *)
  let union = Derive.of_instances (List.map S.chain [ 2; 3; 4; 5; 6 ]) in
  let gens = Generalise.generalise ~domain_of:S.v_forward_domain union in
  Fmt.pr "  generalised requirement set:@.";
  List.iter (fun g -> Fmt.pr "    %a@." Generalise.pp g) gens;
  check_int "generalised set size (reqs (1)-(4))" ~expected:4
    ~measured:(List.length gens);
  check_int "quantified requirements" ~expected:1
    ~measured:
      (List.length
         (List.filter
            (function Generalise.Forall _ -> true | Generalise.Concrete _ -> false)
            gens));
  (* classification: requirement (4) is availability, not safety *)
  let classified = Classify.classify_all S.three_vehicles reqs3 in
  let availability =
    List.filter
      (fun (_, c) -> not (Classify.equal_class c Classify.Safety_critical))
      classified
  in
  check_set "availability-only requirements (req (4))"
    ~expected:[ "auth(pos(GPS_2, pos), show(HMI_w, warn), D_w)" ]
    ~measured:(List.map (fun (r, _) -> Auth.to_string r) availability)

(* =================================================================== *)
(* F5/F6 — APA models (Fig. 5, Fig. 6 / Example 5)                     *)
(* =================================================================== *)

let exp_fig5_6 () =
  section "F5" "Fig. 5: APA model of a vehicle";
  let v1 = V.vehicle ~esp_init:[ V.sw ] ~gps_init:[ V.pos1 ] 1 in
  Fmt.pr "%a@." Apa.pp v1;
  check_int "state components (esp, gps, bus, hmi, net)" ~expected:5
    ~measured:(List.length (Apa.components v1));
  check_int "elementary automata (full role incl. fwd)" ~expected:6
    ~measured:(List.length (Apa.rules v1));

  section "F6" "Fig. 6 / Example 5: APA SoS instance with two vehicles";
  let apa = V.two_vehicles () in
  check_int "state components" ~expected:9
    ~measured:(List.length (Apa.components apa));
  Fmt.pr "  initial state q0:@.";
  Fmt.pr "%a@." Apa.State.pp (Apa.initial_state apa);
  (* q0 = ({sW}, {pos1}, 0, 0, 0, {pos2}, 0, 0, 0) *)
  let q0 = Apa.initial_state apa in
  check_int "esp1 pending measurement" ~expected:1
    ~measured:(Term.Set.cardinal (Apa.State.get "esp1" q0));
  check_int "gps2 pending position" ~expected:1
    ~measured:(Term.Set.cardinal (Apa.State.get "gps2" q0));
  check_int "net initially empty" ~expected:0
    ~measured:(Term.Set.cardinal (Apa.State.get "net" q0))

(* =================================================================== *)
(* F7 — Fig. 7 / Example 6: reachability graph, minima and maxima      *)
(* =================================================================== *)

let exp_fig7 () =
  section "F7" "Fig. 7 / Example 6: reachability graph of the two-vehicle instance";
  let lts = Lts.explore (V.two_vehicles ()) in
  Fmt.pr "%a@." Lts.pp_min_max lts;
  check_int "states (M-1..M-13)" ~expected:13 ~measured:(Lts.nb_states lts);
  check_int "dead states" ~expected:1 ~measured:(List.length (Lts.deadlocks lts));
  check_set "minima"
    ~expected:[ "V1_sense"; "V1_pos"; "V2_pos" ]
    ~measured:(List.map Action.to_string (Action.Set.elements (Lts.minima lts)));
  check_set "maxima" ~expected:[ "V2_show" ]
    ~measured:(List.map Action.to_string (Action.Set.elements (Lts.maxima lts)));
  let report = Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()) in
  check_set "requirements (Sect. 5.4)"
    ~expected:
      [ "auth(V1_sense, V2_show, D_2)"; "auth(V1_pos, V2_show, D_2)";
        "auth(V2_pos, V2_show, D_2)" ]
    ~measured:(req_strings report.Analysis.t_requirements)

(* =================================================================== *)
(* F8/F9 — Figs. 8-9: four vehicles                                    *)
(* =================================================================== *)

let exp_fig8_9 () =
  section "F8" "Fig. 8: APA SoS instance with four vehicles (two pairs)";
  let apa = V.four_vehicles () in
  check_int "state components (4 vehicles x 4 + 2 nets)" ~expected:18
    ~measured:(List.length (Apa.components apa));
  check_int "elementary automata" ~expected:12
    ~measured:(List.length (Apa.rules apa));

  section "F9" "Fig. 9: reachability graph of the four-vehicle instance";
  let lts = Lts.explore apa in
  Fmt.pr "%a@." Lts.pp_min_max lts;
  check_int "states (169 = 13^2)" ~expected:169 ~measured:(Lts.nb_states lts);
  check_set "minima"
    ~expected:[ "V1_sense"; "V3_sense"; "V1_pos"; "V2_pos"; "V3_pos"; "V4_pos" ]
    ~measured:(List.map Action.to_string (Action.Set.elements (Lts.minima lts)));
  check_set "maxima" ~expected:[ "V2_show"; "V4_show" ]
    ~measured:(List.map Action.to_string (Action.Set.elements (Lts.maxima lts)))

(* =================================================================== *)
(* F10/F11 — minimal automata of homomorphic images                    *)
(* =================================================================== *)

let exp_fig10_11 () =
  let lts = Lts.explore (V.four_vehicles ()) in
  section "F10" "Fig. 10: minimal automaton for (V1_sense, V2_show) — dependent";
  let d10 = Hom.minimal_automaton (Hom.preserve [ V.v_sense 1; V.v_show 2 ]) lts in
  Fmt.pr "%a@." Hom.A.Dfa.pp d10;
  check_int "states (chain: . -sense-> . -show-> .)" ~expected:3
    ~measured:(Hom.A.Dfa.nb_states d10);
  check_int "transitions" ~expected:2 ~measured:(Hom.A.Dfa.nb_transitions d10);
  check "functional dependence detected" ~expected:true
    ~measured:(Hom.depends_abstract lts ~min_action:(V.v_sense 1) ~max_action:(V.v_show 2))
    Fmt.bool;
  check "homomorphism simple" ~expected:true
    ~measured:(Hom.is_simple (Hom.preserve [ V.v_sense 1; V.v_show 2 ]) lts)
    Fmt.bool;

  section "F11" "Fig. 11: minimal automaton for (V1_sense, V4_show) — independent";
  let d11 = Hom.minimal_automaton (Hom.preserve [ V.v_sense 1; V.v_show 4 ]) lts in
  Fmt.pr "%a@." Hom.A.Dfa.pp d11;
  check_int "states (diamond)" ~expected:4 ~measured:(Hom.A.Dfa.nb_states d11);
  check_int "transitions" ~expected:4 ~measured:(Hom.A.Dfa.nb_transitions d11);
  check "independence detected" ~expected:false
    ~measured:(Hom.depends_abstract lts ~min_action:(V.v_sense 1) ~max_action:(V.v_show 4))
    Fmt.bool

(* =================================================================== *)
(* R6 — Sect. 5.5: the requirement set of the four-vehicle scenario    *)
(* =================================================================== *)

let exp_req6 () =
  section "R6" "Sect. 5.5: requirement set of the four-vehicle scenario";
  let report = Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()) in
  check_set "six requirements"
    ~expected:
      [ "auth(V1_sense, V2_show, D_2)"; "auth(V1_pos, V2_show, D_2)";
        "auth(V2_pos, V2_show, D_2)"; "auth(V3_sense, V4_show, D_4)";
        "auth(V3_pos, V4_show, D_4)"; "auth(V4_pos, V4_show, D_4)" ]
    ~measured:(req_strings report.Analysis.t_requirements)

(* =================================================================== *)
(* EV — Sect. 4.4: EVITA-scale statistics                              *)
(* =================================================================== *)

let exp_evita () =
  section "EV" "Sect. 4.4: EVITA application statistics (synthetic model)";
  let p = Evita.paper_profile and m = Evita.measured_profile () in
  check_int "authenticity requirements" ~expected:p.Evita.requirements
    ~measured:m.Evita.requirements;
  check_int "component boundary actions"
    ~expected:p.Evita.component_boundary_actions
    ~measured:m.Evita.component_boundary_actions;
  check_int "system boundary actions" ~expected:p.Evita.system_boundary_actions
    ~measured:m.Evita.system_boundary_actions;
  check_int "maximal elements" ~expected:p.Evita.maximal ~measured:m.Evita.maximal;
  check_int "minimal elements" ~expected:p.Evita.minimal ~measured:m.Evita.minimal

(* =================================================================== *)
(* X1 — cross-validation of the two analysis paths                     *)
(* =================================================================== *)

let exp_crosscheck () =
  section "X1" "Cross-validation: manual path vs tool path";
  List.iter
    (fun (name, apa, sos) ->
      let tool = Analysis.tool ~stakeholder:V.stakeholder apa in
      let direct = Analysis.tool ~meth:Analysis.Direct ~stakeholder:V.stakeholder apa in
      let manual = Analysis.manual sos in
      let c =
        Analysis.crosscheck ~map:V.manual_action_of_label
          ~manual_requirements:manual.Analysis.m_requirements
          ~tool_requirements:tool.Analysis.t_requirements
      in
      check (name ^ ": manual = tool") ~expected:true ~measured:c.Analysis.c_agree
        Fmt.bool;
      check (name ^ ": abstract = direct") ~expected:true
        ~measured:
          (Auth.equal_set tool.Analysis.t_requirements
             direct.Analysis.t_requirements)
        Fmt.bool)
    [ ("two vehicles", V.two_vehicles (), S.chain_concrete 2);
      ("four vehicles", V.four_vehicles (), S.pairs_concrete 2);
      ("chain of 3", V.chain 3, S.chain_concrete 3);
      ("chain of 5", V.chain 5, S.chain_concrete 5) ];
  (* the smart-grid domain, with its own label correspondence *)
  let grid_tool =
    Analysis.tool ~stakeholder:Fsa_grid.Grid_apa.stakeholder
      (Fsa_grid.Grid_apa.demand_response ())
  in
  let grid_manual =
    Analysis.manual ~stakeholder:Fsa_grid.Scenario.stakeholder
      (Fsa_grid.Scenario.demand_response ())
  in
  let grid_check =
    Analysis.crosscheck ~map:Fsa_grid.Grid_apa.manual_action_of_label
      ~manual_requirements:grid_manual.Analysis.m_requirements
      ~tool_requirements:grid_tool.Analysis.t_requirements
  in
  check "smart grid: manual = tool" ~expected:true
    ~measured:grid_check.Analysis.c_agree Fmt.bool

(* =================================================================== *)
(* S1 — scaling series (extension beyond the paper's figures)          *)
(* =================================================================== *)

let exp_scaling () =
  section "S1" "Scaling: state spaces and requirement sets vs. system size";
  Fmt.pr "  %-18s %10s %14s %14s@." "instance" "states" "transitions" "requirements";
  List.iter
    (fun k ->
      let lts = Lts.explore (V.pairs k) in
      let report = Analysis.tool ~stakeholder:V.stakeholder (V.pairs k) in
      Fmt.pr "  %-18s %10d %14d %14d@."
        (Printf.sprintf "pairs(%d)" k)
        (Lts.nb_states lts) (Lts.nb_transitions lts)
        (List.length report.Analysis.t_requirements))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun n ->
      let lts = Lts.explore (V.chain n) in
      let report = Analysis.tool ~stakeholder:V.stakeholder (V.chain n) in
      Fmt.pr "  %-18s %10d %14d %14d@."
        (Printf.sprintf "chain(%d)" n)
        (Lts.nb_states lts) (Lts.nb_transitions lts)
        (List.length report.Analysis.t_requirements))
    [ 2; 3; 4; 5; 6; 7 ];
  (* 13^k law for independent pairs *)
  check_int "pairs(3) states = 13^3" ~expected:2197
    ~measured:(Lts.nb_states (Lts.explore (V.pairs 3)));
  check_int "pairs(4) states = 13^4" ~expected:28561
    ~measured:(Lts.nb_states (Lts.explore (V.pairs 4)))

(* =================================================================== *)
(* E1-E3 — extensions beyond the paper's published experiments          *)
(* =================================================================== *)

let exp_confidentiality () =
  section "E1" "Extension: confidentiality requirements (Sect. 6 future work)";
  let module Conf = Fsa_requirements.Confidentiality in
  (* the dual analysis mirrors chi: one forward-flow requirement per pair *)
  check_int "forward-flow requirements on EVITA = chi pairs" ~expected:29
    ~measured:(List.length (Conf.derive Evita.model));
  let gps_conf =
    { Conf.default_labelling with
      Conf.source_level =
        (fun a ->
          if Action.label a = "gps_acquire" then Conf.Confidential
          else Conf.Public) }
  in
  check_int "outputs reached by the (confidential) position" ~expected:5
    ~measured:
      (List.length
         (Conf.derive ~labelling:gps_conf ~threshold:Conf.Confidential
            Evita.model));
  check_int "clearance violations under internal-only observers" ~expected:5
    ~measured:
      (List.length
         (Conf.violations
            ~labelling:{ gps_conf with Conf.sink_clearance = (fun _ -> Conf.Internal) }
            Evita.model))

let exp_patterns () =
  section "E2" "Extension: requirements as property-specification patterns";
  let module Pattern = Fsa_mc.Pattern in
  let lts = Lts.explore (V.two_vehicles ()) in
  let precedes a b =
    Pattern.make (Pattern.Precedence (Pattern.action_is a, Pattern.action_is b))
  in
  let responds s p =
    Pattern.make (Pattern.Response (Pattern.action_is s, Pattern.action_is p))
  in
  (* the three derived authenticity requirements, as precedence properties *)
  List.iter
    (fun (mn, mx) ->
      check
        (Fmt.str "%a precedes %a" Action.pp mn Action.pp mx)
        ~expected:true
        ~measured:(Pattern.holds lts (precedes mn mx))
        Fmt.bool)
    [ (V.v_sense 1, V.v_show 2); (V.v_pos 1, V.v_show 2); (V.v_pos 2, V.v_show 2) ];
  check "liveness: the warning responds to the sensing" ~expected:true
    ~measured:(Pattern.holds lts (responds (V.v_sense 1) (V.v_show 2)))
    Fmt.bool;
  check "non-requirement rejected (show precedes sense)" ~expected:false
    ~measured:(Pattern.holds lts (precedes (V.v_show 2) (V.v_sense 1)))
    Fmt.bool

let exp_selfsim () =
  section "E3" "Extension: uniform parameterisation and self-similarity (Sect. 6)";
  let module Family = Fsa_param.Family in
  let module Selfsim = Fsa_param.Selfsim in
  check "chain requirement schema uniform for n = 2..7" ~expected:true
    ~measured:(Family.incrementally_uniform ~family:S.chain [ 3; 4; 5; 6; 7 ])
    Fmt.bool;
  let chain_report = Selfsim.check_chain ~range:[ 2; 3; 4; 5 ] () in
  Fmt.pr "%a@." Selfsim.pp_report chain_report;
  check "chain family self-similar (n = 2..5)" ~expected:true
    ~measured:chain_report.Selfsim.self_similar Fmt.bool;
  let pairs_report = Selfsim.check_pairs ~range:[ 1; 2 ] () in
  check "pairs family self-similar (k = 1..2)" ~expected:true
    ~measured:pairs_report.Selfsim.self_similar Fmt.bool

let exp_canonical_apa () =
  section "E5" "Extension: canonical APA of a functional model (tool path for free)";
  let module AoM = Fsa_core.Apa_of_model in
  (* the derived prediction: the tool-path state space of the EVITA model
     equals the number of order ideals of its event poset *)
  let ideals =
    Fsa_model.Action_graph.P.count_ideals (Sos.poset Evita.model)
  in
  let lts = Lts.explore (AoM.compile Evita.model) in
  check_int "EVITA tool-path states = order ideals" ~expected:ideals
    ~measured:(Lts.nb_states lts);
  check_int "states (pinned)" ~expected:80460 ~measured:(Lts.nb_states lts);
  let c =
    AoM.crosscheck ~meth:Analysis.Direct ~stakeholder:Evita.stakeholder
      Evita.model
  in
  check "EVITA: tool path = manual path" ~expected:true
    ~measured:c.Analysis.c_agree Fmt.bool;
  (* the canonical APA of the two-vehicle functional model coincides with
     the hand-written APA's state space *)
  check_int "two-vehicle canonical APA states" ~expected:13
    ~measured:(Lts.nb_states (Lts.explore (AoM.compile S.two_vehicles)))

let exp_platoon () =
  section "E6" "Extension: platooning — quantified families and a cyclic model";
  let module P = Fsa_vanet.Platoon in
  let counts =
    List.map
      (fun n ->
        List.length
          (Derive.of_sos ~stakeholder:P.stakeholder (P.round ~followers:n ())))
      [ 1; 2; 3; 4 ]
  in
  check "requirements = 2n per platoon size" ~expected:[ 2; 4; 6; 8 ]
    ~measured:counts
    Fmt.(Dump.list int);
  let union =
    Derive.of_instances ~stakeholder:P.stakeholder
      (List.map (fun n -> P.round ~followers:n ()) [ 2; 3; 4; 5 ])
  in
  let gens = Generalise.generalise ~domain_of:P.follower_domain union in
  check_int "two co-indexed quantified families" ~expected:2
    ~measured:
      (List.length
         (List.filter
            (function Generalise.Forall _ -> true | Generalise.Concrete _ -> false)
            gens));
  let lts = Lts.explore (P.apa ~followers:2 ()) in
  check_int "cyclic behaviour: no dead states" ~expected:0
    ~measured:(List.length (Lts.deadlocks lts));
  check "dependence survives cycles (ctrl <- beacon)" ~expected:true
    ~measured:
      (Lts.depends_on lts ~max_action:(P.f_ctrl 1) ~min_action:P.l_beacon)
    Fmt.bool

let exp_refinement () =
  section "E4" "Extension: refinement into architectural protection options";
  let module Refine = Fsa_refine.Refine in
  let module AG = Fsa_model.Action_graph in
  let requirements =
    Derive.of_sos ~stakeholder:Evita.stakeholder Evita.model
  in
  let plans = List.map (fun r -> (r, Refine.plan Evita.model r)) requirements in
  check_int "every requirement has a refinement path" ~expected:29
    ~measured:
      (List.length (List.filter (fun (_, p) -> p.Refine.p_paths <> []) plans));
  let cut_disconnects (r, p) =
    let remaining =
      List.filter
        (fun f -> not (List.exists (Fsa_model.Flow.equal f) p.Refine.p_min_cut))
        (Sos.all_flows Evita.model)
    in
    let g = AG.of_flows remaining in
    not
      (AG.G.mem_vertex (Auth.cause r) g
       && AG.G.Vset.mem (Auth.effect r) (AG.G.reachable (Auth.cause r) g))
  in
  check_int "every minimum cut severs its dependency" ~expected:29
    ~measured:(List.length (List.filter cut_disconnects plans));
  let total_cut =
    List.fold_left (fun acc (_, p) -> acc + List.length p.Refine.p_min_cut) 0 plans
  in
  Fmt.pr "  total protection points across all 29 requirements: %d@." total_cut;
  Fmt.pr "  largest attack surface: %d flows@."
    (List.fold_left
       (fun acc (_, p) -> max acc (List.length p.Refine.p_surface))
       0 plans)

(* =================================================================== *)
(* Bechamel micro-benchmarks                                           *)
(* =================================================================== *)

let benchmarks () =
  let open Bechamel in
  let open Toolkit in
  section "PERF" "Bechamel micro-benchmarks (time per run)";
  let evita_graph = Sos.dependency_graph Evita.model in
  let lts4 = Lts.explore (V.four_vehicles ()) in
  let tests =
    [ Test.make ~name:"closure/dfs/evita"
        (Staged.stage (fun () ->
             ignore (Fsa_model.Action_graph.G.transitive_closure evita_graph)));
      Test.make ~name:"closure/warshall/evita"
        (Staged.stage (fun () ->
             ignore
               (Fsa_model.Action_graph.G.transitive_closure_dense evita_graph)));
      Test.make ~name:"reach/2-vehicles"
        (Staged.stage (fun () -> ignore (Lts.explore (V.two_vehicles ()))));
      Test.make ~name:"reach/4-vehicles"
        (Staged.stage (fun () -> ignore (Lts.explore (V.four_vehicles ()))));
      Test.make ~name:"reach/3-pairs"
        (Staged.stage (fun () -> ignore (Lts.explore (V.pairs 3))));
      Test.make ~name:"dependence/direct"
        (Staged.stage (fun () ->
             ignore
               (Lts.depends_on lts4 ~max_action:(V.v_show 2)
                  ~min_action:(V.v_sense 1))));
      Test.make ~name:"dependence/abstract"
        (Staged.stage (fun () ->
             ignore
               (Hom.depends_abstract lts4 ~min_action:(V.v_sense 1)
                  ~max_action:(V.v_show 2))));
      Test.make ~name:"minimal-automaton/4-vehicles"
        (Staged.stage (fun () ->
             ignore
               (Hom.minimal_automaton
                  (Hom.preserve [ V.v_sense 1; V.v_show 2 ])
                  lts4)));
      Test.make ~name:"simplicity-check/4-vehicles"
        (Staged.stage (fun () ->
             ignore (Hom.is_simple (Hom.preserve [ V.v_sense 1; V.v_show 2 ]) lts4)));
      Test.make ~name:"pipeline/manual/evita"
        (Staged.stage (fun () ->
             ignore (Derive.of_sos ~stakeholder:Evita.stakeholder Evita.model)));
      Test.make ~name:"pipeline/tool/4-vehicles"
        (Staged.stage (fun () ->
             ignore (Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()))));
      Test.make ~name:"minimize/hopcroft/4-vehicles"
        (Staged.stage
           (let dfa =
              Hom.A.Dfa.determinize (Hom.image_nfa Hom.identity lts4)
            in
            fun () -> ignore (Hom.A.Dfa.minimize dfa)));
      Test.make ~name:"minimize/moore/4-vehicles"
        (Staged.stage
           (let dfa =
              Hom.A.Dfa.determinize (Hom.image_nfa Hom.identity lts4)
            in
            fun () -> ignore (Hom.A.Dfa.minimize_moore dfa)));
      Test.make ~name:"pattern/precedence/2-vehicles"
        (Staged.stage
           (let module Pattern = Fsa_mc.Pattern in
            let lts2 = Lts.explore (V.two_vehicles ()) in
            let p =
              Pattern.make
                (Pattern.Precedence
                   (Pattern.action_is (V.v_sense 1), Pattern.action_is (V.v_show 2)))
            in
            fun () -> ignore (Pattern.holds lts2 p)));
      Test.make ~name:"selfsim/chain-step/n=3"
        (Staged.stage
           (let module Selfsim = Fsa_param.Selfsim in
            let bigger = Lts.explore (V.chain 4) in
            let smaller = Lts.explore (V.chain 3) in
            fun () ->
              ignore
                (Selfsim.abstraction_equal ~bigger ~smaller
                   ~hom:(Selfsim.chain_hom 3))));
      Test.make ~name:"pipeline/tool/grid"
        (Staged.stage (fun () ->
             ignore
               (Analysis.tool ~stakeholder:Fsa_grid.Grid_apa.stakeholder
                  (Fsa_grid.Grid_apa.demand_response ()))));
      Test.make ~name:"refine/plan/evita"
        (Staged.stage
           (let module Refine = Fsa_refine.Refine in
            let req =
              Auth.make
                ~cause:(Action.of_string_exn "esp_sense(ESP)")
                ~effect:(Action.of_string_exn "log_write(LOG)")
                ~stakeholder:(Agent.unindexed "Backend")
            in
            fun () -> ignore (Refine.plan Evita.model req)));
      Test.make ~name:"confidentiality/evita"
        (Staged.stage (fun () ->
             ignore (Fsa_requirements.Confidentiality.derive Evita.model)));
      Test.make ~name:"ctl/AG-safety/2-vehicles"
        (Staged.stage
           (let lts2 = Lts.explore (V.two_vehicles ()) in
            let f =
              Fsa_mc.Ctl.AG
                (Fsa_mc.Ctl.Implies
                   ( Fsa_mc.Ctl.deadlock,
                     Fsa_mc.Ctl.Not (Fsa_mc.Ctl.enabled_action (V.v_rec 2)) ))
            in
            fun () -> ignore (Fsa_mc.Ctl.On_lts.check lts2 f))) ]
  in
  let grouped = Test.make_grouped ~name:"fsa" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  Fmt.pr "  %-42s %16s %8s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, v) ->
      let time =
        match Analyze.OLS.estimates v with
        | Some [ t ] -> t
        | Some _ | None -> nan
      in
      let pp_time ppf ns =
        if Float.is_nan ns then Fmt.string ppf "n/a"
        else if ns > 1e9 then Fmt.pf ppf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Fmt.pf ppf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.pf ppf "%.2f us" (ns /. 1e3)
        else Fmt.pf ppf "%.0f ns" ns
      in
      let r2 =
        match Analyze.OLS.r_square v with Some r -> Fmt.str "%.3f" r | None -> "-"
      in
      Fmt.pr "  %-42s %16s %8s@." name (Fmt.str "%a" pp_time time) r2)
    (List.sort compare rows)

(* =================================================================== *)
(* Machine-readable kernel benchmarks (BENCH_fsa.json)                  *)
(* =================================================================== *)

(* A known-good APA spec for the store round-trip benchmark: the
   two-vehicle scenario's behavioural part, parsed from source so the
   measurement covers the same digest path the CLI and server use. *)
let store_spec_source =
  {|
component Vehicle {
  state esp = { }
  state gps = { }
  state bus = { }
  state hmi = { }
  shared net

  action sense: take esp(_x) -> put bus(_x)
  action pos:   take gps(_p) -> put bus(_p)
  action send:  take bus(sW), take bus(_p) when position(_p)
                -> put net(cam(self, _p))
  action rec:   take net(cam(_v, _p)) when _v != self
                -> put bus(warn(_p))
  action show:  take bus(warn(_p)), take bus(_q)
                when position(_q) && near(_p, _q)
                -> put hmi(warn)
}

instance V1 = Vehicle(1) { esp = { sW }, gps = { pos1 } }
instance V2 = Vehicle(2) { gps = { pos2 } }
|}

(* Millisecond buckets for wall-clock quantiles of whole kernel runs;
   the metrics default buckets top out too low for explorations. *)
let ms_buckets =
  [| 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.;
     10000.; 30000. |]

(* Cold vs. warm result-cache round-trip.  The warm run must be a cache
   hit that replays the stored outcome byte-for-byte without touching
   the state space — a miss or a divergent replay is a correctness
   failure of the store, not a perf regression, and fails the harness. *)
let bench_store () =
  let module Metrics = Fsa_obs.Metrics in
  let module Server = Fsa_server.Server in
  let module Store = Fsa_store.Store in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fsa-bench-store-%Ld" (Fsa_obs.Span.now_ns ()))
  in
  let store = Store.open_ ~dir () in
  let cfg = Server.config ~store () in
  let spec = Fsa_spec.Parser.parse_string store_spec_source in
  let time f =
    let t0 = Fsa_obs.Span.now_ns () in
    let r = f () in
    (r, Int64.sub (Fsa_obs.Span.now_ns ()) t0)
  in
  let run () = Server.Exec.run cfg ~op:Server.Exec.Reach ~file:"<bench>" spec in
  let cold, cold_ns = time run in
  let warm, warm_ns = time run in
  let hit = (not cold.Server.Exec.oc_cached) && warm.Server.Exec.oc_cached in
  let identical =
    String.equal cold.Server.Exec.oc_output warm.Server.Exec.oc_output
  in
  if not (hit && identical) then incr failures;
  (* warm-read latency distribution: repeated cache hits over the same
     entry, reported as interpolated quantiles *)
  let warm_reads = 12 in
  let h_warm = Metrics.histogram ~buckets:ms_buckets "bench.store.warm_ms" in
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  for _ = 1 to warm_reads do
    let _, ns = time run in
    Metrics.observe h_warm (Int64.to_float ns /. 1e6)
  done;
  let warm_p50 = Metrics.quantile h_warm 0.5 in
  let warm_p99 = Metrics.quantile h_warm 0.99 in
  Metrics.set_enabled was_enabled;
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat dir f))
       (Sys.readdir dir);
     Sys.rmdir dir
   with Sys_error _ -> ());
  Fmt.pr
    "  %-24s cold %a  warm %a  warm p50 %.2f ms  p99 %.2f ms  hit: %s  \
     identical: %s@."
    "store/reach" Fsa_obs.Span.pp_dur cold_ns Fsa_obs.Span.pp_dur warm_ns
    warm_p50 warm_p99
    (if hit then "OK" else "MISS")
    (if identical then "OK" else "MISMATCH");
  Printf.sprintf
    "    \"reach\": {\"cold_wall_ns\": %Ld, \"warm_wall_ns\": %Ld, \
     \"warm_hit\": %b, \"replay_identical\": %b, \"warm_reads\": %d, \
     \"warm_p50_ms\": %.3f, \"warm_p99_ms\": %.3f}"
    cold_ns warm_ns hit identical warm_reads warm_p50 warm_p99

(* Provenance stamp: a benchmark number without the revision, host and
   core count that produced it cannot be compared against later runs. *)
let bench_meta () =
  let git_rev =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "unknown" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> "unknown"
    with Unix.Unix_error _ | Sys_error _ -> "unknown"
  in
  let hostname = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  let tm = Unix.gmtime (Unix.time ()) in
  let timestamp =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  Printf.sprintf
    "    \"git_rev\": %S,\n    \"hostname\": %S,\n    \"domains\": %d,\n\
    \    \"timestamp\": %S"
    git_rev hostname
    (Domain.recommended_domain_count ())
    timestamp

(* Symmetry / partial-order reduction: run the tool path unreduced and
   under --reduce sym+por over uniform pair fleets.  Two gates, both
   soundness gates of Fsa_sym rather than perf regressions: the reduced
   requirement set must be identical to the unreduced one, and the
   quotient must explore at most 25% of the full state count (the
   reduction claim the docs make for EVITA-scale fleets). *)
let bench_reduction () =
  let module Sym = Fsa_sym.Sym in
  (* the 25% claim is for EVITA-scale fleets (k >= 3 pairs); the k = 2
     instance is bounded below by C(14,2)/13^2 = 54% for symmetry alone,
     so it gets a looser bound and mainly guards requirement equality *)
  let systems =
    [ ("pairs-2-uniform", 0.50, fun () -> V.pairs ~uniform:true 2);
      ("pairs-3-uniform", 0.25, fun () -> V.pairs ~uniform:true 3) ]
  in
  List.map
    (fun (name, bound, mk) ->
      let apa = mk () in
      let time f =
        let t0 = Fsa_obs.Span.now_ns () in
        let r = f () in
        (r, Int64.sub (Fsa_obs.Span.now_ns ()) t0)
      in
      let full, full_ns =
        time (fun () -> Analysis.tool ~stakeholder:V.stakeholder apa)
      in
      let pl = Sym.plan ~guard_sig:V.guard_attest Sym.Sym_por apa in
      let red, red_ns =
        time (fun () ->
            Analysis.tool ~stakeholder:V.stakeholder ~reduce:pl apa)
      in
      let full_states = Lts.nb_states full.Analysis.t_lts in
      let red_states, fallback =
        match red.Analysis.t_reduction with
        | Some ri ->
          (ri.Analysis.ri_reduced_states, ri.Analysis.ri_fallback <> None)
        | None -> (Lts.nb_states red.Analysis.t_lts, true)
      in
      let ratio =
        if full_states > 0 then
          float_of_int red_states /. float_of_int full_states
        else 1.
      in
      let reqs r =
        List.sort String.compare (req_strings r.Analysis.t_requirements)
      in
      let identical = reqs full = reqs red in
      let ok = identical && (not fallback) && ratio <= bound in
      if not ok then incr failures;
      Fmt.pr
        "  %-24s full %d states %a  reduced %d states %a  ratio %.3f  \
         identical: %s@."
        name full_states Fsa_obs.Span.pp_dur full_ns red_states
        Fsa_obs.Span.pp_dur red_ns ratio
        (if ok then "OK"
         else if not identical then "MISMATCH"
         else if fallback then "FALLBACK"
         else "RATIO");
      Printf.sprintf
        "    \"%s\": {\"kind\": \"sym+por\", \"full_states\": %d, \
         \"reduced_states\": %d, \"ratio\": %.4f, \"ratio_bound\": %.2f, \
         \"full_wall_ns\": %Ld, \"reduced_wall_ns\": %Ld, \
         \"requirements_equal\": %b, \"fallback\": %b, \"ok\": %b}"
        name full_states red_states ratio bound full_ns red_ns identical
        fallback ok)
    systems

(* Shared multi-pair abstraction engine: the tool path over the EVITA
   fleet spec against the per-pair oracle (explore, then
   [Hom.depends_abstract] for every (min, max) pair).  Two gates: the
   dependence matrices must be identical (the engine is a pure
   optimisation), and the shared pass must be at least 2x faster than
   the per-pair loop — one erase/determinise/minimise over the union
   alphabet instead of one per pair. *)
let bench_abstraction () =
  let spec_path =
    List.find_opt Sys.file_exists
      [ "examples/specs/evita_fleet.fsa";
        "../examples/specs/evita_fleet.fsa" ]
  in
  match spec_path with
  | None ->
    incr failures;
    Fmt.pr "  %-24s evita_fleet.fsa not found@." "abstraction/evita-fleet";
    "    \"evita-fleet\": {\"ok\": false, \"error\": \"spec not found\"}"
  | Some path ->
    let spec = Fsa_spec.Parser.parse_file path in
    let apa = Fsa_spec.Elaborate.apa_of_spec spec in
    let stakeholder = Fsa_requirements.Derive.default_stakeholder in
    let time f =
      let t0 = Fsa_obs.Span.now_ns () in
      let r = f () in
      (r, Int64.sub (Fsa_obs.Span.now_ns ()) t0)
    in
    let legacy, legacy_ns =
      time (fun () ->
          let lts = Lts.explore apa in
          let set f = Fsa_term.Action.Set.elements (f lts) in
          Fsa_hom.Hom.dependence_matrix lts ~minima:(set Lts.minima)
            ~maxima:(set Lts.maxima))
    in
    let shared, shared_ns =
      time (fun () -> Analysis.tool ~stakeholder apa)
    in
    let matrix m =
      List.concat_map
        (fun (mx, row) ->
          List.map
            (fun (mn, d) ->
              (Fsa_term.Action.to_string mn, Fsa_term.Action.to_string mx, d))
            row)
        m
    in
    let identical = matrix legacy = matrix shared.Analysis.t_matrix in
    let speedup =
      if Int64.compare shared_ns 0L > 0 then
        Int64.to_float legacy_ns /. Int64.to_float shared_ns
      else 0.
    in
    let alphabet, dfa_states, early =
      match shared.Analysis.t_timings.Analysis.ph_shared with
      | Some s ->
        (s.Analysis.sh_alphabet_size, s.Analysis.sh_dfa_states,
         s.Analysis.sh_early_pairs)
      | None -> (0, 0, 0)
    in
    let min_speedup = 2.0 in
    let ok = identical && dfa_states > 0 && speedup >= min_speedup in
    if not ok then incr failures;
    Fmt.pr
      "  %-24s legacy %a  shared %a  speedup %.2fx  quotient %d states  \
       early %d  identical: %s@."
      "abstraction/evita-fleet" Fsa_obs.Span.pp_dur legacy_ns
      Fsa_obs.Span.pp_dur shared_ns speedup dfa_states early
      (if ok then "OK"
       else if not identical then "MISMATCH"
       else if dfa_states = 0 then "NO-ENGINE"
       else "SLOW");
    Printf.sprintf
      "    \"evita-fleet\": {\"legacy_wall_ns\": %Ld, \"shared_wall_ns\": \
       %Ld, \"speedup\": %.3f, \"min_speedup\": %.2f, \"alphabet\": %d, \
       \"quotient_states\": %d, \"early_pairs\": %d, \"reports_equal\": \
       %b, \"ok\": %b}"
      legacy_ns shared_ns speedup min_speedup alphabet dfa_states early
      identical ok

(* Report-generation overhead: building the Fsa_report view (sos
   mapping, one shared projection engine for the per-item automata, the
   traceability matrix and both emissions) must stay marginal next to
   the requirements run it annotates — the gate is 5% of the tool-path
   wall time, with a small absolute allowance so a cache-warm tool run
   cannot fail the harness on noise alone.  Emission must also be
   deterministic: two builds over the same run agree byte-for-byte. *)
let bench_report () =
  let module R = Fsa_report.Report in
  let spec_path =
    List.find_opt Sys.file_exists
      [ "examples/specs/evita_fleet.fsa";
        "../examples/specs/evita_fleet.fsa" ]
  in
  match spec_path with
  | None ->
    incr failures;
    Fmt.pr "  %-24s evita_fleet.fsa not found@." "report/evita-fleet";
    "    \"evita-fleet\": {\"ok\": false, \"error\": \"spec not found\"}"
  | Some path ->
    let spec = Fsa_spec.Parser.parse_file path in
    let apa = Fsa_spec.Elaborate.apa_of_spec spec in
    let time f =
      let t0 = Fsa_obs.Span.now_ns () in
      let r = f () in
      (r, Int64.sub (Fsa_obs.Span.now_ns ()) t0)
    in
    let tool, tool_ns =
      time (fun () ->
          Analysis.tool
            ~stakeholder:Fsa_requirements.Derive.default_stakeholder apa)
    in
    let build () =
      R.of_tool
        ~origins:
          (R.origins_of_skeleton (Fsa_spec.Elaborate.skeleton_of_spec spec))
        ~soses:(Fsa_spec.Elaborate.sos_list spec)
        ~alphabet:(Fsa_apa.Apa.rule_names apa)
        ~digest:
          (Fsa_spec.Elaborate.digest_of_spec ~parts:[ `Apa; `Models ] spec)
        ~settings:
          { R.sg_path = "tool";
            sg_method = "abstract";
            sg_engine = "shared-v1";
            sg_reduce = "none";
            sg_prune = "none";
            sg_max_states = 1_000_000 }
        tool
    in
    let r1, report_ns =
      time (fun () ->
          let r = build () in
          ignore (R.to_json_string r);
          ignore (R.to_markdown r);
          r)
    in
    let r2 = build () in
    let deterministic =
      String.equal (R.to_json_string r1) (R.to_json_string r2)
      && String.equal (R.to_markdown r1) (R.to_markdown r2)
    in
    let ratio =
      if Int64.compare tool_ns 0L > 0 then
        Int64.to_float report_ns /. Int64.to_float tool_ns
      else 0.
    in
    let max_ratio = 0.05 in
    let slack_ns = 50_000_000L in
    let ok =
      deterministic
      && List.length r1.R.r_items > 0
      && (ratio <= max_ratio || Int64.compare report_ns slack_ns <= 0)
    in
    if not ok then incr failures;
    Fmt.pr
      "  %-24s tool %a  report %a  ratio %.4f  items %d  deterministic: %s@."
      "report/evita-fleet" Fsa_obs.Span.pp_dur tool_ns Fsa_obs.Span.pp_dur
      report_ns ratio
      (List.length r1.R.r_items)
      (if ok then "OK"
       else if not deterministic then "NONDETERMINISTIC"
       else if r1.R.r_items = [] then "EMPTY"
       else "SLOW");
    Printf.sprintf
      "    \"evita-fleet\": {\"tool_wall_ns\": %Ld, \"report_wall_ns\": \
       %Ld, \"ratio\": %.5f, \"max_ratio\": %.2f, \"requirements\": %d, \
       \"deterministic\": %b, \"ok\": %b}"
      tool_ns report_ns ratio max_ratio
      (List.length r1.R.r_items)
      deterministic ok

(* Flow-pruning overhead and soundness on the fleet spec: building the
   guard-refined def-use graph and running the pruned dependence matrix
   must (a) leave the requirements report byte-identical to the
   unpruned run, (b) actually skip pairs (attributed "static-flow"),
   and (c) cost at most 5% of the full requirements run — with the same
   absolute allowance as the report gate, so a cache-warm tool run
   cannot fail the harness on noise alone. *)
let bench_flow () =
  let module Flow = Fsa_flow.Flow in
  let spec_path =
    List.find_opt Sys.file_exists
      [ "examples/specs/evita_fleet.fsa";
        "../examples/specs/evita_fleet.fsa" ]
  in
  match spec_path with
  | None ->
    incr failures;
    Fmt.pr "  %-24s evita_fleet.fsa not found@." "flow/evita-fleet";
    "    \"evita-fleet\": {\"ok\": false, \"error\": \"spec not found\"}"
  | Some path ->
    let spec = Fsa_spec.Parser.parse_file path in
    let apa = Fsa_spec.Elaborate.apa_of_spec spec in
    let stakeholder = Fsa_requirements.Derive.default_stakeholder in
    let time f =
      let t0 = Fsa_obs.Span.now_ns () in
      let r = f () in
      (r, Int64.sub (Fsa_obs.Span.now_ns ()) t0)
    in
    let base, base_ns = time (fun () -> Analysis.tool ~stakeholder apa) in
    let flow, flow_ns =
      time (fun () ->
          Flow.build
            ~attribution:
              (Fsa_check.Check.flow_attribution
                 (Fsa_spec.Elaborate.skeleton_of_spec spec))
            apa)
    in
    let pruned_run, pruned_ns =
      time (fun () -> Analysis.tool ~flow ~stakeholder apa)
    in
    let render r = Fmt.str "%a" Analysis.pp_tool_report r in
    let identical = String.equal (render base) (render pruned_run) in
    let pruned =
      List.length
        (List.filter
           (fun p ->
             match p.Analysis.pt_pruned_by with
             | Some by -> String.equal by "static-flow"
             | None -> false)
           pruned_run.Analysis.t_timings.Analysis.ph_pairs)
    in
    let ratio =
      if Int64.compare base_ns 0L > 0 then
        Int64.to_float flow_ns /. Int64.to_float base_ns
      else 0.
    in
    let max_ratio = 0.05 in
    let slack_ns = 50_000_000L in
    let ok =
      identical && pruned > 0
      && (ratio <= max_ratio || Int64.compare flow_ns slack_ns <= 0)
    in
    if not ok then incr failures;
    Fmt.pr
      "  %-24s tool %a  flow %a  pruned tool %a  ratio %.4f  \
       pairs pruned %d  identical: %s@."
      "flow/evita-fleet" Fsa_obs.Span.pp_dur base_ns Fsa_obs.Span.pp_dur
      flow_ns Fsa_obs.Span.pp_dur pruned_ns ratio pruned
      (if ok then "OK"
       else if not identical then "MISMATCH"
       else if pruned = 0 then "NO-PRUNING"
       else "SLOW");
    Printf.sprintf
      "    \"evita-fleet\": {\"tool_wall_ns\": %Ld, \"flow_wall_ns\": %Ld, \
       \"pruned_tool_wall_ns\": %Ld, \"ratio\": %.5f, \"max_ratio\": %.2f, \
       \"pairs_pruned\": %d, \"reports_equal\": %b, \"ok\": %b}"
      base_ns flow_ns pruned_ns ratio max_ratio pruned identical ok

(* Observability overhead on the vanet pairs-4 exploration, three
   configurations interleaved (min-of-N keeps scheduler noise out):

     disabled  the whole stack off — the reference cost
     base      metrics, spans and the flight recorder on (the registry
               the pre-tracing code already paid for)
     traced    base plus a live per-request trace context, as the
               serving layer runs it

   The gate is traced vs. base: the request tracing and flight-recorder
   machinery must stay within a few percent of the plain instrumented
   run, or it is a regression and fails the harness. *)
let bench_obs () =
  let module Metrics = Fsa_obs.Metrics in
  let module Span = Fsa_obs.Span in
  let module Recorder = Fsa_obs.Recorder in
  let apa = V.pairs 4 in
  let runs = 3 in
  let time f =
    let t0 = Span.now_ns () in
    f ();
    Int64.sub (Span.now_ns ()) t0
  in
  let clean () =
    Metrics.reset ();
    Span.reset ();
    Recorder.reset ()
  in
  let disabled = ref Int64.max_int in
  let base = ref Int64.max_int in
  let traced = ref Int64.max_int in
  let keep_min cell ns = if Int64.compare ns !cell < 0 then cell := ns in
  for _ = 1 to runs do
    Metrics.set_enabled false;
    keep_min disabled (time (fun () -> ignore (Lts.explore apa)));
    clean ();
    Metrics.set_enabled true;
    keep_min base (time (fun () -> ignore (Lts.explore apa)));
    clean ();
    keep_min traced
      (time (fun () ->
           Span.with_trace ~trace_id:"bench-obs" (fun () ->
               ignore (Lts.explore apa))))
  done;
  Metrics.set_enabled false;
  clean ();
  let ratio =
    if Int64.compare !base 0L > 0 then
      Int64.to_float !traced /. Int64.to_float !base
    else 1.
  in
  (* absolute slack shields short runs, where a single scheduler blip
     dwarfs any plausible instrumentation cost *)
  let ok =
    ratio <= 1.05
    || Int64.compare (Int64.sub !traced !base) 50_000_000L <= 0
  in
  if not ok then incr failures;
  Fmt.pr
    "  %-24s disabled %a  base %a  traced %a  overhead %.3fx  %s@."
    "obs/pairs-4" Fsa_obs.Span.pp_dur !disabled Fsa_obs.Span.pp_dur !base
    Fsa_obs.Span.pp_dur !traced ratio
    (if ok then "OK" else "REGRESSION");
  Printf.sprintf
    "    \"workload\": \"explore/pairs-4\",\n\
    \    \"runs\": %d,\n\
    \    \"disabled_wall_ns\": %Ld,\n\
    \    \"base_wall_ns\": %Ld,\n\
    \    \"traced_wall_ns\": %Ld,\n\
    \    \"overhead_ratio\": %.4f,\n\
    \    \"overhead_ok\": %b"
    runs !disabled !base !traced ratio ok

(* One wall-clock measurement per pipeline kernel, with the key counters
   of the run (states explored, transitions, requirements derived,
   APA rules tried, dedup hits).  Written as JSON so later PRs have a
   perf trajectory to compare against. *)
let bench_json path =
  section "JSON" (Printf.sprintf "machine-readable kernel benchmarks -> %s" path);
  let module Metrics = Fsa_obs.Metrics in
  let rules_tried = Metrics.counter "apa.rules_tried" in
  let dedup_hits = Metrics.counter "lts.dedup_hits" in
  Metrics.set_enabled true;
  let kernels =
    [ ("tool/two-vehicles", fun () -> Analysis.tool ~stakeholder:V.stakeholder (V.two_vehicles ()));
      ("tool/four-vehicles", fun () -> Analysis.tool ~stakeholder:V.stakeholder (V.four_vehicles ()));
      ("tool/pairs-3", fun () -> Analysis.tool ~stakeholder:V.stakeholder (V.pairs 3));
      ("tool/chain-5", fun () -> Analysis.tool ~stakeholder:V.stakeholder (V.chain 5));
      ("tool/grid", fun () ->
         Analysis.tool ~stakeholder:Fsa_grid.Grid_apa.stakeholder
           (Fsa_grid.Grid_apa.demand_response ())) ]
  in
  let rows =
    List.map
      (fun (name, kernel) ->
        Metrics.reset ();
        let t0 = Fsa_obs.Span.now_ns () in
        let report = kernel () in
        let wall_ns = Int64.sub (Fsa_obs.Span.now_ns ()) t0 in
        Fmt.pr "  %-24s %a@." name Fsa_obs.Span.pp_dur wall_ns;
        Printf.sprintf
          "    \"%s\": {\"wall_ns\": %Ld, \"states\": %d, \"transitions\": %d, \
           \"requirements\": %d, \"rules_tried\": %d, \"dedup_hits\": %d}"
          name wall_ns
          (Lts.nb_states report.Analysis.t_lts)
          (Lts.nb_transitions report.Analysis.t_lts)
          (List.length report.Analysis.t_requirements)
          (Metrics.counter_value rules_tried)
          (Metrics.counter_value dedup_hits))
      kernels
  in
  Metrics.set_enabled false;
  Metrics.reset ();
  (* sequential vs. parallel exploration throughput.  The parallel graph
     must be identical to the sequential one — a divergence is a
     correctness failure of explore_par, not a perf regression, and fails
     the harness.  [jobs] is clamped to the host's domains: more would
     measure oversubscription. *)
  let jobs = min 4 (Domain.recommended_domain_count ()) in
  let explorations =
    [ ("pairs-4", fun () -> V.pairs 4);
      ("grid", fun () -> Fsa_grid.Grid_apa.demand_response ()) ]
    @ (match
         List.find_opt Sys.file_exists
           [ "examples/specs/evita_fleet.fsa"; "../examples/specs/evita_fleet.fsa" ]
       with
      | Some path ->
        [ ("evita-fleet",
           fun () -> Fsa_spec.Elaborate.apa_of_spec (Fsa_spec.Parser.parse_file path)) ]
      | None -> [])
  in
  let exploration_rows =
    List.map
      (fun (name, mk) ->
        let apa = mk () in
        let t0 = Fsa_obs.Span.now_ns () in
        let seq = Lts.explore apa in
        let seq_ns = Int64.sub (Fsa_obs.Span.now_ns ()) t0 in
        let t0 = Fsa_obs.Span.now_ns () in
        let par = Lts.explore_par ~jobs apa in
        let par_ns = Int64.sub (Fsa_obs.Span.now_ns ()) t0 in
        let equal =
          Lts.nb_states seq = Lts.nb_states par
          && Lts.transitions seq = Lts.transitions par
          && List.for_all
               (fun i -> Apa.State.equal (Lts.state seq i) (Lts.state par i))
               (List.init (Lts.nb_states seq) Fun.id)
        in
        if not equal then incr failures;
        (* run-to-run spread of the sequential exploration, as
           interpolated quantiles over a small sample.  The timed runs
           themselves stay unmetered: recording is switched on only for
           the observation itself. *)
        let h =
          Metrics.histogram ~buckets:ms_buckets
            (Printf.sprintf "bench.explore.%s_ms" name)
        in
        let observe_ms ns =
          Metrics.set_enabled true;
          Metrics.observe h (Int64.to_float ns /. 1e6);
          Metrics.set_enabled false
        in
        observe_ms seq_ns;
        for _ = 1 to 2 do
          let t0 = Fsa_obs.Span.now_ns () in
          ignore (Lts.explore apa);
          observe_ms (Int64.sub (Fsa_obs.Span.now_ns ()) t0)
        done;
        let p50 = Metrics.quantile h 0.5 in
        let p99 = Metrics.quantile h 0.99 in
        let rate ns =
          let s = Int64.to_float ns /. 1e9 in
          if s > 0. then float_of_int (Lts.nb_states seq) /. s else 0.
        in
        let speedup =
          if Int64.compare par_ns 0L > 0 then
            Int64.to_float seq_ns /. Int64.to_float par_ns
          else 0.
        in
        Fmt.pr
          "  %-24s seq %a  par(%d) %a  speedup %.2fx  p50 %.1f ms  \
           p99 %.1f ms  identical: %s@."
          name Fsa_obs.Span.pp_dur seq_ns jobs Fsa_obs.Span.pp_dur par_ns
          speedup p50 p99
          (if equal then "OK" else "MISMATCH");
        Printf.sprintf
          "    \"%s\": {\"seq_wall_ns\": %Ld, \"par_wall_ns\": %Ld, \
           \"states\": %d, \"seq_states_per_sec\": %.1f, \
           \"par_states_per_sec\": %.1f, \"speedup\": %.3f, \
           \"seq_p50_ms\": %.3f, \"seq_p99_ms\": %.3f, \"par_equal\": %b}"
          name seq_ns par_ns (Lts.nb_states seq) (rate seq_ns) (rate par_ns)
          speedup p50 p99 equal)
      explorations
  in
  let reduction_rows = bench_reduction () in
  let abstraction_row = bench_abstraction () in
  let report_row = bench_report () in
  let flow_row = bench_flow () in
  let store_row = bench_store () in
  let obs_row = bench_obs () in
  let meta_row = bench_meta () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"schema\": \"fsa-bench/1\",\n  \"meta\": {\n";
      output_string oc meta_row;
      output_string oc "\n  },\n  \"kernels\": {\n";
      output_string oc (String.concat ",\n" rows);
      output_string oc "\n  },\n";
      output_string oc
        (Printf.sprintf "  \"exploration\": {\n    \"jobs\": %d,\n" jobs);
      output_string oc (String.concat ",\n" exploration_rows);
      output_string oc "\n  },\n  \"reduction\": {\n";
      output_string oc (String.concat ",\n" reduction_rows);
      output_string oc "\n  },\n  \"abstraction\": {\n";
      output_string oc abstraction_row;
      output_string oc "\n  },\n  \"report\": {\n";
      output_string oc report_row;
      output_string oc "\n  },\n  \"flow\": {\n";
      output_string oc flow_row;
      output_string oc "\n  },\n  \"store\": {\n";
      output_string oc store_row;
      output_string oc "\n  },\n  \"obs\": {\n";
      output_string oc obs_row;
      output_string oc "\n  }\n}\n");
  Fmt.pr "  wrote %s@." path

let () =
  let run_perf = not (Array.exists (String.equal "--no-perf") Sys.argv) in
  let json_out =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find (Array.to_list Sys.argv)
  in
  Fmt.pr
    "Functional security analysis — experiment reproduction harness@.\
     Paper: Fuchs & Rieke, DSN-W 2009.@.";
  exp_table1 ();
  exp_fig1 ();
  exp_fig2 ();
  exp_fig3 ();
  exp_fig4 ();
  exp_fig5_6 ();
  exp_fig7 ();
  exp_fig8_9 ();
  exp_fig10_11 ();
  exp_req6 ();
  exp_evita ();
  exp_crosscheck ();
  exp_scaling ();
  exp_confidentiality ();
  exp_patterns ();
  exp_selfsim ();
  exp_canonical_apa ();
  exp_platoon ();
  exp_refinement ();
  if run_perf then benchmarks ();
  Option.iter bench_json json_out;
  Fmt.pr "@.===== summary =====@.";
  if !failures = 0 then Fmt.pr "All experiment checks passed.@."
  else begin
    Fmt.pr "%d experiment check(s) FAILED.@." !failures;
    exit 1
  end
