(* Experiment harness: regenerates every table and figure of the paper's
   evaluation and reports paper-expected vs. measured values, exiting 1 on
   any mismatch.  Speed is measured by perfbench/, not here.

   Run with: dune exec bench/main.exe (also run by dune runtest) *)

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
      let manual = Analysis.manual sos in
      let c =
        Analysis.crosscheck ~map:V.manual_action_of_label
          ~manual_requirements:manual.Analysis.m_requirements
          ~tool_requirements:tool.Analysis.t_requirements
      in
      check (name ^ ": manual = tool") ~expected:true ~measured:c.Analysis.c_agree
        Fmt.bool;
      (* the shared engine's verdicts against the per-pair BFS *)
      let lts = Lts.explore apa in
      check (name ^ ": abstract = direct") ~expected:true
        ~measured:
          (List.for_all
             (fun (mn, mx, dep) ->
               dep = Lts.depends_on lts ~max_action:mx ~min_action:mn)
             (Analysis.matrix_pairs tool))
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
    AoM.crosscheck ~stakeholder:Evita.stakeholder Evita.model
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

let () =
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
  Fmt.pr "@.===== summary =====@.";
  if !failures = 0 then Fmt.pr "All experiment checks passed.@."
  else begin
    Fmt.pr "%d experiment check(s) FAILED.@." !failures;
    exit 1
  end
