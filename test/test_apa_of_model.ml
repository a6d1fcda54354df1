(* Tests for the canonical APA of a functional model: the generated
   behaviour realises exactly the model's dependency order, so the two
   analysis paths agree by construction — verified here on the paper's
   scenarios, the grid, the EVITA-scale model and random models. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module Analysis = Fsa_core.Analysis
module AoM = Fsa_core.Apa_of_model
module Sos = Fsa_model.Sos
module S = Fsa_vanet.Scenario

let test_two_vehicles_states () =
  (* the canonical APA of the manual two-vehicle model has the same state
     space as the hand-written vehicle APA: 13 states (the ideal lattice
     of the same event poset) *)
  let lts = Lts.explore (AoM.compile S.two_vehicles) in
  Alcotest.(check int) "13 states" 13 (Lts.nb_states lts);
  Alcotest.(check int) "1 dead state" 1 (List.length (Lts.deadlocks lts));
  (* labels are the manual actions themselves *)
  Alcotest.(check bool) "labels are model actions" true
    (Action.Set.mem
       (S.sense (Fsa_term.Agent.Concrete 1))
       (Lts.alphabet lts))

let test_states_equal_ideals () =
  (* for several models: states of the canonical APA = order ideals of
     the model's poset *)
  List.iter
    (fun sos ->
      let ideals =
        Fsa_model.Action_graph.P.count_ideals (Sos.poset sos)
      in
      let states = Lts.nb_states (Lts.explore (AoM.compile sos)) in
      Alcotest.(check int) (Sos.name sos ^ ": states = ideals") ideals states)
    [ S.rsu_and_vehicle; S.two_vehicles; S.three_vehicles;
      S.chain_concrete 4; Fsa_grid.Scenario.demand_response () ]

let test_crosscheck_scenarios () =
  List.iter
    (fun sos ->
      let c = AoM.crosscheck sos in
      Alcotest.(check bool) (Sos.name sos ^ " agrees") true c.Analysis.c_agree)
    [ S.rsu_and_vehicle; S.two_vehicles; S.three_vehicles;
      S.chain_concrete 5 ]

let test_crosscheck_grid () =
  let c =
    AoM.crosscheck ~stakeholder:Fsa_grid.Scenario.stakeholder
      (Fsa_grid.Scenario.demand_response ())
  in
  Alcotest.(check bool) "grid agrees" true c.Analysis.c_agree

let test_crosscheck_evita () =
  (* the full EVITA-scale model: 80 460 states *)
  let c =
    AoM.crosscheck ~stakeholder:Fsa_vanet.Evita.stakeholder Fsa_vanet.Evita.model
  in
  Alcotest.(check bool) "EVITA agrees" true c.Analysis.c_agree

let test_abstract_method_on_canonical () =
  (* the abstraction-based dependence test also works on generated APAs *)
  let report = AoM.tool_analysis S.two_vehicles in
  Alcotest.(check int) "3 requirements" 3
    (List.length report.Analysis.t_requirements)

(* Random layered models: the canonical APA's minima/maxima coincide with
   the poset's minima/maxima. *)
let prop_min_max_random =
  QCheck2.Test.make ~name:"canonical APA minima/maxima = poset minima/maxima"
    ~count:30 Test_random.gen_sos (fun sos ->
      let lts = Lts.explore (AoM.compile sos) in
      let p = Sos.poset sos in
      let of_set s =
        List.sort Action.compare (Action.Set.elements s)
      in
      let of_vset s =
        List.sort Action.compare
          (Fsa_model.Action_graph.P.Eset.elements s)
      in
      of_set (Lts.minima lts)
      = of_vset (Fsa_model.Action_graph.P.minima p)
      && of_set (Lts.maxima lts)
         = of_vset (Fsa_model.Action_graph.P.maxima p))

(* Consistency (no spurious requirements): for every (input, output) pair
   NOT in chi, the behaviour contains a run reaching the output without
   the input — so demanding auth for it would be an over-approximation. *)
let prop_no_spurious =
  QCheck2.Test.make ~name:"pairs outside chi are realisable without the input"
    ~count:30 Test_random.gen_sos (fun sos ->
      let p = Sos.poset sos in
      let lts = Lts.explore (AoM.compile sos) in
      let minima = Fsa_model.Action_graph.P.Eset.elements
          (Fsa_model.Action_graph.P.minima p) in
      let maxima = Fsa_model.Action_graph.P.Eset.elements
          (Fsa_model.Action_graph.P.maxima p) in
      List.for_all
        (fun mx ->
          List.for_all
            (fun mn ->
              Action.equal mn mx
              || Fsa_model.Action_graph.P.lt mn mx p
              || Lts.reachable_without lts ~avoid:(Action.equal mn)
                   ~target:(Action.equal mx))
            minima)
        maxima)

(* Random layered models: both paths agree by construction. *)
let prop_crosscheck_random =
  QCheck2.Test.make ~name:"canonical APA crosschecks on random models"
    ~count:30 Test_random.gen_sos (fun sos ->
      (AoM.crosscheck sos).Analysis.c_agree)

let suite =
  [ Alcotest.test_case "two vehicles: 13 states" `Quick test_two_vehicles_states;
    Alcotest.test_case "states = ideals" `Quick test_states_equal_ideals;
    Alcotest.test_case "crosscheck scenarios" `Quick test_crosscheck_scenarios;
    Alcotest.test_case "crosscheck grid" `Quick test_crosscheck_grid;
    Alcotest.test_case "crosscheck EVITA (80k states)" `Slow test_crosscheck_evita;
    Alcotest.test_case "abstract method" `Quick test_abstract_method_on_canonical;
    QCheck_alcotest.to_alcotest prop_min_max_random;
    QCheck_alcotest.to_alcotest prop_no_spurious;
    QCheck_alcotest.to_alcotest prop_crosscheck_random ]
