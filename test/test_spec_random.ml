(* Differential property tests over randomly generated specifications:
   print/parse round trips preserve the AST, and elaboration of the
   round-tripped spec yields the same behaviour. *)

module Ast = Fsa_spec.Ast
module Parser = Fsa_spec.Parser
module Pretty = Fsa_spec.Pretty
module Elaborate = Fsa_spec.Elaborate
module Lts = Fsa_lts.Lts
module Apa = Fsa_apa.Apa
module Action = Fsa_term.Action

(* Random token-passing components: a chain of [len] states; each rule
   moves a token one step, optionally double-checking a config cell via
   a non-consuming read and a guard.  With a second token (equal to the
   config cell's content, so the guard stops it) two tokens travel the
   chain at once.  With a channel, the chain's end sends its tokens
   over the shared component [net], and any instance of the same
   cluster can receive them. *)
let gen_component =
  let open QCheck2.Gen in
  let* len = int_range 1 4 in
  let* with_reads = bool in
  let* with_guards = bool in
  let* two_tokens = bool in
  let* with_channel = bool in
  let var x = Ast.S_app (x, []) in
  let simple_rule name ~from ~into =
    Ast.I_rule
      { Ast.ru_name = name;
        ru_takes =
          [ { Ast.tk_read = false; tk_comp = from; tk_pat = var "_x";
              tk_loc = Fsa_spec.Loc.dummy } ];
        ru_cond = Ast.C_true;
        ru_puts =
          [ { Ast.pt_comp = into; pt_term = var "_x";
              pt_loc = Fsa_spec.Loc.dummy } ];
        ru_loc = Fsa_spec.Loc.dummy }
  in
  let channel =
    if with_channel then
      [ Ast.I_state ("got", []);
        Ast.I_shared "net";
        simple_rule "send" ~from:(Printf.sprintf "s%d" len) ~into:"net";
        simple_rule "recv" ~from:"net" ~into:"got" ]
    else []
  in
  let items =
    Ast.I_state
      ( "s0",
        Ast.S_app ("tok", [])
        :: (if two_tokens then [ Ast.S_app ("k", []) ] else []) )
    :: List.concat
         (List.init len (fun i ->
              [ Ast.I_state (Printf.sprintf "s%d" (i + 1), []) ]))
    @ [ Ast.I_state ("cfg", [ Ast.S_app ("k", []) ]) ]
    @ List.init len (fun i ->
          let takes =
            { Ast.tk_read = false;
              tk_comp = Printf.sprintf "s%d" i;
              tk_pat = Ast.S_app ("_x", []);
              tk_loc = Fsa_spec.Loc.dummy }
            :: (if with_reads then
                  [ { Ast.tk_read = true; tk_comp = "cfg";
                      tk_pat = Ast.S_app ("_c", []);
                      tk_loc = Fsa_spec.Loc.dummy } ]
                else [])
          in
          let cond =
            if with_guards && with_reads then
              Ast.C_neq (Ast.S_app ("_x", []), Ast.S_app ("_c", []))
            else Ast.C_true
          in
          Ast.I_rule
            { Ast.ru_name = Printf.sprintf "step%d" i;
              ru_takes = takes;
              ru_cond = cond;
              ru_puts =
                [ { Ast.pt_comp = Printf.sprintf "s%d" (i + 1);
                    pt_term = Ast.S_app ("_x", []);
                    pt_loc = Fsa_spec.Loc.dummy } ];
              ru_loc = Fsa_spec.Loc.dummy })
  in
  return
    { Ast.cd_name = "C"; cd_items = items @ channel;
      cd_loc = Fsa_spec.Loc.dummy }

(* A module without a dead state: one token cycling between two
   places. *)
let spinner =
  let var = Ast.S_app ("_x", []) in
  let move name ~from ~into =
    Ast.I_rule
      { Ast.ru_name = name;
        ru_takes =
          [ { Ast.tk_read = false; tk_comp = from; tk_pat = var;
              tk_loc = Fsa_spec.Loc.dummy } ];
        ru_cond = Ast.C_true;
        ru_puts = [ { Ast.pt_comp = into; pt_term = var; pt_loc = Fsa_spec.Loc.dummy } ];
        ru_loc = Fsa_spec.Loc.dummy }
  in
  [ Ast.D_component
      { Ast.cd_name = "L";
        cd_items =
          [ Ast.I_state ("a", [ Ast.S_app ("t", []) ]);
            Ast.I_state ("b", []);
            move "spin" ~from:"a" ~into:"b";
            move "back" ~from:"b" ~into:"a" ];
        cd_loc = Fsa_spec.Loc.dummy };
    Ast.D_instance
      { Ast.in_name = "S"; in_comp = "L"; in_id = 9; in_overrides = [];
        in_loc = Fsa_spec.Loc.dummy } ]

(* 1-3 instances in 1-3 radio clusters: instances of one cluster share
   its channel, so a spec is one module or several.  Now and then a
   spinner joins, and the product has no dead state. *)
let gen_spec =
  let open QCheck2.Gen in
  let* cd = gen_component in
  let* with_spinner = frequency [ (3, return false); (1, return true) ] in
  let* nb_instances = int_range 1 3 in
  let* clusters = list_repeat nb_instances (int_range 1 3) in
  let name i = Printf.sprintf "I%d" (i + 1) in
  let instances =
    List.init nb_instances (fun i ->
        Ast.D_instance
          { Ast.in_name = name i;
            in_comp = "C";
            in_id = i + 1;
            in_overrides = [];
            in_loc = Fsa_spec.Loc.dummy })
  in
  let cluster_decls =
    List.filter_map
      (fun c ->
        match
          List.filteri (fun i _ -> List.nth clusters i = c) (List.init nb_instances name)
        with
        | [] -> None
        | members ->
          Some
            (Ast.D_cluster
               { Ast.cl_name = Printf.sprintf "ch%d" c;
                 cl_members = members;
                 cl_loc = Fsa_spec.Loc.dummy }))
      [ 1; 2; 3 ]
  in
  return
    ((Ast.D_component cd :: instances)
    @ cluster_decls
    @ if with_spinner then spinner else [])

let prop_roundtrip_ast =
  QCheck2.Test.make ~name:"random specs round trip through the printer"
    ~count:100 gen_spec (fun spec ->
      Pretty.equal spec (Parser.parse_string (Pretty.to_string spec)))

(* Three independent instances reach 10^5 states; the properties that
   explore keep to specs of at most [small] states, to stay quick.  The
   bound discards only specs with a third instance or a channel: one or
   two channel-free instances stay below 700 states. *)
let small = 5000

let fits apa =
  match Lts.explore ~max_states:small apa with
  | _ -> true
  | exception Lts.State_space_too_large _ -> false

let prop_roundtrip_behaviour =
  QCheck2.Test.make
    ~name:"round-tripped specs elaborate to the same behaviour" ~count:100
    gen_spec (fun spec ->
      let apa = Elaborate.apa_of_spec spec in
      QCheck2.assume (fits apa);
      let states apa = Lts.nb_states (Lts.explore ~max_states:small apa) in
      states apa
      = states (Elaborate.apa_of_spec (Parser.parse_string (Pretty.to_string spec))))

let prop_elaboration_total =
  QCheck2.Test.make ~name:"random specs elaborate without exception"
    ~count:100 gen_spec (fun spec ->
      match Elaborate.apa_of_spec spec with
      | _ -> true
      | exception Fsa_spec.Loc.Error _ -> true)

(* The binding caches are a pure optimisation.  On every reachable
   state, the APA whose caches the exploration filled steps exactly as a
   freshly elaborated one matching from scratch: same rules, labels and
   successors, in the same order.  And the parallel explorer, on its own
   fresh APA, rebuilds the sequential graph state for state. *)
let prop_cached_step =
  QCheck2.Test.make
    ~name:"cached Apa.step = from-scratch match; explore_par = explore"
    ~count:50 gen_spec (fun spec ->
      match Elaborate.apa_of_spec spec with
      | exception Fsa_spec.Loc.Error _ -> true
      | apa ->
        QCheck2.assume (fits apa);
        let lts = Lts.explore apa in
        let ids = List.init (Lts.nb_states lts) Fun.id in
        let same_step s =
          let render (r, a, t) =
            (Apa.rule_name r, Action.to_string a, Apa.State.to_string t)
          in
          let warm = Apa.step apa s in
          let cold = Apa.step (Elaborate.apa_of_spec spec) s in
          List.map render warm = List.map render cold
          && List.for_all2
               (fun (_, _, t) (_, _, t') -> Apa.State.equal t t')
               warm cold
        in
        let par = Lts.explore_par ~jobs:2 (Elaborate.apa_of_spec spec) in
        List.for_all (fun i -> same_step (Lts.state lts i)) ids
        && Lts.nb_states par = Lts.nb_states lts
        && Lts.transitions par = Lts.transitions lts
        && List.for_all
             (fun i ->
               Apa.State.equal (Lts.state par i) (Lts.state lts i)
               && String.equal
                    (Apa.State.to_string (Lts.state par i))
                    (Apa.State.to_string (Lts.state lts i)))
             ids)

(* The modular analysis against the product graph it never builds:
   graph statistics, minima and maxima, every pair of the matrix (both
   per-pair oracles on the product, [Hom.depends_abstract] and
   [Lts.depends_on]), the requirements, and each requirement's minimal
   automaton, read off the run's own engine — which the run must build
   whenever there are requirements. *)
module Analysis = Fsa_core.Analysis
module Hom = Fsa_hom.Hom
module Auth = Fsa_requirements.Auth

let stakeholder = Fsa_requirements.Derive.default_stakeholder

let modular_equals_product apa =
  let product = Lts.explore apa in
  let r = Analysis.tool ~stakeholder apa in
  let set f = Action.Set.elements (f product) in
  let oracle depends =
    List.map
      (fun mx ->
        (mx, List.map (fun mn -> (mn, depends ~min_action:mn ~max_action:mx)) (set Lts.minima)))
      (set Lts.maxima)
  in
  let oracle_abstract = oracle (Hom.depends_abstract product) in
  let oracle_bfs =
    oracle (fun ~min_action ~max_action ->
        Lts.depends_on product ~max_action ~min_action)
  in
  let requirements =
    List.concat_map
      (fun (mx, row) ->
        List.filter_map
          (fun (mn, d) ->
            if d then Some (Auth.make ~cause:mn ~effect:mx ~stakeholder:(stakeholder mx))
            else None)
          row)
      oracle_abstract
    |> Auth.normalise
  in
  let automata_agree () =
    match r.Analysis.t_engine with
    | None -> requirements = []
    | Some engine ->
      List.for_all
        (fun a ->
          let mn = Auth.cause a and mx = Auth.effect a in
          Hom.A.Dfa.isomorphic
            (Hom.Shared.minimal_automaton engine ~min_action:mn ~max_action:mx)
            (Hom.minimal_automaton (Hom.preserve [ mn; mx ]) product))
        requirements
  in
  let names = List.map Action.to_string in
  let rows m =
    List.map
      (fun (mx, row) ->
        (Action.to_string mx, List.map (fun (mn, d) -> (Action.to_string mn, d)) row))
      m
  in
  r.Analysis.t_stats = Lts.stats product
  && names r.Analysis.t_minima = names (set Lts.minima)
  && names r.Analysis.t_maxima = names (set Lts.maxima)
  && rows r.Analysis.t_matrix = rows oracle_abstract
  && rows r.Analysis.t_matrix = rows oracle_bfs
  && Auth.equal_set r.Analysis.t_requirements requirements
  && automata_agree ()

let prop_modular_equals_product =
  QCheck2.Test.make ~name:"modular analysis = the product graph's" ~count:60
    gen_spec (fun spec ->
      match Elaborate.apa_of_spec spec with
      | exception Fsa_spec.Loc.Error _ -> true
      | apa ->
        QCheck2.assume (fits apa);
        modular_equals_product apa)

(* The outcome store is transparent.  Computed against a fresh store
   (cold), replayed from it (warm) and computed with the cache off,
   [requirements] and [report] give the same output and the same result
   up to its [timings] section, the wall clocks of the run that produced
   it. *)
module Server = Fsa_server.Server
module Exec = Server.Exec
module Json = Fsa_json.Json

let without_timings = function
  | Json.Obj ms -> Json.Obj (List.filter (fun (k, _) -> k <> "timings") ms)
  | j -> j

let prop_cold_cached_uncached =
  QCheck2.Test.make ~name:"cold = cached = uncached via Exec.run" ~count:30
    gen_spec (fun spec ->
      match Elaborate.apa_of_spec spec with
      | exception Fsa_spec.Loc.Error _ -> true
      | apa ->
        QCheck2.assume (fits apa);
        let dir = Test_store.tmp_dir () in
        Fun.protect ~finally:(fun () -> Test_store.rm_rf dir) @@ fun () ->
        let cfg = Server.config ~store:(Fsa_store.Store.open_ ~dir ()) () in
        List.for_all
          (fun op ->
            let run cache = Exec.run cfg ~op ~cache ~file:"random.fsa" spec in
            let cold = run true in
            let warm = run true in
            let uncached = run false in
            let agrees o =
              String.equal o.Exec.oc_output cold.Exec.oc_output
              && Json.equal
                   (without_timings o.Exec.oc_result)
                   (without_timings cold.Exec.oc_result)
            in
            (not cold.Exec.oc_cached) && warm.Exec.oc_cached
            && (not uncached.Exec.oc_cached)
            && agrees warm && agrees uncached)
          [ Exec.Requirements; Exec.Report ])

(* The generator reaches both sides of the decomposition: a decomposed
   run leaves the product graph unexplored. *)
let test_generator_covers_modules () =
  let specs =
    QCheck2.Gen.generate ~n:60 ~rand:(Random.State.make [| 20 |]) gen_spec
  in
  let decomposed =
    List.filter_map
      (fun spec ->
        match Elaborate.apa_of_spec spec with
        | exception Fsa_spec.Loc.Error _ -> None
        | apa when not (fits apa) -> None
        | apa ->
          let r = Analysis.tool ~stakeholder apa in
          Some (not (Lts.is_explored r.Analysis.t_lts)))
      specs
  in
  Alcotest.(check bool) "some specs are one module" true (List.mem false decomposed);
  Alcotest.(check bool) "some specs are several" true (List.mem true decomposed)

let suite =
  [ QCheck_alcotest.to_alcotest prop_modular_equals_product;
    Alcotest.test_case "generator covers one and several modules" `Quick
      test_generator_covers_modules;
    QCheck_alcotest.to_alcotest prop_roundtrip_ast;
    QCheck_alcotest.to_alcotest prop_roundtrip_behaviour;
    QCheck_alcotest.to_alcotest prop_elaboration_total;
    QCheck_alcotest.to_alcotest prop_cached_step;
    QCheck_alcotest.to_alcotest prop_cold_cached_uncached ]
