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
   chain at once. *)
let gen_component =
  let open QCheck2.Gen in
  let* len = int_range 1 4 in
  let* with_reads = bool in
  let* with_guards = bool in
  let* two_tokens = bool in
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
    { Ast.cd_name = "C"; cd_items = items; cd_loc = Fsa_spec.Loc.dummy }

let gen_spec =
  let open QCheck2.Gen in
  let* cd = gen_component in
  let* nb_instances = int_range 1 2 in
  let instances =
    List.init nb_instances (fun i ->
        Ast.D_instance
          { Ast.in_name = Printf.sprintf "I%d" (i + 1);
            in_comp = "C";
            in_id = i + 1;
            in_overrides = [];
            in_loc = Fsa_spec.Loc.dummy })
  in
  return (Ast.D_component cd :: instances)

let prop_roundtrip_ast =
  QCheck2.Test.make ~name:"random specs round trip through the printer"
    ~count:100 gen_spec (fun spec ->
      Pretty.equal spec (Parser.parse_string (Pretty.to_string spec)))

let prop_roundtrip_behaviour =
  QCheck2.Test.make
    ~name:"round-tripped specs elaborate to the same behaviour" ~count:100
    gen_spec (fun spec ->
      let states ast =
        Lts.nb_states (Lts.explore (Elaborate.apa_of_spec ast))
      in
      states spec = states (Parser.parse_string (Pretty.to_string spec)))

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

let suite =
  [ QCheck_alcotest.to_alcotest prop_roundtrip_ast;
    QCheck_alcotest.to_alcotest prop_roundtrip_behaviour;
    QCheck_alcotest.to_alcotest prop_elaboration_total;
    QCheck_alcotest.to_alcotest prop_cached_step ]
