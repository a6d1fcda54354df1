(* Tests for the static information-flow analysis: soundness of
   --prune-flow (matrix and requirements equal to the per-pair oracle
   across every bundled example spec x --reduce kind x method),
   the guard-kill refinement, the leak / unsanitized-flow diagnostics on
   the deliberately leaky example, static-flow attribution of pruned
   pairs, and determinism of the check --json diagnostic order under
   declaration permutation and reformatting. *)

module Apa = Fsa_apa.Apa
module Sym = Fsa_sym.Sym
module Analysis = Fsa_core.Analysis
module Parser = Fsa_spec.Parser
module Elaborate = Fsa_spec.Elaborate
module Flow = Fsa_flow.Flow
module Check = Fsa_check.Check
module D = Fsa_check.Diagnostic
module V = Fsa_vanet.Vehicle_apa

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let flow_of spec apa =
  Flow.build
    ~attribution:(Check.flow_attribution (Elaborate.skeleton_of_spec spec))
    apa

(* ------------------------------------------------------------------ *)
(* Soundness: --prune-flow never changes the derived requirements      *)
(* ------------------------------------------------------------------ *)

(* The flow-off half of this matrix is test_abstraction's. *)
let test_flow_sound_specs () =
  Test_abstraction.iter_example_specs (fun name spec apa ~guard_sig ->
      Test_abstraction.check_matches_oracle name ~guard_sig
        ~flow:(flow_of spec apa) apa)

(* Pairs the flow pruner skips are attributed "static-flow"; under an
   ample-set reduction, which forces the structural pruner on, its
   "static" attribution wins. *)
let leaky_source =
  {|
component Gateway {
  state key = { }
  state buf = { }
  state probe = { }
  state panel = { }
  shared radio

  action load:  take key(_k) -> put buf(_k)
  action bcast: take buf(_k) -> put radio(pkt(self, _k))
  action diag:  take probe(_p) -> put panel(ok(_p))
}

component Sensor {
  state inbox = { }
  state alert = { }
  shared radio

  action recv: take radio(pkt(_g, _k)) -> put inbox(_k)
  action show: take inbox(_x) -> put alert(notify(_x))
}

instance G  = Gateway(1) { key = { k0 }, probe = { p0 } }
instance S1 = Sensor(2) { }
|}

let leaky () =
  let spec = Parser.parse_string leaky_source in
  let apa = Elaborate.apa_of_spec spec in
  (spec, apa)

let pruned_by r =
  List.filter_map
    (fun pt -> pt.Analysis.pt_pruned_by)
    r.Analysis.t_timings.Analysis.ph_pairs

let test_static_flow_attribution () =
  let spec, apa = leaky () in
  let flow = flow_of spec apa in
  let r = Analysis.tool ~flow ~stakeholder:V.stakeholder apa in
  let by = pruned_by r in
  Alcotest.(check bool) "flow alone prunes pairs" true (by <> []);
  List.iter
    (fun by -> Alcotest.(check string) "attributed static-flow" "static-flow" by)
    by;
  let por = Sym.plan Sym.Por apa in
  Alcotest.(check bool) "the ample-set reduction applies" true
    (Sym.ample_fn por <> None);
  let both = Analysis.tool ~reduce:por ~flow ~stakeholder:V.stakeholder apa in
  List.iter
    (fun by -> Alcotest.(check string) "static wins attribution" "static" by)
    (pruned_by both);
  Alcotest.(check int) "same pairs pruned either way" (List.length by)
    (List.length (pruned_by both));
  let unpruned = Analysis.tool ~stakeholder:V.stakeholder apa in
  Alcotest.(check (list string)) "no attribution without pruners" []
    (pruned_by unpruned)

(* ------------------------------------------------------------------ *)
(* The flow graph itself                                               *)
(* ------------------------------------------------------------------ *)

let test_leak_detected () =
  let spec, apa = leaky () in
  let g = flow_of spec apa in
  Alcotest.(check (list string)) "protected component" [ "G_key" ]
    (Flow.protected_components g);
  Alcotest.(check (list string)) "shared channel" [ "radio" ]
    (Flow.shared_channels g);
  (match Flow.leaks g with
  | [ lk ] ->
    Alcotest.(check string) "leak source" "G_key" lk.Flow.lk_source;
    Alcotest.(check string) "leak channel" "radio" lk.Flow.lk_channel;
    Alcotest.(check (list string)) "shortest witness"
      [ "G_load"; "G_bcast" ] lk.Flow.lk_rules
  | lks -> Alcotest.failf "expected exactly one leak, got %d" (List.length lks));
  (match Flow.unsanitized g with
  | [ e ] ->
    Alcotest.(check string) "unsanitized src" "G_bcast" e.Flow.e_src;
    Alcotest.(check string) "unsanitized dst" "S1_recv" e.Flow.e_dst;
    Alcotest.(check bool) "cross-instance" true e.Flow.e_cross
  | es ->
    Alcotest.failf "expected exactly one unsanitized flow, got %d"
      (List.length es));
  Alcotest.(check bool) "diag independent of the leak" true
    (Flow.independent g ~min:"G_diag" ~max:"S1_show");
  Alcotest.(check bool) "show depends on load" false
    (Flow.independent g ~min:"G_load" ~max:"S1_show")

(* The self-reception guard (v != self) is statically decided by the
   unifier: the producer's own put can never pass its own receive
   guard, so the (send, self rec) edge is killed — while the
   cross-vehicle edges survive. *)
let test_guard_kills () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
  let spec = Parser.parse_file (Filename.concat dir "two_vehicles.fsa") in
  let g = flow_of spec (Elaborate.apa_of_spec spec) in
  let kills = Flow.kills g in
  Alcotest.(check int) "two self-reception kills" 2 (List.length kills);
  List.iter
    (fun k ->
      Alcotest.(check string) "killed on the shared net" "net"
        k.Flow.k_component;
      Alcotest.(check bool) "a self pair" true
        (String.equal k.Flow.k_src "V1_send"
         && String.equal k.Flow.k_dst "V1_rec"
        || String.equal k.Flow.k_src "V2_send"
           && String.equal k.Flow.k_dst "V2_rec"))
    kills;
  Alcotest.(check bool) "cross edge survives" true
    (List.exists
       (fun e ->
         String.equal e.Flow.e_src "V1_send"
         && String.equal e.Flow.e_dst "V2_rec")
       (Flow.edges g));
  Alcotest.(check bool) "killed edge absent" false
    (List.exists
       (fun e ->
         String.equal e.Flow.e_src "V1_send"
         && String.equal e.Flow.e_dst "V1_rec")
       (Flow.edges g))

(* Refined reachability is a subgraph of the skeleton's, so the flow
   pruner can only prune a superset of the skeleton-independent
   pairs. *)
let test_refinement_is_monotone () =
  match Test_check.spec_dir () with
  | None -> ()
  | Some dir ->
    List.iter
      (fun path ->
        match Parser.parse_file path with
        | exception _ -> ()
        | spec -> (
          match Elaborate.apa_of_spec spec with
          | exception (Fsa_spec.Loc.Error _ | Invalid_argument _) -> ()
          | apa ->
            let g = flow_of spec apa in
            Alcotest.(check bool)
              (Filename.basename path
              ^ ": flow independence >= skeleton independence")
              true
              (Flow.independent_pairs g >= Flow.skeleton_independent_pairs g)))
      (Test_check.example_files dir)

let test_report_renderers () =
  let spec, apa = leaky () in
  let g = flow_of spec apa in
  let rpt = Flow.analyse g in
  let text = Fmt.str "%a" Flow.pp_report rpt in
  Alcotest.(check bool) "text names the leak" true
    (contains ~affix:"G_key" text && contains ~affix:"radio" text);
  let json = Flow.report_to_json rpt in
  Alcotest.(check string) "json deterministic" json
    (Flow.report_to_json (Flow.analyse (flow_of spec apa)));
  Alcotest.(check bool) "json carries the leak" true
    (contains ~affix:"\"leaks\"" json && contains ~affix:"G_key" json);
  let dot = Flow.to_dot g in
  Alcotest.(check bool) "dot marks the protected component" true
    (contains ~affix:"G_key" dot);
  Alcotest.(check bool) "dot marks the shared channel" true
    (contains ~affix:"doubleoctagon" dot)

(* ------------------------------------------------------------------ *)
(* check --json determinism under permutation and reformatting         *)
(* ------------------------------------------------------------------ *)

(* The same model with declarations permuted and reformatted (blank
   lines shift every location).  Diagnostics are sorted by
   file/location/code, so the rendered order differs only through the
   locations — the (code, message) content must be identical. *)
let leaky_permuted =
  {|

component Sensor {

  state inbox = { }
  state alert = { }
  shared radio

  action recv: take radio(pkt(_g, _k)) -> put inbox(_k)

  action show: take inbox(_x) -> put alert(notify(_x))
}

component Gateway {
  state key = { }

  state buf = { }
  state probe = { }
  state panel = { }
  shared radio

  action bcast: take buf(_k) -> put radio(pkt(self, _k))
  action load:  take key(_k) -> put buf(_k)
  action diag:  take probe(_p) -> put panel(ok(_p))
}

instance S1 = Sensor(2) { }
instance G  = Gateway(1) { key = { k0 }, probe = { p0 } }
|}

let codes_and_messages ds =
  List.sort compare (List.map (fun d -> (d.D.code, d.D.message)) ds)

let test_check_json_deterministic () =
  let ds = Check.spec ~file:"leaky.fsa" ~deep:true
      (Parser.parse_string leaky_source)
  in
  let ds' = Check.spec ~file:"leaky.fsa" ~deep:true
      (Parser.parse_string leaky_permuted)
  in
  Alcotest.(check (list (pair string string)))
    "same findings under declaration permutation"
    (codes_and_messages ds) (codes_and_messages ds');
  Alcotest.(check bool) "the leak is among them" true
    (List.exists (fun d -> d.D.code = "FSA060") ds);
  (* the rendered order is the diagnostic sort order (file, location,
     code, ...), independent of emission order *)
  let sorted_render ds = D.render_json (List.rev ds) in
  Alcotest.(check string) "render sorts internally" (D.render_json ds)
    (sorted_render ds);
  Alcotest.(check string) "byte-identical across runs" (D.render_json ds)
    (D.render_json
       (Check.spec ~file:"leaky.fsa" ~deep:true
          (Parser.parse_string leaky_source)))

let suite =
  [ Alcotest.test_case "--prune-flow sound on example specs" `Slow
      test_flow_sound_specs;
    Alcotest.test_case "static-flow attribution" `Quick
      test_static_flow_attribution;
    Alcotest.test_case "leak and unsanitized flow detected" `Quick
      test_leak_detected;
    Alcotest.test_case "guard kills self-reception" `Quick test_guard_kills;
    Alcotest.test_case "refinement monotone vs skeleton" `Quick
      test_refinement_is_monotone;
    Alcotest.test_case "flow report renderers" `Quick test_report_renderers;
    Alcotest.test_case "check --json deterministic under permutation" `Quick
      test_check_json_deterministic ]
