(* The canonical APA of a functional model.

   Any loop-free functional SoS model induces an operational token game:
   each action is an elementary automaton that consumes one token per
   incoming functional flow and produces one token per outgoing flow;
   system inputs (minimal actions) are triggered by a pending environment
   token.  Every action fires exactly once, enabled exactly when all of
   its dependencies have delivered — so the reachability graph of the
   generated APA is precisely the lattice of order ideals of the model's
   event poset, and the tool-assisted analysis path becomes available for
   every manual-path model without writing an APA by hand.

   Transition labels are the model's actions themselves, which makes
   cross-validation between the two paths an identity mapping. *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Sos = Fsa_model.Sos
module Flow = Fsa_model.Flow
module AG = Fsa_model.Action_graph

let token = Term.sym "t"

(* Deterministic state-component names. *)
let flow_component f =
  Fmt.str "flow:%a->%a" Action.pp (Flow.src f) Action.pp (Flow.dst f)

let pending_component a = Fmt.str "pending:%a" Action.pp a
let out_component a = Fmt.str "out:%a" Action.pp a

(* A unique rule name per action (rule names must be distinct even when
   two actions share a label). *)
let rule_name a = Fmt.str "do:%a" Action.pp a

let compile ?(name = "model_apa") sos =
  let flows = Sos.all_flows sos in
  let actions = Sos.all_actions sos in
  let incoming a =
    List.filter (fun f -> Action.equal (Flow.dst f) a) flows
  in
  let outgoing a =
    List.filter (fun f -> Action.equal (Flow.src f) a) flows
  in
  let components =
    List.map (fun f -> (flow_component f, Term.Set.empty)) flows
    @ List.concat_map
        (fun a ->
          let pend =
            if incoming a = [] then
              [ (pending_component a, Term.Set.singleton token) ]
            else []
          in
          let out =
            if outgoing a = [] then [ (out_component a, Term.Set.empty) ]
            else []
          in
          pend @ out)
        actions
  in
  let rules =
    List.map
      (fun a ->
        let takes =
          match incoming a with
          | [] -> [ Apa.take (pending_component a) token ]
          | flows_in -> List.map (fun f -> Apa.take (flow_component f) token) flows_in
        in
        let puts =
          match outgoing a with
          | [] -> [ Apa.put (out_component a) token ]
          | flows_out -> List.map (fun f -> Apa.put (flow_component f) token) flows_out
        in
        Apa.rule (rule_name a) ~takes ~puts ~label:(fun _ -> a))
      actions
  in
  Apa.make ~components ~rules name

(* The tool-path analysis of a functional model through its canonical
   APA.  The stakeholder assignment is shared with the manual path, so
   the requirement sets are directly comparable (and provably equal: the
   generated behaviour realises exactly the model's dependency order). *)
let tool_analysis ?max_states
    ?(stakeholder = Fsa_requirements.Derive.default_stakeholder) sos =
  Analysis.tool ?max_states ~stakeholder
    (compile ~name:(Sos.name sos) sos)

(* Cross-validate the two paths on the same model; labels are identical,
   so the correspondence map is the identity. *)
let crosscheck ?max_states ?stakeholder sos =
  let manual =
    Analysis.manual
      ?stakeholder:
        (match stakeholder with Some s -> Some s | None -> None)
      sos
  in
  let tool = tool_analysis ?max_states ?stakeholder sos in
  Analysis.crosscheck
    ~map:(fun a -> Some a)
    ~manual_requirements:manual.Analysis.m_requirements
    ~tool_requirements:tool.Analysis.t_requirements
