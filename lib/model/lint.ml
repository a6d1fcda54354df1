(* Model linting: inspection warnings over functional SoS models.

   The derivation is only as good as the model; these checks surface the
   modelling smells that review sessions most often find by hand:

   - isolated actions (no flows at all): either dead modelling or an
     undeclared dependency;
   - components with no external interaction: they cannot influence or be
     influenced by the rest of the SoS;
   - actions that are simultaneously a system input and a system output:
     a degenerate dependency chain of length zero;
   - policy flows whose policy tag appears only once (likely a typo);
   - unreachable outputs: maximal actions no input can influence —
     decisions out of thin air;
   - fan-in joins at component boundaries: actions receiving several
     external flows, a common place for undocumented merge logic. *)

module Action = Fsa_term.Action

type warning =
  | Isolated_action of Action.t
  | Unconnected_component of string
  | Degenerate_boundary_action of Action.t
  | Singleton_policy of string * Flow.t
  | Uninfluenced_output of Action.t
  | External_fan_in of Action.t * int

let pp_warning ppf = function
  | Isolated_action a ->
    Fmt.pf ppf "action %a has no functional flows at all" Action.pp a
  | Unconnected_component c ->
    Fmt.pf ppf "component %s has no external interaction" c
  | Degenerate_boundary_action a ->
    Fmt.pf ppf "action %a is both a system input and a system output"
      Action.pp a
  | Singleton_policy (p, f) ->
    Fmt.pf ppf "policy %S is used by a single flow (%a) — typo?" p Flow.pp f
  | Uninfluenced_output a ->
    Fmt.pf ppf "output %a does not depend on any system input" Action.pp a
  | External_fan_in (a, n) ->
    Fmt.pf ppf "action %a receives %d external flows (merge logic?)"
      Action.pp a n

(* Stable diagnostic codes, the manual-path block (FSA03x) of the unified
   code space rendered by [Fsa_check.Diagnostic], whose registry alone
   assigns their severities. *)
let code = function
  | Isolated_action _ -> "FSA030"
  | Unconnected_component _ -> "FSA031"
  | Degenerate_boundary_action _ -> "FSA032"
  | Singleton_policy _ -> "FSA033"
  | Uninfluenced_output _ -> "FSA034"
  | External_fan_in _ -> "FSA035"

let check sos =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  let g = Sos.dependency_graph sos in
  let flows = Sos.all_flows sos in
  (* isolated actions *)
  List.iter
    (fun a ->
      if
        (not (Action_graph.G.mem_vertex a g))
        || Action_graph.G.in_degree a g = 0
           && Action_graph.G.out_degree a g = 0
      then warn (Isolated_action a))
    (Sos.all_actions sos);
  (* unconnected components *)
  List.iter
    (fun c ->
      let name = Component.name c in
      let has_external =
        List.exists
          (fun f ->
            List.exists (Action.equal (Flow.src f)) (Component.actions c)
            || List.exists (Action.equal (Flow.dst f)) (Component.actions c))
          (Sos.links sos)
      in
      if (not has_external) && List.length (Sos.components sos) > 1 then
        warn (Unconnected_component name))
    (Sos.components sos);
  (* degenerate boundary actions and uninfluenced outputs *)
  let b = Sos.boundary sos in
  List.iter
    (fun a ->
      if List.exists (Action.equal a) b.Sos.incoming then
        warn (Degenerate_boundary_action a))
    b.Sos.outgoing;
  List.iter
    (fun out ->
      if not (List.exists (Action.equal out) b.Sos.incoming) then begin
        let influenced =
          List.exists
            (fun inp ->
              Action_graph.G.Vset.mem out (Action_graph.G.reachable inp g))
            b.Sos.incoming
        in
        if not influenced then warn (Uninfluenced_output out)
      end)
    b.Sos.outgoing;
  (* singleton policies *)
  let policy_flows =
    List.filter_map (fun f -> Option.map (fun p -> (p, f)) (Flow.policy f)) flows
  in
  List.iter
    (fun (p, f) ->
      let uses = List.filter (fun (p', _) -> String.equal p p') policy_flows in
      if List.length uses = 1 then warn (Singleton_policy (p, f)))
    policy_flows;
  (* external fan-in *)
  let externals = List.filter Flow.is_external flows in
  List.iter
    (fun a ->
      let n =
        List.length
          (List.filter (fun f -> Action.equal (Flow.dst f) a) externals)
      in
      if n >= 3 then warn (External_fan_in (a, n)))
    (Sos.all_actions sos);
  List.rev !warnings
