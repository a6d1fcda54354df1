(* Spec-level static analysis: dead rules, binding discipline, component
   usage, APA races and abstraction soundness — all before (and without)
   exploring any state space. *)

module Term = Fsa_term.Term
module Apa = Fsa_apa.Apa
module Loc = Fsa_spec.Loc
module Ast = Fsa_spec.Ast
module Elab = Fsa_spec.Elaborate
module Lint = Fsa_model.Lint
module D = Diagnostic

open Elab

let c_diagnostics = Fsa_obs.Metrics.counter "check.diagnostics"
let c_rules = Fsa_obs.Metrics.counter "check.rules_checked"
let c_rounds = Fsa_obs.Metrics.counter "check.fixpoint_rounds"
let c_wall = Fsa_obs.Metrics.counter "check.wall_ns"

(* ------------------------------------------------------------------ *)
(* "Did you mean" suggestions                                          *)
(* ------------------------------------------------------------------ *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest name candidates =
  let scored =
    List.filter_map
      (fun c ->
        let d = levenshtein name c in
        if d > 0 && d <= 2 + (String.length name / 4) then Some (d, c) else None)
      candidates
  in
  match List.sort Stdlib.compare scored with
  | (_, best) :: _ -> Some best
  | [] -> None

let with_hint candidates name =
  match suggest name candidates with
  | Some c -> Printf.sprintf " (did you mean %s?)" c
  | None -> ""

(* ------------------------------------------------------------------ *)
(* Producible-shape fixpoint                                           *)
(* ------------------------------------------------------------------ *)

(* A take pattern can match a producible shape when the two unify with
   variable namespaces kept disjoint (a shape's variables stand for "any
   term some binding could have produced here"). *)
let matches_shape pat shape =
  Option.is_some (Term.unify (Term.rename "p" pat) (Term.rename "s" shape))

(* Over-approximate the terms each state component can ever hold: seed
   with the initial contents, then close under the puts of every rule
   whose takes all have a matching shape.  Guards are ignored and shapes
   are never removed, so the result is a superset of reality; the set of
   candidate shapes (initial terms plus put templates) is finite, hence
   the fixpoint terminates. *)
let producible sk =
  let shapes : (string, Term.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c, init, _) -> Hashtbl.replace shapes c (Term.Set.elements init))
    sk.sk_components;
  let get c = Option.value ~default:[] (Hashtbl.find_opt shapes c) in
  let add c t =
    let cur = get c in
    if List.exists (Term.equal t) cur then false
    else begin
      Hashtbl.replace shapes c (t :: cur);
      true
    end
  in
  let enabled r =
    List.for_all
      (fun tk -> List.exists (matches_shape tk.lt_pat) (get tk.lt_comp))
      r.lr_takes
  in
  let changed = ref true in
  while !changed do
    Fsa_obs.Metrics.incr c_rounds;
    changed := false;
    List.iter
      (fun r ->
        if enabled r then
          List.iter
            (fun pt -> if add pt.lp_comp pt.lp_term then changed := true)
            r.lr_puts)
      sk.sk_rules
  done;
  (get, enabled)

(* ------------------------------------------------------------------ *)
(* Passes over the located skeleton                                    *)
(* ------------------------------------------------------------------ *)

(* FSA007: takes and puts must reference declared state components.
   (The elaborator only catches this much later, inside [Apa.make], as an
   un-located [Invalid_argument].) *)
let pass_undeclared ?file sk add =
  let declared = List.map (fun (c, _, _) -> c) sk.sk_components in
  List.iter
    (fun r ->
      List.iter
        (fun tk ->
          if not (List.mem tk.lt_comp declared) then
            add
              (D.error ?file ~loc:tk.lt_loc ~code:"FSA007"
                 "rule %s references undeclared state component %s%s"
                 r.lr_name tk.lt_comp (with_hint declared tk.lt_comp)))
        r.lr_takes;
      List.iter
        (fun pt ->
          if not (List.mem pt.lp_comp declared) then
            add
              (D.error ?file ~loc:pt.lp_loc ~code:"FSA007"
                 "rule %s puts into undeclared state component %s%s" r.lr_name
                 pt.lp_comp (with_hint declared pt.lp_comp)))
        r.lr_puts)
    sk.sk_rules

(* FSA001/FSA006: rules whose takes can never be satisfied.  A rule
   reading a component that is never written and initially empty is
   "inert" — the instance simply does not exercise that ability (a common
   idiom: a receiver-only vehicle declares the full component type) — and
   only worth a note; a take pattern that conflicts with every producible
   shape is a genuine specification defect. *)
let pass_dead ?file sk get_shapes add =
  let writers c =
    List.exists
      (fun r -> List.exists (fun pt -> String.equal pt.lp_comp c) r.lr_puts)
      sk.sk_rules
  in
  let dead = ref [] in
  List.iter
    (fun r ->
      Fsa_obs.Metrics.incr c_rules;
      match
        List.find_opt
          (fun tk ->
            not (List.exists (matches_shape tk.lt_pat) (get_shapes tk.lt_comp)))
          r.lr_takes
      with
      | None -> ()
      | Some tk ->
        dead := r.lr_name :: !dead;
        let shapes = get_shapes tk.lt_comp in
        if shapes = [] && not (writers tk.lt_comp) then
          add
            (D.info ?file ~loc:tk.lt_loc ~code:"FSA006"
               "rule %s can never fire: state component %s is never written \
                and initially empty in this instantiation"
               r.lr_name tk.lt_comp)
        else if shapes = [] then
          add
            (D.error ?file ~loc:tk.lt_loc ~code:"FSA001"
               "rule %s is dead: nothing can ever appear in state component \
                %s (all of its producers are themselves dead)"
               r.lr_name tk.lt_comp)
        else
          add
            (D.error ?file ~loc:tk.lt_loc ~code:"FSA001"
               "rule %s is dead: take pattern %a can never match any term \
                producible in %s (producible: %a)"
               r.lr_name Term.pp tk.lt_pat tk.lt_comp
               Fmt.(list ~sep:comma Term.pp)
               (List.sort Term.compare shapes)))
    sk.sk_rules;
  !dead

(* FSA002/FSA003: every variable of a put template must be bound by a
   take pattern (else elaboration would fail much later, without a
   position); a guard variable that is never bound makes comparisons
   evaluate vacuously. *)
let pass_bindings ?file sk add =
  List.iter
    (fun r ->
      let bound =
        List.fold_left
          (fun acc tk -> Term.String_set.union acc (Term.vars tk.lt_pat))
          Term.String_set.empty r.lr_takes
      in
      List.iter
        (fun pt ->
          Term.String_set.iter
            (fun v ->
              if not (Term.String_set.mem v bound) then
                add
                  (D.error ?file ~loc:pt.lp_loc ~code:"FSA002"
                     "rule %s produces %a with variable _%s bound by no take \
                      pattern"
                     r.lr_name Term.pp pt.lp_term v))
            (Term.vars pt.lp_term))
        r.lr_puts;
      List.iter
        (fun v ->
          if not (Term.String_set.mem v bound) then
            add
              (D.warning ?file ~loc:r.lr_loc ~code:"FSA003"
                 "guard of rule %s references variable _%s bound by no take \
                  pattern — comparisons over it never hold"
                 r.lr_name v))
        r.lr_guard_vars)
    sk.sk_rules

(* FSA004/FSA005: state components nothing ever reads (observable sinks,
   worth a note) or nothing references at all. *)
let pass_usage ?file sk add =
  List.iter
    (fun (c, init, loc) ->
      let read =
        List.exists
          (fun r -> List.exists (fun tk -> String.equal tk.lt_comp c) r.lr_takes)
          sk.sk_rules
      and written =
        List.exists
          (fun r -> List.exists (fun pt -> String.equal pt.lp_comp c) r.lr_puts)
          sk.sk_rules
      in
      if (not read) && not written then begin
        if Term.Set.is_empty init then
          add
            (D.warning ?file ~loc ~code:"FSA005"
               "state component %s is declared but never read or written" c)
      end
      else if not read then
        add
          (D.info ?file ~loc ~code:"FSA004"
             "state component %s is write-only: its contents are never read \
              (observable sink?)"
             c))
    sk.sk_components

(* FSA010/FSA011: pairs of rules whose takes conflict on the same state
   component with unifiable patterns — exactly the interleavings the
   asynchronous product makes order-sensitive.  Pairs where either rule
   carries a guard are skipped: the guard may well disambiguate the
   interpretations (e.g. [when _v != self]), and guards are opaque to
   this analysis. *)
let pass_races ?file sk add =
  let takes_on c r =
    List.filter (fun tk -> String.equal tk.lt_comp c) r.lr_takes
  in
  let components =
    List.sort_uniq String.compare
      (List.concat_map
         (fun r -> List.map (fun tk -> tk.lt_comp) r.lr_takes)
         sk.sk_rules)
  in
  let rec pairs = function
    | [] -> []
    | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
  in
  List.iter
    (fun c ->
      List.iter
        (fun (r1, r2) ->
          if not (r1.lr_guarded || r2.lr_guarded) then begin
            let conflict kind t1 t2 =
              match
                List.find_opt
                  (fun tk1 ->
                    List.exists
                      (fun tk2 -> matches_shape tk1.lt_pat tk2.lt_pat)
                      t2)
                  t1
              with
              | None -> ()
              | Some tk1 ->
                let code, what =
                  match kind with
                  | `CC -> ("FSA010", "both consume")
                  | `CR -> ("FSA011", "one consumes what the other reads")
                in
                add
                  (D.warning ?file ~loc:tk1.lt_loc ~code
                     "rules %s and %s race on %s: %s terms matching %a — \
                      their interleaving is order-sensitive in the \
                      asynchronous product"
                     r1.lr_name r2.lr_name c what Term.pp tk1.lt_pat)
            in
            let consumes r = List.filter (fun tk -> tk.lt_consume) (takes_on c r)
            and reads r =
              List.filter (fun tk -> not tk.lt_consume) (takes_on c r)
            in
            conflict `CC (consumes r1) (consumes r2);
            conflict `CR (consumes r1) (reads r2);
            conflict `CR (consumes r2) (reads r1)
          end)
        (pairs sk.sk_rules))
    components

(* FSA020/FSA021: check declarations must name actions of the APA's
   alphabet, and properties over actions that can never occur are
   vacuous. *)
let pass_checks ?file ~alphabet ~dead checks add =
  List.iter
    (fun (ck : Ast.check_decl) ->
      let names =
        ck.ck_args @ (match ck.ck_scope with Some (_, a) -> [ a ] | None -> [])
      in
      List.iter
        (fun name ->
          if alphabet = [] then
            add
              (D.error ?file ~loc:ck.ck_loc ~code:"FSA020"
                 "check refers to APA transition %s, but the specification \
                  declares no instances"
                 name)
          else if not (List.mem name alphabet) then
            add
              (D.error ?file ~loc:ck.ck_loc ~code:"FSA020"
                 "check names %s, which is not in the APA's action alphabet%s"
                 name (with_hint alphabet name))
          else if List.mem name dead then
            add
              (D.warning ?file ~loc:ck.ck_loc ~code:"FSA021"
                 "check is vacuous: action %s can never occur (its rule is \
                  dead)"
                 name))
        names)
    checks

(* ------------------------------------------------------------------ *)
(* Manual path: lint findings as unified diagnostics                   *)
(* ------------------------------------------------------------------ *)

let severity_of_code code =
  match
    List.find_opt (fun (c, _, _) -> String.equal c code) D.registry
  with
  | Some (_, sev, _) -> sev
  | None -> D.Warning

let pass_soses ?file ast (env : Elab.env) add =
  List.iter
    (fun (sd : Ast.sos_decl) ->
      match Elab.sos_of_spec ast sd.sd_name with
      | exception Loc.Error (loc, msg) ->
        add (D.error ?file ~loc ~code:"FSA000" "%s" msg)
      | sos ->
        List.iter
          (fun w ->
            let code = Lint.code w in
            add
              (D.make ?file ~loc:sd.sd_loc ~severity:(severity_of_code code)
                 ~code "sos %s: %a" sd.sd_name Lint.pp_warning w))
          (Lint.check sos))
    env.soses

(* ------------------------------------------------------------------ *)
(* Deep pass: structural net analysis (FSA040-FSA048)                  *)
(* ------------------------------------------------------------------ *)

module Structural = Fsa_struct.Structural

let net_of_skeleton sk =
  { Structural.n_places =
      List.map
        (fun (c, init, _) ->
          { Structural.pl_name = c; pl_initial = init })
        sk.sk_components;
    n_rules =
      List.map
        (fun r ->
          { Structural.rs_name = r.lr_name;
            rs_takes =
              List.map
                (fun tk -> (tk.lt_comp, tk.lt_pat, tk.lt_consume))
                r.lr_takes;
            rs_puts = List.map (fun pt -> (pt.lp_comp, pt.lp_term)) r.lr_puts;
            rs_guarded = r.lr_guarded })
        sk.sk_rules }

(* The structural findings are advisory (the skeleton forgets patterns,
   guards and the set semantics of components), so everything here is a
   note — except FSA041, whose certificate is sound for the APA itself:
   an unguarded self-regenerating rule with a strictly growing term
   really does make the state space infinite. *)
let pass_deep ?file ?budget sk add =
  let net = net_of_skeleton sk in
  if net.Structural.n_places <> [] then begin
    let comp_loc c =
      List.find_map
        (fun (c', _, loc) -> if String.equal c c' then Some loc else None)
        sk.sk_components
    in
    let rule_loc n =
      List.find_map
        (fun r -> if String.equal r.lr_name n then Some r.lr_loc else None)
        sk.sk_rules
    in
    let r = Structural.analyse ?budget net in
    let hint = Structural.growth_hint net in
    List.iter
      (fun (c, b) ->
        add
          (D.info ?file ?loc:(comp_loc c) ~code:"FSA040"
             "state component %s is bounded: a place invariant of the net \
              skeleton keeps its size at most %d"
             c b))
      r.Structural.r_bounds;
    List.iter
      (fun (rl, c, why) ->
        add
          (D.warning ?file ?loc:(rule_loc rl) ~code:"FSA041"
             "rule %s makes the state space infinite: %s in component %s"
             rl why c))
      r.Structural.r_certified;
    List.iter
      (fun (c, s) ->
        add
          (D.info ?file ?loc:(comp_loc c) ~code:"FSA042"
             "state component %s is potentially unbounded: net production \
              +%d per firing round and no covering place invariant%s"
             c s hint))
      r.Structural.r_unbounded;
    List.iter
      (fun v ->
        let combo =
          List.filter_map Fun.id
            (Array.to_list
               (Array.mapi
                  (fun i n ->
                    if n = 0 then None
                    else if n = 1 then Some r.Structural.r_rules.(i)
                    else
                      Some (Printf.sprintf "%d*%s" n r.Structural.r_rules.(i)))
                  v))
        in
        add
          (D.info ?file ~code:"FSA043"
             "transition invariant: firing {%s} returns the net skeleton to \
              the same marking (cyclic behaviour)"
             (String.concat ", " combo)))
      r.Structural.r_t_invariants;
    (match r.Structural.r_verdict with
    | Structural.May_deadlock bad ->
      List.iter
        (fun s ->
          add
            (D.info ?file ?loc:(Option.bind (List.nth_opt s 0) comp_loc)
               ~code:"FSA044"
               "components {%s} form a siphon with no initially marked \
                trap: once drained, every rule taking from them is \
                permanently disabled"
               (String.concat ", " s)))
        bad
    | Structural.Deadlock_free_skeleton ->
      add
        (D.info ?file ~code:"FSA045"
           "no structural deadlock at skeleton level: every one of the %d \
            minimal siphon(s) contains an initially marked trap"
           (List.length r.Structural.r_siphons))
    | Structural.Unknown_budget ->
      add
        (D.info ?file ~code:"FSA048"
           "structural deadlock analysis truncated: siphon enumeration \
            exceeded its budget"));
    if r.Structural.r_independent_pairs > 0 then
      add
        (D.info ?file ~code:"FSA046"
           "%d of %d ordered rule pairs have no token flow between them: \
            their functional dependence tests are skipped under \
            --prune-flow"
           r.Structural.r_independent_pairs r.Structural.r_rule_pairs);
    List.iter
      (fun t ->
        if Structural.initially_marked net t then
          add
            (D.info ?file ?loc:(Option.bind (List.nth_opt t 0) comp_loc)
               ~code:"FSA047"
               "components {%s} form an initially marked trap: they can \
                never all drain"
               (String.concat ", " t)))
      r.Structural.r_traps
  end

(* ------------------------------------------------------------------ *)
(* Deep pass: reduction prognosis (FSA050-FSA058)                      *)
(* ------------------------------------------------------------------ *)

module Sym = Fsa_sym.Sym

(* Everything here is advisory (Info): asymmetric models are perfectly
   fine, the pass only reports what --reduce could exploit and why it
   would refuse the rest. *)
let pass_sym ?file ast add =
  match
    try Some (Elab.apa_of_spec ast, Elab.guard_signatures ast)
    with
    (* elaboration problems are already reported as FSA000; a spec with
       no instances (model-only) simply has nothing to reduce *)
    | Loc.Error _ | Invalid_argument _ ->
      None
  with
  | None -> ()
  | Some (apa, sigs) ->
    let rep = Sym.detect ~guard_sig:(fun r -> List.assoc_opt r sigs) apa in
    let blocks o =
      String.concat " ~ "
        (List.map
           (fun b -> "{" ^ String.concat " " b.Sym.b_instances ^ "}")
           o.Sym.o_blocks)
    in
    List.iter
      (fun o ->
        if o.Sym.o_reducible then
          add
            (D.info ?file ~code:"FSA050"
               "instances %s are interchangeable: --reduce sym explores \
                one representative per class (%d blocks)"
               (blocks o)
               (List.length o.Sym.o_blocks))
        else
          add
            (D.info ?file ~code:"FSA052"
               "orbit %s cannot be canonicalised: %s" (blocks o) o.Sym.o_why))
      rep.Sym.r_orbits;
    List.iter
      (fun j ->
        let code =
          match j.Sym.j_reason with `Initial -> "FSA054" | _ -> "FSA051"
        in
        add
          (D.info ?file ~code
             "instances %s and %s look alike but are not interchangeable: \
              %s"
             j.Sym.j_a j.Sym.j_b j.Sym.j_detail))
      rep.Sym.r_rejected;
    if rep.Sym.r_attested_guards <> [] then
      add
        (D.info ?file ~code:"FSA057"
           "guard equivalence of %s rests on syntactic signatures: \
            symmetry soundness assumes the guard builtins treat the \
            instances alike"
           (String.concat ", " rep.Sym.r_attested_guards));
    let modules = Sym.por_modules (Sym.por_plan apa (Structural.of_apa apa)) in
    let usable = List.filter (fun m -> m.Sym.m_reducible) modules in
    if List.length modules > 1 then begin
      add
        (D.info ?file ~code:"FSA053"
           "the rules split into %d interference modules (%d usable as \
            ample sets): --reduce por interleaves them one at a time"
           (List.length modules) (List.length usable));
      List.iter
        (fun m ->
          if not m.Sym.m_reducible then
            add
              (D.info ?file ~code:"FSA056"
                 "module {%s} cannot serve as an ample set: %s"
                 (String.concat ", " m.Sym.m_rules)
                 m.Sym.m_why))
        modules
    end;
    let order = Sym.group_order rep in
    if order > 1. then
      add
        (D.info ?file ~code:"FSA055"
           "symmetry group order %.0f: --reduce sym explores up to %.0fx \
            fewer states"
           order order);
    if order > 1. || usable <> [] then
      add
        (D.info ?file ~code:"FSA058"
           "this model qualifies for reduced exploration: try --reduce %s"
           (if order > 1. && usable <> [] then "sym+por"
            else if order > 1. then "sym"
            else "por"))

(* ------------------------------------------------------------------ *)
(* Deep pass: information flow (FSA060-FSA065)                         *)
(* ------------------------------------------------------------------ *)

module Flow = Fsa_flow.Flow

let flow_attribution sk =
  let find n f =
    List.find_map
      (fun r -> if String.equal r.lr_name n then Some (f r) else None)
      sk.sk_rules
  in
  { Flow.at_instance =
      (fun n ->
        match find n (fun r -> r.lr_instance) with
        | Some "" | None -> None
        | Some i -> Some i);
    at_guard_vars = (fun n -> find n (fun r -> r.lr_guard_vars)) }

(* Only the leak finding is a warning: protected material reaching a
   cross-instance channel is wrong on any reading.  Guard-free boundary
   crossings (FSA061) are advisory — broadcast topologies consume
   unauthenticated channel data as a matter of design — as are the dead
   surface, cycle, kill and independence summaries. *)
let pass_flow ?file sk ast add =
  match
    try Some (Elab.apa_of_spec ast)
    with Loc.Error _ | Invalid_argument _ -> None
  with
  | None -> ()
  | Some apa ->
    let g = Flow.build ~attribution:(flow_attribution sk) apa in
    let rule_loc n =
      List.find_map
        (fun r -> if String.equal r.lr_name n then Some r.lr_loc else None)
        sk.sk_rules
    in
    let comp_loc c =
      List.find_map
        (fun (c', _, loc) -> if String.equal c c' then Some loc else None)
        sk.sk_components
    in
    List.iter
      (fun l ->
        let loc =
          match l.Flow.lk_rules with
          | r :: _ -> rule_loc r
          | [] -> comp_loc l.Flow.lk_source
        in
        add
          (D.warning ?file ?loc ~code:"FSA060"
             "confidentiality leak: protected component %s flows into \
              cross-instance channel %s via %s"
             l.Flow.lk_source l.Flow.lk_channel
             (if l.Flow.lk_rules = [] then "direct shared access"
              else String.concat " -> " l.Flow.lk_rules)))
      (Flow.leaks g);
    List.iter
      (fun (e : Flow.edge) ->
        add
          (D.info ?file ?loc:(rule_loc e.Flow.e_dst) ~code:"FSA061"
             "unsanitized cross-instance flow: %s %s what %s puts into %s \
              without any guard"
             e.Flow.e_dst
             (if e.Flow.e_consume then "consumes" else "reads")
             e.Flow.e_src e.Flow.e_component))
      (Flow.unsanitized g);
    List.iter
      (fun rl ->
        add
          (D.info ?file ?loc:(rule_loc rl) ~code:"FSA062"
             "dead attack surface: %s is enabled on the initial state but \
              no flow path leads from it to any output rule"
             rl))
      (Flow.dead_sources g);
    List.iter
      (fun c ->
        add
          (D.info ?file ?loc:(Option.bind (List.nth_opt c 0) rule_loc)
             ~code:"FSA063"
             "unguarded flow cycle: {%s} feed each other and none of them \
              has a guard"
             (String.concat ", " c)))
      (Flow.unguarded_cycles g);
    List.iter
      (fun (k : Flow.kill) ->
        add
          (D.info ?file ?loc:(rule_loc k.Flow.k_dst) ~code:"FSA064"
             "the guard of %s statically rejects every token %s puts into \
              %s (forced bindings: %s)"
             k.Flow.k_dst k.Flow.k_src k.Flow.k_component
             (String.concat ", "
                (List.map
                   (fun (v, t) ->
                     Printf.sprintf "%s = %s" v (Term.to_string t))
                   k.Flow.k_bindings))))
      (Flow.kills g);
    let independent = Flow.independent_pairs g in
    if independent > 0 then
      add
        (D.info ?file ~code:"FSA065"
           "%d of %d ordered rule pairs are flow-independent (%d already \
            at skeleton level): their functional dependence tests are \
            skipped under --prune-flow"
           independent (Flow.rule_pairs g)
           (Flow.skeleton_independent_pairs g))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let skeleton_passes ?file sk add =
  pass_undeclared ?file sk add;
  let get_shapes, _enabled = producible sk in
  let dead = pass_dead ?file sk get_shapes add in
  pass_bindings ?file sk add;
  pass_usage ?file sk add;
  pass_races ?file sk add;
  dead

let spec ?file ?(deep = false) ?budget ast =
  Fsa_obs.Span.with_ ~cat:"check" "check.spec" @@ fun () ->
  let t0 = Fsa_obs.Span.now_ns () in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (try
     let env = Elab.env_of_spec ast in
     (try
        let sk = Elab.skeleton_of_spec ast in
        let dead = skeleton_passes ?file sk add in
        let alphabet = List.map (fun r -> r.lr_name) sk.sk_rules in
        pass_checks ?file ~alphabet ~dead env.checks add;
        if deep then begin
          pass_deep ?file ?budget sk add;
          pass_sym ?file ast add;
          pass_flow ?file sk ast add
        end
      with Loc.Error (loc, msg) ->
        add (D.error ?file ~loc ~code:"FSA000" "%s" msg));
     pass_soses ?file ast env add
   with Loc.Error (loc, msg) ->
     add (D.error ?file ~loc ~code:"FSA000" "%s" msg));
  let out = D.sort !ds in
  Fsa_obs.Metrics.incr ~by:(List.length out) c_diagnostics;
  Fsa_obs.Metrics.incr
    ~by:(Int64.to_int (Int64.sub (Fsa_obs.Span.now_ns ()) t0))
    c_wall;
  out

let skeleton_of_apa apa =
  { sk_components =
      List.map (fun (c, init) -> (c, init, Loc.dummy)) (Apa.components apa);
    sk_rules =
      List.map
        (fun r ->
          { lr_name = Apa.rule_name r;
            lr_instance = "";
            lr_component = "";
            lr_takes =
              List.map
                (fun (tk : Apa.take) ->
                  { lt_comp = tk.t_component;
                    lt_pat = tk.t_pattern;
                    lt_consume = tk.t_consume;
                    lt_loc = Loc.dummy })
                r.Apa.r_takes;
            lr_puts =
              List.map
                (fun (p : Apa.put) ->
                  { lp_comp = p.p_component;
                    lp_term = p.p_template;
                    lp_loc = Loc.dummy })
                r.Apa.r_puts;
            (* guards are opaque closures here: treat every rule as
               guarded, which disables race reporting (no false
               positives) but keeps the dead-rule analysis sound *)
            lr_guarded = true;
            lr_guard_vars = [];
            lr_loc = Loc.dummy })
        (Apa.rules apa) }

let apa ?file a =
  Fsa_obs.Span.with_ ~cat:"check" "check.apa" @@ fun () ->
  let ds = ref [] in
  let add d = ds := d :: !ds in
  ignore (skeleton_passes ?file (skeleton_of_apa a) add : string list);
  let out = D.sort !ds in
  Fsa_obs.Metrics.incr ~by:(List.length out) c_diagnostics;
  out

let keep_set ?file ~alphabet names =
  let ds =
    List.filter_map
      (fun name ->
        if List.mem name alphabet then None
        else
          Some
            (D.error ?file ~code:"FSA022"
               "homomorphism keeps %s, which is not in the APA's action \
                alphabet%s"
               name (with_hint alphabet name)))
      names
  in
  if names <> [] && List.length ds = List.length names then
    ds
    @ [ D.warning ?file ~code:"FSA023"
          "the homomorphism erases the entire alphabet: the minimal \
           automaton is a single state and every dependence verdict is \
           vacuous" ]
  else ds

let rename_map ?file ~alphabet pairs =
  (* first binding wins, mirroring the assoc-list semantics of
     [Hom.rename] *)
  let table =
    List.fold_left
      (fun m (x, y) -> if List.mem_assoc x m then m else (x, y) :: m)
      [] pairs
    |> List.rev
  in
  let unknown =
    List.filter_map
      (fun (x, _) ->
        if List.mem x alphabet then None
        else
          Some
            (D.error ?file ~code:"FSA022"
               "homomorphism renames %s, which is not in the APA's action \
                alphabet%s"
               x (with_hint alphabet x)))
      table
  in
  (* group sources by target; untouched alphabet actions count as
     identity sources, so renaming [a] onto an existing action [b]
     merges the two just as mapping both onto a third symbol would *)
  let target x =
    match List.assoc_opt x table with Some y -> y | None -> x
  in
  let sources =
    List.sort_uniq String.compare (List.map fst table @ alphabet)
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let t = target x in
      let prev = try Hashtbl.find groups t with Not_found -> [] in
      Hashtbl.replace groups t (x :: prev))
    sources;
  let collisions =
    Hashtbl.fold
      (fun t srcs acc ->
        if List.length srcs > 1 then
          (t, List.sort String.compare srcs) :: acc
        else acc)
      groups []
    |> List.sort compare
  in
  unknown
  @ List.map
      (fun (t, srcs) ->
        D.error ?file ~code:"FSA036"
          "rename map is not injective: %s all map to %s; the merged image \
           identifies behaviours the model distinguishes, so dependence \
           verdicts read off it are meaningless"
          (String.concat ", " srcs) t)
      collisions
