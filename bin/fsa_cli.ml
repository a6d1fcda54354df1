(* Command-line driver for functional security analysis.

   Mirrors the workflow of the SH verification tool as used in the paper:
   load a specification, compute the reachability graph, identify minima
   and maxima, test functional dependence by abstraction and derive
   authenticity requirements — plus the manual path over functional
   models, and the built-in scenarios of the paper. *)

open Cmdliner

module Action = Fsa_term.Action
module Lts = Fsa_lts.Lts
module Hom = Fsa_hom.Hom
module Analysis = Fsa_core.Analysis
module Sym = Fsa_sym.Sym

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  let doc = "Enable verbose logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Enable observability and write a JSON metrics dump to $(docv).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable observability and write Chrome trace-event JSON to \
                 $(docv) (open in chrome://tracing or Perfetto).")

let spec_arg =
  let doc = "Specification file (.fsa)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)

(* Exit codes: 0 clean, 1 analysis failure / findings, 2 the input does
   not even parse or elaborate. *)
let parse_exit = 2

let die_loc ~file loc msg =
  Fmt.epr "fsa: %s: %a@." file Fsa_spec.Loc.pp_exn (loc, msg);
  exit parse_exit

let parse_spec path =
  try Ok (Fsa_spec.Parser.parse_file path) with
  | Fsa_spec.Loc.Error (loc, msg) -> Error (`Parse (loc, msg))
  | Sys_error msg -> Error (`Sys msg)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Fmt.epr "fsa: %s@." msg;
    exit 1

(* usage-level failure (bad invocation, unknown name/format): same exit
   code as a spec that does not parse, distinct from analysis findings *)
let die_usage msg =
  Fmt.epr "fsa: %s@." msg;
  exit parse_exit

let load_spec path =
  match parse_spec path with
  | Ok spec -> spec
  | Error (`Parse (loc, msg)) -> die_loc ~file:path loc msg
  | Error (`Sys msg) -> or_die (Error msg)

let write_or_print ~out content =
  match out with
  | None -> print_string content
  | Some path -> (
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc content);
      Fmt.pr "wrote %s@." path
    with Sys_error msg ->
      (* the message names the offending path *)
      or_die (Error msg))

(* Atomic [--out] writes, matching the store's temp+rename convention: a
   crash mid-write never leaves a truncated file at the target path, and
   a concurrent reader sees either the old content or the new, never a
   prefix. *)
let write_atomic ~path content =
  let tmp =
    Filename.concat
      (Filename.dirname path)
      (Printf.sprintf ".%s.tmp.%d" (Filename.basename path) (Unix.getpid ()))
  in
  try
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content);
    Sys.rename tmp path;
    Fmt.epr "wrote %s@." path
  with Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    or_die (Error msg)

let write_out ~out content =
  match out with None -> print_string content | Some path -> write_atomic ~path content

(* Observability plumbing: either output flag switches the process-wide
   registry on; the dumps are written even if the command dies halfway
   through, so a long exploration that hits the state bound still leaves a
   usable trace behind. *)
let with_obs ~metrics_out ~trace_out f =
  let wanted = metrics_out <> None || trace_out <> None in
  if not wanted then f ()
  else begin
    Fsa_obs.Metrics.reset ();
    Fsa_obs.Span.reset ();
    Fsa_obs.Recorder.reset ();
    Fsa_obs.Metrics.set_enabled true;
    let dump () =
      Fsa_obs.Metrics.set_enabled false;
      try
        Option.iter
          (fun path ->
            write_or_print ~out:(Some path) (Fsa_obs.Metrics.to_json ()))
          metrics_out;
        Option.iter
          (fun path ->
            write_or_print ~out:(Some path) (Fsa_obs.Span.to_chrome_json ()))
          trace_out
      with Sys_error msg -> or_die (Error msg)
    in
    Fun.protect ~finally:dump f
  end

let elaborate_apa ~file spec =
  Fsa_obs.Span.with_ ~cat:"core" "elaborate" @@ fun () ->
  try Fsa_spec.Elaborate.apa_of_spec spec with
  | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file loc msg
  | Invalid_argument msg -> die_usage msg

let explore_progress spec_path =
  Fsa_obs.Progress.stderr_reporter
    ~label:(Filename.remove_extension (Filename.basename spec_path))
    ()

(* --------------------------------------------------------------- *)
(* Result cache plumbing                                            *)
(* --------------------------------------------------------------- *)

module Server = Fsa_server.Server

module Exec = Server.Exec

let max_states_arg =
  Arg.(value & opt int Exec.defaults.max_states
       & info [ "max-states" ] ~docv:"N"
           ~doc:"State bound (per request under $(b,serve), per file \
                 under $(b,batch)).")

let meth_conv =
  let parse s =
    match Exec.meth_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown method %S (direct|abstract)" s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Exec.meth_to_string m))

let reduce_conv =
  let parse s =
    match Sym.kind_of_string s with
    | Some k -> Ok k
    | None ->
      Error (`Msg (Printf.sprintf "unknown reduction %S (sym|por|sym+por)" s))
  in
  let print ppf k = Fmt.string ppf (Sym.kind_to_string k) in
  Arg.conv (parse, print)

let meth_arg =
  Arg.(value & opt meth_conv Exec.defaults.meth
       & info [ "method" ] ~doc:"Dependence test: direct or abstract.")

let flow_arg =
  Arg.(value & flag
       & info [ "prune-flow" ]
           ~doc:"Skip the dependence test for action pairs the static \
                 information-flow analysis (taint reachability over the \
                 guard-refined def-use graph, see $(b,fsa flow)) proves \
                 independent. Sound: the derived requirements are \
                 identical to an unpruned run; the pruned pairs are \
                 attributed static-flow in the report coverage.")

let reduce_arg =
  Arg.(value & opt (some reduce_conv) None
       & info [ "reduce" ] ~docv:"KIND"
           ~doc:"Explore under reduction: $(b,sym) (component-permutation \
                 symmetry: interchangeable instances are explored once per \
                 orbit), $(b,por) (ample-set partial-order reduction over \
                 static interference modules) or $(b,sym+por). Sound: the \
                 derived requirement set is identical to an unreduced run; \
                 models with custom action labels fall back to unreduced \
                 exploration. See $(b,fsa sym) for the detected orbits.")

(* [sos] reads differently where it selects the manual path. *)
let sos_arg op =
  let doc =
    match op with
    | Exec.Report ->
      "Report on the named sos declaration (manual path) instead of the \
       elaborated APA model."
    | _ -> "Analyse only the named sos declaration."
  in
  Arg.(value & opt (some string) None & info [ "sos" ] ~docv:"NAME" ~doc)

let keep_arg =
  Arg.(non_empty & opt (list string) []
       & info [ "keep" ] ~docv:"ACTIONS"
           ~doc:"Comma-separated transition names the homomorphism preserves.")

(* One flag per [Exec.params] field, as a setter of that field. *)
let field_arg op : Exec.field -> (Exec.params -> Exec.params) Term.t =
  let set f arg = Term.(const f $ arg) in
  function
  | Exec.Meth -> set (fun meth p -> { p with Exec.meth }) meth_arg
  | Exec.Max_states ->
    set (fun max_states p -> { p with Exec.max_states }) max_states_arg
  | Exec.Flow -> set (fun flow p -> { p with Exec.flow }) flow_arg
  | Exec.Reduce -> set (fun reduce p -> { p with Exec.reduce }) reduce_arg
  | Exec.Sos -> set (fun sos p -> { p with Exec.sos }) (sos_arg op)
  | Exec.Keep -> set (fun keep p -> { p with Exec.keep = Some keep }) keep_arg

(* The flags of [op]'s subcommand: one per field [Exec.fields] says the
   op honours, except those in [without]; every other field keeps its
   default. *)
let params_term ?(without = []) op =
  List.fold_left
    (fun acc f ->
      if List.mem f without then acc
      else Term.(const (fun p set -> set p) $ acc $ field_arg op f))
    (Term.const Exec.defaults) (Exec.fields op)

let cache_arg =
  Arg.(value & flag
       & info [ "cache" ]
           ~doc:"Reuse (and populate) the content-addressed result cache.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Bypass the result cache even where it is on by default.")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Cache directory (implies $(b,--cache); default \
                 \\$FSA_CACHE_DIR, else \\$XDG_CACHE_HOME/fsa).")

let open_store ~cache ~no_cache ~cache_dir =
  let enabled = (cache || cache_dir <> None) && not no_cache in
  if not enabled then None
  else
    let dir =
      match cache_dir with
      | Some dir -> dir
      | None -> Fsa_store.Store.default_dir ()
    in
    match Fsa_store.Store.open_ ~dir () with
    | store -> Some store
    | exception Sys_error msg -> or_die (Error msg)

(* The --cache, --no-cache and --cache-dir flags of the cached
   subcommands; the store opens when the command asks for it, after
   the spec has loaded. *)
let store_arg =
  Term.(const (fun cache no_cache cache_dir () ->
            open_store ~cache ~no_cache ~cache_dir)
        $ cache_arg $ no_cache_arg $ cache_dir_arg)

(* Run one analysis through [Exec.exec] — cache-aware when the store
   flags open one — mapping analysis-level failures to the CLI's
   exit-code conventions. *)
let exec ?stakeholder ?progress ~store ~file op p spec =
  let cfg = Server.config ?store:(store ()) ?stakeholder () in
  match Exec.exec cfg ~op ?progress ~file p spec with
  | outcome -> outcome
  | exception Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file loc msg
  | exception Server.Usage_error msg -> die_usage msg
  | exception Server.Too_large (n, hint) ->
    or_die
      (Error
         (Printf.sprintf "state space exceeds the bound of %d states%s" n
            hint))

(* Print an outcome's human report; on a hit the marker goes to stderr
   so stdout stays byte-identical to a fresh run. *)
let print_outcome outcome =
  if outcome.Exec.oc_cached then Fmt.epr "(cached)@.";
  print_string outcome.Exec.oc_output;
  outcome

let result_json outcome = Fsa_store.Json.to_string outcome.Exec.oc_result ^ "\n"

let out_json_arg =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the structured JSON result to $(docv) (atomic \
                 temp+rename write); the human report still goes to stdout.")

let write_result ~out outcome =
  Option.iter (fun path -> write_atomic ~path (result_json outcome)) out

(* --------------------------------------------------------------- *)
(* fsa reach                                                        *)
(* --------------------------------------------------------------- *)

let reach_cmd =
  let run verbose spec_path p dot_out store metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let spec = load_spec spec_path in
    let progress = explore_progress spec_path in
    match dot_out with
    | Some path ->
      (* the DOT export needs the graph itself: bypass the cache *)
      let apa = elaborate_apa ~file:spec_path spec in
      let max_states = p.Exec.max_states in
      let lts =
        match p.Exec.reduce with
        | None -> Lts.explore ~max_states ~progress apa
        | Some kind ->
          let sigs = Fsa_spec.Elaborate.guard_signatures spec in
          let pl =
            Sym.plan ~guard_sig:(fun r -> List.assoc_opt r sigs) kind apa
          in
          Analysis.quotient ~max_states ~progress pl apa
      in
      Fmt.pr "%a@." Lts.pp_stats (Lts.stats lts);
      Fmt.pr "%a@." Lts.pp_min_max lts;
      write_or_print ~out:(Some path) (Lts.dot lts)
    | None ->
      ignore
        (print_outcome
           (exec ~progress ~store ~file:spec_path Exec.Reach p spec))
  in
  let dot_out =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write the reachability graph as DOT.")
  in
  Cmd.v
    (Cmd.info "reach" ~doc:"Compute the reachability graph of a specification's APA model.")
    Term.(const run $ verbose_arg $ spec_arg $ params_term Exec.Reach
          $ dot_out $ store_arg $ metrics_out_arg $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa requirements                                                 *)
(* --------------------------------------------------------------- *)

let requirements_cmd =
  let run verbose spec_path p out store metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let spec = load_spec spec_path in
    print_outcome
      (exec ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder
         ~progress:(explore_progress spec_path) ~store ~file:spec_path
         Exec.Requirements p spec)
    |> write_result ~out
  in
  Cmd.v
    (Cmd.info "requirements"
       ~doc:"Derive authenticity requirements from a specification's APA model (tool path).")
    Term.(const run $ verbose_arg $ spec_arg $ params_term Exec.Requirements
          $ out_json_arg $ store_arg $ metrics_out_arg $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa analyze (manual path over sos declarations)                  *)
(* --------------------------------------------------------------- *)

let analyze_cmd =
  let run verbose spec_path p store metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let spec = load_spec spec_path in
    (* advisory static pass first: findings go to stderr and never block
       the analysis (use `fsa check` for a gating run) *)
    (match Fsa_check.Check.spec ~file:spec_path spec with
    | [] -> ()
    | ds -> List.iter (fun d -> Fmt.epr "%a@." Fsa_check.Diagnostic.pp d) ds);
    ignore (print_outcome (exec ~store ~file:spec_path Exec.Analyze p spec))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Derive authenticity requirements from functional models (manual path).")
    Term.(const run $ verbose_arg $ spec_arg $ params_term Exec.Analyze
          $ store_arg $ metrics_out_arg $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa abstract                                                     *)
(* --------------------------------------------------------------- *)

let abstract_cmd =
  let run verbose spec_path p rename dot_out out store =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let keep = Option.value p.Exec.keep ~default:[] in
    let apa = elaborate_apa ~file:spec_path spec in
    let rename_pairs =
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i when i > 0 && i < String.length kv - 1 ->
            ( String.sub kv 0 i,
              String.sub kv (i + 1) (String.length kv - i - 1) )
          | _ ->
            die_usage (Printf.sprintf "bad rename %S (expected OLD=NEW)" kv))
        rename
    in
    (* validate the keep set and rename map before paying for the
       exploration: a non-injective rename map (FSA036) would silently
       merge distinct actions and poison every dependence verdict *)
    (match
       Fsa_check.Check.keep_set ~file:spec_path
         ~alphabet:(Fsa_apa.Apa.rule_names apa) keep
       @ Fsa_check.Check.rename_map ~file:spec_path ~alphabet:keep
           rename_pairs
     with
    | [] -> ()
    | ds ->
      List.iter (fun d -> Fmt.epr "%a@." Fsa_check.Diagnostic.pp d) ds;
      if Fsa_check.Diagnostic.has_errors ds then exit 1);
    (* the structured JSON result exists only on the cached executor
       path; the DOT/rename bypass renders directly *)
    (match (out, dot_out, rename_pairs) with
    | Some _, Some _, _ | Some _, None, _ :: _ ->
      die_usage "--out cannot be combined with --dot or --rename"
    | _ -> ());
    match (dot_out, rename_pairs) with
    | Some _, _ | None, _ :: _ ->
      (* DOT export needs the automaton itself and the cached executor
         knows nothing of renamings: bypass the cache *)
      let lts = Lts.explore ~max_states:p.Exec.max_states apa in
      let actions = List.map Action.make keep in
      let h =
        match rename_pairs with
        | [] -> Hom.preserve actions
        | ps ->
          Hom.compose
            (Hom.rename
               (List.map (fun (a, b) -> (Action.make a, Action.make b)) ps))
            (Hom.preserve actions)
      in
      let dfa = Hom.minimal_automaton h lts in
      Fmt.pr "minimal automaton: %s@." (Hom.describe_dfa dfa);
      Fmt.pr "homomorphism simple on this behaviour: %b@."
        (Hom.is_simple h lts);
      (match actions with
      | [ mn; mx ] ->
        (* the dependence verdict lives in the image: test the renamed
           pair on the image automaton (labels outside the pair traverse
           freely, exactly as erasing them would) *)
        let img a = Option.value (h a) ~default:a in
        Fmt.pr "functional dependence %a -> %a: %b@." Action.pp (img mn)
          Action.pp (img mx)
          (not
             (Hom.dfa_has_target_before_avoid dfa ~avoid:(img mn)
                ~target:(img mx)))
      | _ -> ());
      Option.iter
        (fun path -> write_or_print ~out:(Some path) (Hom.A.Dfa.dot dfa))
        dot_out
    | None, [] ->
      print_outcome (exec ~store ~file:spec_path Exec.Abstract p spec)
      |> write_result ~out
  in
  let rename =
    Arg.(value & opt (list string) []
         & info [ "rename" ] ~docv:"OLD=NEW,..."
             ~doc:"Comma-separated renamings applied after $(b,--keep): the \
                   homomorphism maps OLD to NEW instead of keeping it \
                   unchanged. The map must stay injective on the kept \
                   alphabet — merges are rejected as FSA036.")
  in
  let dot_out =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write the minimal automaton as DOT.")
  in
  Cmd.v
    (Cmd.info "abstract"
       ~doc:"Compute the minimal automaton of a homomorphic image (Sect. 5.5).")
    Term.(const run $ verbose_arg $ spec_arg
          $ params_term ~without:[ Exec.Max_states ] Exec.Abstract
          $ rename $ dot_out $ out_json_arg $ store_arg)

(* --------------------------------------------------------------- *)
(* fsa scenario                                                     *)
(* --------------------------------------------------------------- *)

let scenario_cmd =
  let run verbose name =
    setup_logs verbose;
    match name with
    | "two-vehicles" ->
      let report =
        Analysis.tool ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder
          (Fsa_vanet.Vehicle_apa.two_vehicles ())
      in
      Fmt.pr "%a@." Analysis.pp_tool_report report
    | "four-vehicles" ->
      let report =
        Analysis.tool ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder
          (Fsa_vanet.Vehicle_apa.four_vehicles ())
      in
      Fmt.pr "%a@." Analysis.pp_tool_report report
    | "rsu" ->
      Fmt.pr "%a@." Analysis.pp_manual_report
        (Analysis.manual Fsa_vanet.Scenario.rsu_and_vehicle)
    | "fig3" ->
      Fmt.pr "%a@." Analysis.pp_manual_report
        (Analysis.manual Fsa_vanet.Scenario.two_vehicles)
    | "fig4" ->
      Fmt.pr "%a@." Analysis.pp_manual_report
        (Analysis.manual Fsa_vanet.Scenario.three_vehicles)
    | "evita" ->
      Fmt.pr "paper:    %a@." Fsa_vanet.Evita.pp_profile
        Fsa_vanet.Evita.paper_profile;
      Fmt.pr "measured: %a@." Fsa_vanet.Evita.pp_profile
        (Fsa_vanet.Evita.measured_profile ())
    | "grid" ->
      let report =
        Analysis.tool ~stakeholder:Fsa_grid.Grid_apa.stakeholder
          (Fsa_grid.Grid_apa.demand_response ())
      in
      Fmt.pr "%a@." Analysis.pp_tool_report report
    | "platoon" ->
      Fmt.pr "%a@." Analysis.pp_manual_report
        (Analysis.manual ~stakeholder:Fsa_vanet.Platoon.stakeholder
           (Fsa_vanet.Platoon.round ()))
    | s ->
      Fmt.epr
        "fsa: unknown scenario %S \
         (two-vehicles|four-vehicles|rsu|fig3|fig4|evita|grid|platoon)@."
        s;
      exit parse_exit
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:"Built-in scenario: two-vehicles, four-vehicles, rsu, fig3, \
                   fig4, evita, grid or platoon.")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a built-in scenario from the paper.")
    Term.(const run $ verbose_arg $ name_arg)

(* --------------------------------------------------------------- *)
(* fsa dot                                                          *)
(* --------------------------------------------------------------- *)

let dot_cmd =
  let run verbose spec_path sos_name out =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let sos =
      try
        match sos_name with
        | Some name -> Fsa_spec.Elaborate.sos_of_spec spec name
        | None -> (
          match Fsa_spec.Elaborate.sos_list spec with
          | [ sos ] -> sos
          | [] -> die_usage "the specification declares no sos"
          | _ -> die_usage "several sos declarations; pick one with --sos")
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    write_or_print ~out (Fsa_model.Sos.dot sos)
  in
  let sos_name =
    Arg.(value & opt (some string) None
         & info [ "sos" ] ~docv:"NAME" ~doc:"The sos declaration to render.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a functional flow graph as DOT.")
    Term.(const run $ verbose_arg $ spec_arg $ sos_name $ out)

(* --------------------------------------------------------------- *)
(* fsa conf                                                         *)
(* --------------------------------------------------------------- *)

let conf_cmd =
  let run verbose spec_path sos_name confidential =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let soses =
      try
        match sos_name with
        | Some name -> [ Fsa_spec.Elaborate.sos_of_spec spec name ]
        | None -> Fsa_spec.Elaborate.sos_list spec
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    if soses = [] then die_usage "the specification declares no sos";
    let module Conf = Fsa_requirements.Confidentiality in
    let labelling =
      match confidential with
      | [] -> Conf.default_labelling
      | labels ->
        { Conf.default_labelling with
          Conf.source_level =
            (fun a ->
              if List.mem (Action.label a) labels then Conf.Confidential
              else Conf.Public) }
    in
    let threshold =
      match confidential with [] -> Conf.Internal | _ :: _ -> Conf.Confidential
    in
    List.iter
      (fun sos ->
        Fmt.pr "== confidentiality analysis: %s ==@." (Fsa_model.Sos.name sos);
        Fmt.pr "%a@." Conf.pp_set (Conf.derive ~labelling ~threshold sos);
        match Conf.violations ~labelling sos with
        | [] -> Fmt.pr "no clearance violations@."
        | vs -> List.iter (fun v -> Fmt.pr "violation: %a@." Conf.pp_violation v) vs)
      soses
  in
  let sos_name =
    Arg.(value & opt (some string) None
         & info [ "sos" ] ~docv:"NAME" ~doc:"Analyse only the named sos declaration.")
  in
  let confidential =
    Arg.(value & opt (list string) []
         & info [ "confidential" ] ~docv:"ACTIONS"
             ~doc:"Comma-separated input action labels classified confidential.")
  in
  Cmd.v
    (Cmd.info "conf"
       ~doc:"Derive confidentiality requirements (forward information-flow analysis).")
    Term.(const run $ verbose_arg $ spec_arg $ sos_name $ confidential)

(* --------------------------------------------------------------- *)
(* fsa simulate                                                     *)
(* --------------------------------------------------------------- *)

let simulate_cmd =
  let run verbose spec_path seed monitor =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let apa = elaborate_apa ~file:spec_path spec in
    let sim = Fsa_sim.Sim.create ~seed apa in
    if monitor then begin
      let report =
        Analysis.tool ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder apa
      in
      Fsa_sim.Sim.attach_monitor sim report.Analysis.t_requirements
    end;
    Fmt.pr "fsa simulator — %d transitions enabled, 'help' for commands@."
      (List.length (Fsa_sim.Sim.enabled sim));
    let rec loop () =
      Fmt.pr "> %!";
      match In_channel.input_line stdin with
      | None -> ()
      | Some line -> (
        match Fsa_sim.Sim.parse_command line with
        | Error msg ->
          Fmt.pr "error: %s@." msg;
          loop ()
        | Ok cmd -> (
          match Fsa_sim.Sim.execute sim cmd with
          | `Output s ->
            Fmt.pr "%s@." s;
            loop ()
          | `Quit -> ()))
    in
    loop ()
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random-walk seed.")
  in
  let monitor =
    Arg.(value & flag
         & info [ "monitor" ]
             ~doc:"Attach runtime monitors for the derived requirements.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Interactively execute a specification's APA model (reads commands from stdin).")
    Term.(const run $ verbose_arg $ spec_arg $ seed $ monitor)

(* --------------------------------------------------------------- *)
(* fsa export                                                       *)
(* --------------------------------------------------------------- *)

let export_cmd =
  let run verbose spec_path sos_name format out =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let sos =
      try
        match sos_name with
        | Some name -> Fsa_spec.Elaborate.sos_of_spec spec name
        | None -> (
          match Fsa_spec.Elaborate.sos_list spec with
          | [ sos ] -> sos
          | [] -> die_usage "the specification declares no sos"
          | _ -> die_usage "several sos declarations; pick one with --sos")
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    let reqs = Fsa_requirements.Derive.of_sos sos in
    let classify = Fsa_requirements.Classify.classify sos in
    let content =
      match format with
      | "json" -> Fsa_requirements.Export.to_json ~classify reqs
      | "csv" -> Fsa_requirements.Export.to_csv ~classify reqs
      | "md" | "markdown" -> Fsa_requirements.Export.to_markdown ~classify reqs
      | f -> die_usage (Printf.sprintf "unknown format %S (json|csv|md)" f)
    in
    write_or_print ~out content
  in
  let sos_name =
    Arg.(value & opt (some string) None
         & info [ "sos" ] ~docv:"NAME" ~doc:"The sos declaration to export.")
  in
  let format =
    Arg.(value & opt string "json"
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: json, csv or md.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout by default).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export derived requirements as JSON, CSV or Markdown.")
    Term.(const run $ verbose_arg $ spec_arg $ sos_name $ format $ out)

(* --------------------------------------------------------------- *)
(* fsa refine                                                       *)
(* --------------------------------------------------------------- *)

let refine_cmd =
  let run verbose spec_path sos_name cause effect threat =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let sos =
      try
        match sos_name with
        | Some name -> Fsa_spec.Elaborate.sos_of_spec spec name
        | None -> (
          match Fsa_spec.Elaborate.sos_list spec with
          | [ sos ] -> sos
          | [] -> die_usage "the specification declares no sos"
          | _ -> die_usage "several sos declarations; pick one with --sos")
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    let reqs = Fsa_requirements.Derive.of_sos sos in
    let selected =
      List.filter
        (fun r ->
          (match cause with
          | Some c -> Action.label (Fsa_requirements.Auth.cause r) = c
          | None -> true)
          &&
          match effect with
          | Some e -> Action.label (Fsa_requirements.Auth.effect r) = e
          | None -> true)
        reqs
    in
    if selected = [] then or_die (Error "no requirement matches the filter");
    List.iter
      (fun req ->
        Fmt.pr "%a@.@." Fsa_refine.Refine.pp_plan
          (Fsa_refine.Refine.plan sos req);
        if threat then
          Fmt.pr "%a@." Fsa_refine.Threat.pp_tree
            (Fsa_refine.Threat.of_requirement sos req))
      selected
  in
  let sos_name =
    Arg.(value & opt (some string) None
         & info [ "sos" ] ~docv:"NAME" ~doc:"The sos declaration to refine against.")
  in
  let cause =
    Arg.(value & opt (some string) None
         & info [ "cause" ] ~docv:"LABEL" ~doc:"Only requirements with this cause label.")
  in
  let effect =
    Arg.(value & opt (some string) None
         & info [ "effect" ] ~docv:"LABEL" ~doc:"Only requirements with this effect label.")
  in
  let threat =
    Arg.(value & flag
         & info [ "threat" ] ~doc:"Also print the generated threat trees.")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Compute protection options (paths, attack surface, minimum cut) per requirement.")
    Term.(const run $ verbose_arg $ spec_arg $ sos_name $ cause $ effect $ threat)

(* --------------------------------------------------------------- *)
(* fsa check (static analysis)                                      *)
(* --------------------------------------------------------------- *)

let check_cmd =
  let run verbose spec_paths format werror deep budget metrics_out trace_out =
    setup_logs verbose;
    (* compute the exit code inside [with_obs] but call [exit] outside
       it: [Stdlib.exit] does not unwind [Fun.protect], so an exit in
       the body would skip the metrics/trace dumps *)
    let code =
      with_obs ~metrics_out ~trace_out @@ fun () ->
      let module D = Fsa_check.Diagnostic in
      let diagnostics =
        List.concat_map
          (fun path ->
            match parse_spec path with
            | Ok spec -> Fsa_check.Check.spec ~file:path ~deep ?budget spec
            | Error (`Parse (loc, msg)) ->
              [ D.error ~file:path ~loc ~code:"FSA000" "%s" msg ]
            | Error (`Sys msg) -> or_die (Error msg))
          spec_paths
      in
      let diagnostics =
        if werror then D.promote_warnings diagnostics else diagnostics
      in
      (match format with
      | `Json -> print_string (D.render_json diagnostics)
      | `Text ->
        let sources =
          List.filter_map
            (fun path ->
              try
                Some (path, In_channel.with_open_bin path In_channel.input_all)
              with Sys_error _ -> None)
            spec_paths
        in
        print_string (D.render_text ~sources diagnostics));
      if List.exists (fun d -> d.D.code = "FSA000") diagnostics then
        parse_exit
      else if D.has_errors diagnostics then 1
      else 0
    in
    if code <> 0 then exit code
  in
  let specs_arg =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"SPEC" ~doc:"Specification files (.fsa).")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let werror_arg =
    Arg.(value & flag
         & info [ "werror" ] ~doc:"Treat warnings as errors (notes are unaffected).")
  in
  let deep_arg =
    Arg.(value & flag
         & info [ "deep" ]
             ~doc:"Also run the structural analysis of the net skeleton: \
                   invariant bounds, unboundedness certificates, siphon/trap \
                   deadlock verdicts, static independence (FSA040-FSA048).")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N"
             ~doc:"Search-node budget for siphon/trap enumeration under \
                   $(b,--deep) (default 10000).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically analyse specifications without exploring the state \
             space: dead rules, unbound variables, APA races, unknown check \
             actions, modelling smells; $(b,--deep) adds structural \
             invariant, siphon and independence analysis.")
    Term.(const run $ verbose_arg $ specs_arg $ format_arg $ werror_arg
          $ deep_arg $ budget_arg $ metrics_out_arg $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa struct (structural analysis report)                          *)
(* --------------------------------------------------------------- *)

let struct_cmd =
  let run verbose spec_path format budget metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let module Structural = Fsa_struct.Structural in
    let spec = load_spec spec_path in
    let net =
      try
        Fsa_check.Check.net_of_skeleton
          (Fsa_spec.Elaborate.skeleton_of_spec spec)
      with Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
    in
    if net.Structural.n_places = [] then
      die_usage
        (Printf.sprintf "%s declares no state components to analyse"
           spec_path);
    let report = Structural.analyse ?budget net in
    match format with
    | `Json -> print_string (Structural.report_to_json report)
    | `Text -> Fmt.pr "%a@." Structural.pp_report report
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N"
             ~doc:"Search-node budget for siphon/trap enumeration \
                   (default 10000).")
  in
  Cmd.v
    (Cmd.info "struct"
       ~doc:"Structural analysis of a specification's net skeleton, \
             without exploring the state space: incidence matrix, place \
             and transition invariants, component bounds, siphons, traps, \
             deadlock verdict and static action independence.")
    Term.(const run $ verbose_arg $ spec_arg $ format_arg $ budget_arg
          $ metrics_out_arg $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa sym (symmetry orbits and reduction prognosis)                *)
(* --------------------------------------------------------------- *)

let sym_cmd =
  let run verbose spec_path format metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let spec = load_spec spec_path in
    let apa = elaborate_apa ~file:spec_path spec in
    let sigs = Fsa_spec.Elaborate.guard_signatures spec in
    let report =
      Sym.detect ~guard_sig:(fun r -> List.assoc_opt r sigs) apa
    in
    match format with
    | `Json -> print_string (Sym.report_to_json report)
    | `Text ->
      Fmt.pr "%a@." Sym.pp_report report;
      let modules =
        Sym.por_modules
          (Sym.por_plan apa (Fsa_struct.Structural.of_apa apa))
      in
      Fmt.pr "interference modules: %d (%d usable as ample sets)@."
        (List.length modules)
        (List.length (List.filter (fun m -> m.Sym.m_reducible) modules));
      let order = Sym.group_order report in
      if order > 1. then
        Fmt.pr "predicted reduction: up to %.0fx fewer states with \
                --reduce sym@."
          order
      else
        Fmt.pr "no reducible symmetry: --reduce sym explores the full \
                state space@."
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  Cmd.v
    (Cmd.info "sym"
       ~doc:"Detect component-permutation symmetry in a specification's \
             APA model without exploring the state space: instance \
             orbits, rejected candidate pairs, attested guards, \
             interference modules and the predicted reduction factor \
             for $(b,--reduce).")
    Term.(const run $ verbose_arg $ spec_arg $ format_arg $ metrics_out_arg
          $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa flow (static information-flow analysis)                      *)
(* --------------------------------------------------------------- *)

let flow_cmd =
  let run verbose spec_path format metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let module Flow = Fsa_flow.Flow in
    let spec = load_spec spec_path in
    let graph =
      try
        let sk = Fsa_spec.Elaborate.skeleton_of_spec spec in
        let apa = Fsa_spec.Elaborate.apa_of_spec spec in
        Flow.build ~attribution:(Fsa_check.Check.flow_attribution sk) apa
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    if Flow.rules graph = [] then
      die_usage
        (Printf.sprintf "%s declares no rules to analyse" spec_path);
    match format with
    | `Json -> print_string (Flow.report_to_json (Flow.analyse graph))
    | `Dot -> print_string (Flow.to_dot graph)
    | `Text -> Fmt.pr "%a@." Flow.pp_report (Flow.analyse graph)
  in
  let format_arg =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json); ("dot", `Dot) ])
             `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: text, json or dot (the def-use graph \
                   with guard-killed edges).")
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Static information-flow analysis of a specification's APA \
             model, without exploring the state space: the def-use flow \
             graph over rules and state components, guard-killed edges, \
             confidentiality leaks from protected components, \
             unsanitized cross-instance flows, dead attack surface, \
             unguarded flow cycles and the flow-independent action \
             pairs behind $(b,--prune-flow).")
    Term.(const run $ verbose_arg $ spec_arg $ format_arg $ metrics_out_arg
          $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa verify (behavioural check declarations)                      *)
(* --------------------------------------------------------------- *)

let verify_cmd =
  let run verbose spec_path p store =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let outcome =
      print_outcome (exec ~store ~file:spec_path Exec.Verify p spec)
    in
    if outcome.Exec.oc_exit <> 0 then begin
      (match Fsa_store.Json.member "failed" outcome.Exec.oc_result with
      | Some (Fsa_store.Json.Int n) ->
        Fmt.epr "fsa: %d check(s) failed@." n
      | _ -> ());
      exit outcome.Exec.oc_exit
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Evaluate a specification's check declarations against its \
             behaviour (explores the state space; see $(b,check) for the \
             static analysis).")
    Term.(const run $ verbose_arg $ spec_arg
          $ params_term ~without:[ Exec.Max_states ] Exec.Verify
          $ store_arg)

(* --------------------------------------------------------------- *)
(* fsa monitor                                                      *)
(* --------------------------------------------------------------- *)

let monitor_cmd =
  let run verbose spec_path trace_path =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let apa = elaborate_apa ~file:spec_path spec in
    let report =
      Analysis.tool ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder apa
    in
    let read_lines ic =
      let rec go acc =
        match In_channel.input_line ic with
        | Some line ->
          let line = String.trim line in
          go (if line = "" || line.[0] = '#' then acc else line :: acc)
        | None -> List.rev acc
      in
      go []
    in
    let lines =
      match trace_path with
      | Some path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_lines ic)
      | None -> read_lines stdin
    in
    let trace = List.map Action.make lines in
    let m = Fsa_mc.Monitor.of_requirements report.Analysis.t_requirements in
    List.iter (Fsa_mc.Monitor.step m) trace;
    Fmt.pr "%a@." Fsa_mc.Monitor.pp_report m;
    if not (Fsa_mc.Monitor.all_satisfied m) then exit 1
  in
  let trace_path =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Trace file, one transition name per line (stdin by default; \
                   blank lines and # comments ignored).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Verify a recorded trace against the derived authenticity requirements.")
    Term.(const run $ verbose_arg $ spec_arg $ trace_path)

(* --------------------------------------------------------------- *)
(* fsa report                                                       *)
(* --------------------------------------------------------------- *)

let report_cmd =
  let run verbose spec_path format out p store metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let spec = load_spec spec_path in
    let outcome =
      exec ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder
        ~progress:(explore_progress spec_path) ~store ~file:spec_path
        Exec.Report p spec
    in
    if outcome.Exec.oc_cached then Fmt.epr "(cached)@.";
    write_out ~out
      (match format with
      | `Md -> outcome.Exec.oc_output
      | `Json -> result_json outcome)
  in
  let format =
    Arg.(value
         & opt (enum [ ("md", `Md); ("markdown", `Md); ("json", `Json) ]) `Md
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,md) (default) or $(b,json) (the \
                   deterministic fsa-report/1 document).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out"; "output" ] ~docv:"FILE"
             ~doc:"Output file (atomic temp+rename write; stdout by \
                   default).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render the requirements report: stable SR-* identifiers, \
             provenance, traceability matrix, coverage and verification \
             tags (deterministic Markdown or JSON).")
    Term.(const run $ verbose_arg $ spec_arg $ format $ out
          $ params_term Exec.Report $ store_arg $ metrics_out_arg
          $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa lint                                                         *)
(* --------------------------------------------------------------- *)

let lint_cmd =
  let run verbose spec_path sos_name =
    setup_logs verbose;
    let spec = load_spec spec_path in
    let soses =
      try
        match sos_name with
        | Some name -> [ Fsa_spec.Elaborate.sos_of_spec spec name ]
        | None -> Fsa_spec.Elaborate.sos_list spec
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:spec_path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    if soses = [] then die_usage "the specification declares no sos";
    let had_errors = ref false in
    List.iter
      (fun sos ->
        let findings = Fsa_model.Lint.check sos in
        Fmt.pr "== lint: %s ==@.%a@." (Fsa_model.Sos.name sos)
          Fsa_model.Lint.pp_report findings;
        if List.exists (fun w -> Fsa_model.Lint.severity w = `Error) findings
        then had_errors := true)
      soses;
    if !had_errors then exit 1
  in
  let sos_name =
    Arg.(value & opt (some string) None
         & info [ "sos" ] ~docv:"NAME" ~doc:"Lint only the named sos declaration.")
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Check a functional model for modelling smells.")
    Term.(const run $ verbose_arg $ spec_arg $ sos_name)

(* --------------------------------------------------------------- *)
(* fsa diff                                                         *)
(* --------------------------------------------------------------- *)

let diff_cmd =
  let run verbose before_path after_path sos_name =
    setup_logs verbose;
    let load path =
      let spec = load_spec path in
      try
        match sos_name with
        | Some name -> Fsa_spec.Elaborate.sos_of_spec spec name
        | None -> (
          match Fsa_spec.Elaborate.sos_list spec with
          | [ sos ] -> sos
          | [] -> die_usage (path ^ ": the specification declares no sos")
          | _ ->
            die_usage
              (path ^ ": several sos declarations; pick one with --sos"))
      with
      | Fsa_spec.Loc.Error (loc, msg) -> die_loc ~file:path loc msg
      | Invalid_argument msg -> die_usage msg
    in
    let before = load before_path and after = load after_path in
    let d = Fsa_requirements.Diff.compare_models ~before ~after () in
    Fmt.pr "%a@." Fsa_requirements.Diff.pp d;
    if not (Fsa_requirements.Diff.is_neutral d) then exit 1
  in
  let before_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE" ~doc:"Old specification.")
  in
  let after_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER" ~doc:"New specification.")
  in
  let sos_name =
    Arg.(value & opt (some string) None
         & info [ "sos" ] ~docv:"NAME" ~doc:"The sos declaration to compare.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Change-impact analysis: requirement differences between two model versions.")
    Term.(const run $ verbose_arg $ before_arg $ after_arg $ sos_name)

(* --------------------------------------------------------------- *)
(* fsa serve                                                        *)
(* --------------------------------------------------------------- *)

let op_names = List.map Exec.op_to_string Exec.all_ops

(* "a, b or c" *)
let or_list names =
  match List.rev names with
  | last :: (_ :: _ as rest) ->
    String.concat ", " (List.rev rest) ^ " or " ^ last
  | _ -> String.concat "" names

let serve_cmd =
  let run verbose socket workers timeout_ms max_states no_cache cache_dir
      flight_dir slow_ms metrics_out trace_out =
    setup_logs verbose;
    with_obs ~metrics_out ~trace_out @@ fun () ->
    (* a daemon always collects metrics, whether or not it dumps them on
       exit: the [stats] op serves them live *)
    Fsa_obs.Metrics.set_enabled true;
    (* the daemon caches by default; --no-cache switches it off *)
    let store = open_store ~cache:true ~no_cache ~cache_dir in
    let cfg =
      Server.config ~workers ~max_states ~timeout_ms ?store ?flight_dir
        ~slow_ms
        ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder ()
    in
    let stop _ = Server.request_shutdown () in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    match socket with
    | Some path -> Server.serve_unix_socket cfg ~path
    | None -> Server.serve_channels cfg ~fd_in:Unix.stdin stdout
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve on a Unix-domain socket instead of stdin/stdout.")
  in
  let workers =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains handling requests in parallel.")
  in
  let timeout_ms =
    Arg.(value & opt int 0
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request wall-clock budget (0 = unlimited).")
  in
  let flight_dir =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:"Dump the flight recorder to $(docv)/<trace_id>.json \
                   for every request that ends in a timeout, too_large \
                   or internal error.")
  in
  let slow_ms =
    Arg.(value & opt float 0.
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log requests slower than $(docv) milliseconds and \
                   record them as slow events (0 = off).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         (Printf.sprintf
            "Serve analysis requests as newline-delimited JSON, one \
             request per line (op: %s), from stdin or a Unix-domain \
             socket.  SIGTERM drains in-flight requests and exits.  \
             $(b,fsa stats) queries a running daemon."
            (or_list (op_names @ [ "stats" ]))))
    Term.(const run $ verbose_arg $ socket $ workers $ timeout_ms
          $ max_states_arg $ no_cache_arg $ cache_dir_arg $ flight_dir
          $ slow_ms $ metrics_out_arg $ trace_out_arg)

(* --------------------------------------------------------------- *)
(* fsa batch                                                        *)
(* --------------------------------------------------------------- *)

let batch_cmd =
  let run verbose op_name jobs max_states timeout_ms no_cache cache_dir
      metrics_out trace_out spec_paths =
    setup_logs verbose;
    (* resolve the op before entering [with_obs], and exit after leaving
       it: [die_usage] and [exit] do not unwind [Fun.protect], so either
       one inside the body would skip the metrics/trace dumps *)
    let op =
      match Exec.op_of_string op_name with
      | Some op -> op
      | None ->
        die_usage
          (Printf.sprintf "unknown op %S (%s)" op_name
             (String.concat "|" op_names))
    in
    let code =
      with_obs ~metrics_out ~trace_out @@ fun () ->
      (* batch runs cache by default; --no-cache switches it off *)
      let store = open_store ~cache:true ~no_cache ~cache_dir in
      let cfg =
        Server.config ~max_states ~timeout_ms ?store
          ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder ()
      in
      Server.Batch.run cfg ~op ~jobs spec_paths
    in
    exit code
  in
  let op_name =
    Arg.(value & opt string "requirements"
         & info [ "op" ] ~docv:"OP"
             ~doc:("Analysis to run over each file: " ^ or_list op_names ^ "."))
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Analyse $(docv) files in parallel, one domain each.")
  in
  let timeout_ms =
    Arg.(value & opt int 0
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-file wall-clock budget (0 = unlimited).")
  in
  let specs_arg =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"SPEC" ~doc:"Specification files (.fsa).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run one analysis over many specification files in parallel, \
             cache-aware; prints one JSON result line per file, in input \
             order.")
    Term.(const run $ verbose_arg $ op_name $ jobs $ max_states_arg
          $ timeout_ms $ no_cache_arg $ cache_dir_arg $ metrics_out_arg
          $ trace_out_arg $ specs_arg)

(* --------------------------------------------------------------- *)
(* fsa stats (live daemon introspection)                            *)
(* --------------------------------------------------------------- *)

let stats_cmd =
  let module Json = Fsa_store.Json in
  (* numeric members arrive as Int or Float depending on their value *)
  let num j k =
    match Option.bind j (Json.member k) with
    | Some (Json.Int i) -> float_of_int i
    | Some (Json.Float f) -> f
    | _ -> 0.
  in
  let int j k = int_of_float (num j k) in
  let bool j k =
    match Option.bind j (Json.member k) with
    | Some (Json.Bool b) -> b
    | _ -> false
  in
  let str j k =
    Option.value ~default:""
      (Option.bind (Option.bind j (Json.member k)) Json.to_str)
  in
  let render_text result =
    let latency = Json.member "latency_ms" result in
    Fmt.pr "latency_ms  p50 %.3f  p90 %.3f  p99 %.3f  (%d requests)@."
      (num latency "p50") (num latency "p90") (num latency "p99")
      (int latency "count");
    Fmt.pr "queue_depth %d@."
      (int (Some result) "queue_depth");
    (match Option.bind (Json.member "workers" result) Json.to_list with
    | None | Some [] -> ()
    | Some workers ->
      List.iteri
        (fun i w ->
          let w = Some w in
          if bool w "busy" then
            Fmt.pr "worker %d    domain %d  busy %s trace=%s for %.1f ms  \
                    (%d handled)@."
              i (int w "domain") (str w "op") (str w "trace_id")
              (num w "for_ms") (int w "handled")
          else
            Fmt.pr "worker %d    domain %d  idle  (%d handled)@." i
              (int w "domain") (int w "handled"))
        workers);
    (match Json.member "store" result with
    | None | Some Json.Null -> Fmt.pr "store       disabled@."
    | Some store ->
      let store = Some store in
      Fmt.pr "store       %s  %d entries, %d bytes@." (str store "dir")
        (int store "entries") (int store "bytes"));
    let rec_ = Json.member "recorder" result in
    Fmt.pr "recorder    %d/%d events held, %d dropped@." (int rec_ "size")
      (int rec_ "capacity") (int rec_ "dropped")
  in
  let run socket format =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect sock (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       or_die
         (Error
            (Printf.sprintf "%s: cannot connect (%s) — is the daemon \
                             running with --socket?"
               socket (Unix.error_message e))));
    let ic = Unix.in_channel_of_descr sock in
    let oc = Unix.out_channel_of_descr sock in
    output_string oc "{\"id\":\"stats\",\"op\":\"stats\"}\n";
    flush oc;
    let line =
      match input_line ic with
      | line -> line
      | exception End_of_file ->
        or_die (Error "server closed the connection without replying")
    in
    (try Unix.close sock with Unix.Unix_error _ -> ());
    match format with
    | `Json -> print_endline line
    | (`Text | `Prom) as format -> (
      match Json.parse line with
      | Error msg -> or_die (Error ("malformed response: " ^ msg))
      | Ok resp ->
        if Json.member "ok" resp <> Some (Json.Bool true) then
          or_die (Error ("server error: " ^ line));
        let result =
          Option.value ~default:Json.Null (Json.member "result" resp)
        in
        (match format with
        | `Prom -> (
          match Option.bind (Json.member "prometheus" result) Json.to_str with
          | Some text -> print_string text
          | None -> or_die (Error "response carries no prometheus payload"))
        | `Text -> render_text result))
  in
  let socket =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket of the running daemon.")
  in
  let format_arg =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json); ("prom", `Prom) ])
             `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: text (human summary), json (the raw \
                   response line) or prom (Prometheus text exposition).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Query a running $(b,fsa serve) daemon for live statistics: \
             latency quantiles, queue depth, per-worker in-flight state, \
             cache occupancy, flight-recorder fill and the full metrics \
             registry in Prometheus format.")
    Term.(const run $ socket $ format_arg)

let main_cmd =
  let doc = "functional security analysis for systems of systems" in
  let info = Cmd.info "fsa" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ reach_cmd; requirements_cmd; analyze_cmd; abstract_cmd; scenario_cmd;
      dot_cmd; conf_cmd; simulate_cmd; export_cmd; refine_cmd; check_cmd;
      struct_cmd; sym_cmd; flow_cmd; verify_cmd; monitor_cmd; report_cmd;
      lint_cmd;
      diff_cmd; serve_cmd; batch_cmd; stats_cmd ]

let () = exit (Cmd.eval main_cmd)
