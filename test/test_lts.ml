(* Tests for Fsa_lts: reachability graphs.  Expected values are the
   published graph sizes of the paper (Figs. 7 and 9, Example 6). *)

module Term = Fsa_term.Term
module Action = Fsa_term.Action
module Apa = Fsa_apa.Apa
module Lts = Fsa_lts.Lts
module V = Fsa_vanet.Vehicle_apa

let action_list set = List.map Action.to_string (Action.Set.elements set)

let lts2 = lazy (Lts.explore (V.two_vehicles ()))
let lts4 = lazy (Lts.explore (V.four_vehicles ()))

let test_two_vehicle_graph () =
  let lts = Lazy.force lts2 in
  (* Fig. 7: the tool's graph has 13 states M-1..M-13 *)
  Alcotest.(check int) "13 states (Fig. 7)" 13 (Lts.nb_states lts);
  Alcotest.(check int) "1 dead state" 1 (List.length (Lts.deadlocks lts));
  Alcotest.(check (list string)) "minima (Example 6)"
    [ "V1_pos"; "V1_sense"; "V2_pos" ]
    (action_list (Lts.minima lts));
  Alcotest.(check (list string)) "maxima (Example 6)" [ "V2_show" ]
    (action_list (Lts.maxima lts))

let test_four_vehicle_graph () =
  let lts = Lazy.force lts4 in
  (* Fig. 9: 169 states (two independent 13-state pairs) *)
  Alcotest.(check int) "169 states (Fig. 9)" 169 (Lts.nb_states lts);
  Alcotest.(check int) "unique dead state" 1 (List.length (Lts.deadlocks lts));
  Alcotest.(check (list string)) "six minima"
    [ "V1_pos"; "V1_sense"; "V2_pos"; "V3_pos"; "V3_sense"; "V4_pos" ]
    (action_list (Lts.minima lts));
  Alcotest.(check (list string)) "two maxima" [ "V2_show"; "V4_show" ]
    (action_list (Lts.maxima lts))

let test_states_equal_order_ideals () =
  (* Definition check: the reachability graph states are exactly the order
     ideals of the scenario's event poset. *)
  let module G = Fsa_graph.Digraph.Make (struct
    type t = string

    let compare = String.compare
    let pp = Fmt.string
  end) in
  let module P = Fsa_order.Poset.Make (G) in
  let poset =
    P.of_relation_exn
      [ ("V1_sense", "V1_send"); ("V1_pos", "V1_send");
        ("V1_send", "V2_rec"); ("V2_rec", "V2_show"); ("V2_pos", "V2_show") ]
  in
  Alcotest.(check int) "states = ideals"
    (P.count_ideals poset)
    (Lts.nb_states (Lazy.force lts2));
  (* and the number of complete runs equals the linear extensions *)
  let count_runs lts =
    let rec go s =
      match Lts.succ lts s with
      | [] -> 1
      | succs ->
        List.fold_left (fun acc tr -> acc + go tr.Lts.t_dst) 0 succs
    in
    go (Lts.initial lts)
  in
  Alcotest.(check int) "maximal runs = linear extensions"
    (P.count_linear_extensions poset)
    (count_runs (Lazy.force lts2))

let test_trace_to () =
  let lts = Lazy.force lts2 in
  (match Lts.deadlocks lts with
  | [ dead ] -> (
    match Lts.trace_to lts dead with
    | Some trace ->
      Alcotest.(check int) "full run has 6 actions" 6 (List.length trace);
      (* replaying the trace in the APA ends in the dead state *)
      let apa = V.two_vehicles () in
      let final =
        List.fold_left
          (fun st label ->
            match
              List.find_opt
                (fun (_, l, _) -> Action.equal l label)
                (Apa.step apa st)
            with
            | Some (_, _, next) -> next
            | None -> Alcotest.fail "trace must be replayable")
          (Apa.initial_state apa) trace
      in
      Alcotest.(check bool) "replay reaches a deadlock" true
        (Apa.is_deadlocked apa final)
    | None -> Alcotest.fail "dead state must be reachable")
  | _ -> Alcotest.fail "expected exactly one dead state");
  Alcotest.(check (option (list (Alcotest.testable Action.pp Action.equal))))
    "trace to initial is empty" (Some [])
    (Lts.trace_to lts (Lts.initial lts))

let test_words_prefix_closed () =
  let lts = Lazy.force lts2 in
  let words = Lts.words ~max_len:3 lts in
  Alcotest.(check bool) "contains empty word" true (List.mem [] words);
  List.iter
    (fun w ->
      match List.rev w with
      | [] -> ()
      | _ :: butlast_rev ->
        Alcotest.(check bool) "prefix closed" true
          (List.mem (List.rev butlast_rev) words))
    words

let test_depends_on_direct () =
  let lts = Lazy.force lts4 in
  Alcotest.(check bool) "V2_show depends on V1_sense" true
    (Lts.depends_on lts ~max_action:(V.v_show 2) ~min_action:(V.v_sense 1));
  Alcotest.(check bool) "V4_show independent of V1_sense" false
    (Lts.depends_on lts ~max_action:(V.v_show 4) ~min_action:(V.v_sense 1));
  Alcotest.(check bool) "V4_show depends on V3_pos" true
    (Lts.depends_on lts ~max_action:(V.v_show 4) ~min_action:(V.v_pos 3))

let test_alphabet () =
  let lts = Lazy.force lts2 in
  Alcotest.(check int) "6 distinct labels" 6
    (Action.Set.cardinal (Lts.alphabet lts))

let test_stats_and_dot () =
  let lts = Lazy.force lts2 in
  let s = Lts.stats lts in
  Alcotest.(check int) "stats states" 13 s.Lts.nb_states;
  Alcotest.(check int) "stats transitions" 19 s.Lts.nb_transitions;
  let dot = Lts.dot lts in
  Alcotest.(check bool) "mentions M-1" true
    (let sub = "M-1" in
     let rec contains i =
       i + String.length sub <= String.length dot
       && (String.sub dot i (String.length sub) = sub || contains (i + 1))
     in
     contains 0)

let test_state_space_bound () =
  match Lts.explore ~max_states:5 (V.two_vehicles ()) with
  | _ -> Alcotest.fail "bound must trigger"
  | exception Lts.State_space_too_large 5 -> ()

let test_pairs_scaling () =
  (* 13^k states for k independent pairs *)
  Alcotest.(check int) "one pair" 13 (Lts.nb_states (Lts.explore (V.pairs 1)));
  Alcotest.(check int) "two pairs" 169 (Lts.nb_states (Lts.explore (V.pairs 2)));
  Alcotest.(check int) "three pairs" 2197
    (Lts.nb_states (Lts.explore (V.pairs 3)))

let test_chain_apa () =
  (* forwarding chain: the receiver's show is the unique maximum *)
  let lts = Lts.explore (V.chain 3) in
  Alcotest.(check (list string)) "maxima" [ "V3_show" ]
    (action_list (Lts.maxima lts));
  Alcotest.(check (list string)) "minima"
    [ "V1_pos"; "V1_sense"; "V2_pos"; "V3_pos" ]
    (action_list (Lts.minima lts));
  Alcotest.(check bool) "V3_show depends on the forwarder's position" true
    (Lts.depends_on lts ~max_action:(V.v_show 3) ~min_action:(V.v_pos 2))

let test_progress_finalized_on_abort () =
  (* Regression: aborting on the state bound used to skip Progress.finish
     (dangling live status line) and leave lts.states_per_sec unset. *)
  let module Metrics = Fsa_obs.Metrics in
  let module Progress = Fsa_obs.Progress in
  let updates = ref [] in
  let progress =
    Progress.create ~every_n:1 ~every_ns:0L (fun u -> updates := u :: !updates)
  in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  (match Lts.explore ~max_states:5 ~progress (V.two_vehicles ()) with
  | _ -> Alcotest.fail "bound must trigger"
  | exception Lts.State_space_too_large 5 -> ());
  (match !updates with
  | last :: _ ->
    Alcotest.(check bool) "last update is final" true last.Progress.u_final
  | [] -> Alcotest.fail "progress must have reported");
  Alcotest.(check bool) "rate gauge set despite abort" true
    (Metrics.gauge_value (Metrics.gauge "lts.states_per_sec") > 0.)

let test_count_runs_long_chain () =
  (* Regression: counting complete runs recursed once per path edge and
     blew the stack on long chains. *)
  let n = 100_001 in
  let label = Action.make "step" in
  let edges =
    List.init (n - 1) (fun i ->
        { Lts.t_src = i; t_label = label; t_dst = i + 1 })
  in
  let lts = Lts.of_edges ~name:"chain" ~nb_states:n edges in
  Alcotest.(check (option int)) "one maximal run" (Some 1)
    (Lts.count_complete_runs lts);
  (* a diamond has two runs; a cycle has none *)
  let l s = Action.make s in
  let diamond =
    Lts.of_edges ~nb_states:4
      [ { Lts.t_src = 0; t_label = l "a"; t_dst = 1 };
        { Lts.t_src = 0; t_label = l "b"; t_dst = 2 };
        { Lts.t_src = 1; t_label = l "b"; t_dst = 3 };
        { Lts.t_src = 2; t_label = l "a"; t_dst = 3 } ]
  in
  Alcotest.(check (option int)) "diamond" (Some 2)
    (Lts.count_complete_runs diamond);
  let cycle =
    Lts.of_edges ~nb_states:2
      [ { Lts.t_src = 0; t_label = l "a"; t_dst = 1 };
        { Lts.t_src = 1; t_label = l "b"; t_dst = 0 } ]
  in
  Alcotest.(check (option int)) "cyclic" None (Lts.count_complete_runs cycle)

(* The parallel exploration must be bit-identical to the sequential one:
   same state numbering, same transition lists, same analysis results. *)
let check_par_matches_seq name apa =
  let seq = Lts.explore apa in
  List.iter
    (fun jobs ->
      let par = Lts.explore_par ~jobs apa in
      let ctx = Printf.sprintf "%s jobs=%d" name jobs in
      Alcotest.(check int) (ctx ^ ": states") (Lts.nb_states seq)
        (Lts.nb_states par);
      Alcotest.(check int)
        (ctx ^ ": transitions")
        (Lts.nb_transitions seq) (Lts.nb_transitions par);
      let triples lts =
        List.map
          (fun tr -> (tr.Lts.t_src, Action.to_string tr.Lts.t_label, tr.Lts.t_dst))
          (Lts.transitions lts)
      in
      Alcotest.(check (list (triple int string int)))
        (ctx ^ ": identical transition lists")
        (triples seq) (triples par);
      List.iter
        (fun i ->
          Alcotest.(check string)
            (ctx ^ ": state " ^ string_of_int i)
            (Apa.State.to_string (Lts.state seq i))
            (Apa.State.to_string (Lts.state par i)))
        (List.init (Lts.nb_states seq) Fun.id);
      Alcotest.(check (list string)) (ctx ^ ": minima")
        (action_list (Lts.minima seq))
        (action_list (Lts.minima par));
      Alcotest.(check (list string)) (ctx ^ ": maxima")
        (action_list (Lts.maxima seq))
        (action_list (Lts.maxima par));
      Alcotest.(check (list int)) (ctx ^ ": deadlocks") (Lts.deadlocks seq)
        (Lts.deadlocks par))
    [ 1; 2; 4 ]

let test_par_matches_seq_vanet () =
  check_par_matches_seq "two_vehicles" (V.two_vehicles ());
  check_par_matches_seq "four_vehicles" (V.four_vehicles ());
  check_par_matches_seq "pairs3" (V.pairs 3)

let test_par_matches_seq_grid () =
  check_par_matches_seq "grid" (Fsa_grid.Grid_apa.demand_response ())

let test_par_state_space_bound () =
  match Lts.explore_par ~max_states:5 ~jobs:2 (V.two_vehicles ()) with
  | _ -> Alcotest.fail "bound must trigger"
  | exception Lts.State_space_too_large 5 -> ()

(* Golden pins over the example specs that declare instances: state
   count, transition count, and an MD5 digest of [Lts.dot] followed by
   every state's [State.to_string] (one per line, in M-k order),
   recorded with the earlier string-keyed state representation.  They
   pin numbering, labels and state contents across any change of
   representation; the parallel explorer must hit the same digest. *)
let golden_digest lts =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Lts.dot lts);
  for i = 0 to Lts.nb_states lts - 1 do
    Buffer.add_string b (Apa.State.to_string (Lts.state lts i));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_graphs () =
  let dir =
    match
      List.find_opt Sys.file_exists [ "examples/specs"; "../../../examples/specs" ]
    with
    | Some dir -> dir
    | None -> Alcotest.fail "examples/specs not found"
  in
  List.iter
    (fun (file, states, transitions, digest) ->
      let apa =
        Fsa_spec.Elaborate.apa_of_spec
          (Fsa_spec.Parser.parse_file (Filename.concat dir file))
      in
      let lts = Lts.explore apa in
      Alcotest.(check int) (file ^ ": states") states (Lts.nb_states lts);
      Alcotest.(check int) (file ^ ": transitions") transitions
        (Lts.nb_transitions lts);
      Alcotest.(check string) (file ^ ": digest") digest (golden_digest lts);
      Alcotest.(check string) (file ^ ": parallel digest") digest
        (golden_digest (Lts.explore_par ~jobs:2 apa)))
    [ ("two_vehicles.fsa", 13, 19, "07aa87611c31d461311866417d04b9a7");
      ("four_vehicles.fsa", 169, 494, "48571744bee9aa4daccb8333ad232a42");
      ("platoon.fsa", 29, 157, "7b74453972c957909ff30bf9f4c0b817");
      ("smart_grid.fsa", 80, 162, "9ddfa9452b5458691d41667127e7a3ab");
      ("leaky_gateway.fsa", 10, 13, "423d89d593d75ff96911b292c476c754");
      ("evita_fleet.fsa", 28561, 166972, "e0edf7100c66e70126e32be6fd29ff6b") ]

let suite =
  [ Alcotest.test_case "two-vehicle graph (Fig. 7)" `Quick test_two_vehicle_graph;
    Alcotest.test_case "four-vehicle graph (Fig. 9)" `Quick test_four_vehicle_graph;
    Alcotest.test_case "states = order ideals" `Quick test_states_equal_order_ideals;
    Alcotest.test_case "trace to dead state" `Quick test_trace_to;
    Alcotest.test_case "words prefix closed" `Quick test_words_prefix_closed;
    Alcotest.test_case "direct dependence" `Quick test_depends_on_direct;
    Alcotest.test_case "alphabet" `Quick test_alphabet;
    Alcotest.test_case "stats and dot" `Quick test_stats_and_dot;
    Alcotest.test_case "state space bound" `Quick test_state_space_bound;
    Alcotest.test_case "pairs scaling 13^k" `Quick test_pairs_scaling;
    Alcotest.test_case "forwarding chain APA" `Quick test_chain_apa;
    Alcotest.test_case "progress finalized on abort" `Quick
      test_progress_finalized_on_abort;
    Alcotest.test_case "count runs on a 100k chain" `Quick
      test_count_runs_long_chain;
    Alcotest.test_case "parallel = sequential (vanet)" `Quick
      test_par_matches_seq_vanet;
    Alcotest.test_case "parallel = sequential (grid)" `Quick
      test_par_matches_seq_grid;
    Alcotest.test_case "parallel state space bound" `Quick
      test_par_state_space_bound;
    Alcotest.test_case "golden graph pins (example specs)" `Quick
      test_golden_graphs ]
