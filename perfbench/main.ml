(* Benchmark entry point: one workload, one seed, one run.

     main.exe --workload fleet|fleet-sym|serve --seed N --seconds S
              --trace 0|1 [--root DIR]

   Prints, as its last stdout line, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1.
   The line before it repeats every metric with its sample count. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload fleet|fleet-sym|serve --seed N --seconds S --trace 0|1 \
     [--root DIR]";
  exit 2

(* Set-ups per run; [setup_s] is their median. *)
let setups = 5

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let root = ref "." in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--root" :: v :: r -> root := v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Workloads.names) || not (List.mem !trace [ 0; 1 ]) then usage ();
  let spin0 = Stats.spin_ms () in
  (* set up [setups] times from nothing; the last set-up serves the run *)
  let durations = ref [] and env = ref None in
  for _ = 1 to setups do
    Option.iter Workloads.teardown !env;
    let t0 = Stats.now () in
    env := Some (Workloads.setup ~root:!root ~seed:!seed !workload);
    durations := (Stats.now () -. t0) :: !durations
  done;
  let env = Option.get !env in
  let finish () = Workloads.teardown env in
  if !trace = 1 then begin
    let r = Tracing.traced_run env ~seconds:!seconds in
    let defects = Workloads.probe_known_defects env in
    finish ();
    List.iter print_endline defects;
    let out =
      Filename.concat !root (Printf.sprintf ".perfbench/trace-%s-%d.json" !workload !seed)
    in
    Workloads.mkdir_p (Filename.dirname out);
    Out_channel.with_open_bin out (fun oc -> output_string oc r.Tracing.chrome);
    print_string r.Tracing.table;
    Printf.printf "chrome trace of the first %d ops: %s\n" Tracing.keep_traced_ops out;
    Option.iter (Printf.printf "first failure: %s\n") r.Tracing.t.Workloads.first_error;
    print_endline (Stats.detail_line r.Tracing.metrics);
    print_endline
      (Stats.result_line
         ~correct:(r.Tracing.t.Workloads.failed = 0 && !Tracing.key_drift = 0)
         ~attempted:r.Tracing.t.Workloads.attempted ~failed:r.Tracing.t.Workloads.failed
         r.Tracing.metrics)
  end
  else begin
    let r = Workloads.timed_run env ~seconds:!seconds in
    let defects = Workloads.probe_known_defects env in
    finish ();
    List.iter print_endline defects;
    let spin1 = Stats.spin_ms () in
    let t = r.Workloads.t in
    let metrics = Workloads.end_to_end r ~setup_s:!durations in
    let ops = List.length r.Workloads.op_ms in
    Printf.printf
      "%s seed %d: %d ops in %.3f s; host.spin_ms before %.3f after %.3f; op_ms_p99 %s\n"
      !workload !seed ops r.Workloads.window_s spin0 spin1
      (if Stats.qualified ~n:ops 0.99 then "qualified"
       else "is NOT a tail estimate: fewer than 10 samples lie beyond it");
    Option.iter (Printf.printf "first failure: %s\n") t.Workloads.first_error;
    print_endline (Stats.detail_line metrics);
    print_endline
      (Stats.result_line
         ~correct:(t.Workloads.failed = 0 && r.Workloads.hit_ms <> [] && r.Workloads.miss_ms <> [])
         ~attempted:t.Workloads.attempted ~failed:t.Workloads.failed metrics)
  end
