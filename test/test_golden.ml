(* Golden reports: [fsa report --format json] for every bundled spec
   under every combination of the analysis options that change how the
   report is computed — flow pruning and reduction — compared byte for
   byte with the documents under test/golden/.

   The golden files are the program's own output; they pin the report
   across engine changes (modular decomposition, abstraction engines,
   reductions) that must leave every result unchanged.  Their names
   keep the "abstract" of the dependence method the report settings
   still name.  Regenerate one with

     fsa report examples/specs/S.fsa --format json [--prune-flow]
       [--reduce sym+por] > test/golden/S.abstract[.flow].R.json

   only when a change is meant to alter the report. *)

module Server = Fsa_server.Server
module Exec = Server.Exec
module Json = Fsa_json.Json
module Parser = Fsa_spec.Parser

let find_dir candidates what =
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.failf "%s not found" what

let golden_dir () =
  find_dir [ "golden"; "test/golden"; "../../../test/golden" ] "test/golden"

let specs_dir () =
  find_dir [ "examples/specs"; "../../../examples/specs" ] "examples/specs"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The variants, named as in the golden file names. *)
let variants =
  List.concat_map
    (fun (fname, flow) ->
      List.map
        (fun (rname, reduce) ->
          (Printf.sprintf "abstract%s.%s" fname rname, flow, reduce))
        [ ("none", None); ("sym+por", Some Fsa_sym.Sym.Sym_por) ])
    [ ("", false); (".flow", true) ]

let report_json ~flow ~reduce spec =
  let cfg = Server.config ~stakeholder:Fsa_vanet.Vehicle_apa.stakeholder () in
  let oc =
    Exec.run cfg ~op:Exec.Report ~flow ?reduce ~cache:false ~file:"spec.fsa"
      spec
  in
  Json.to_string oc.Exec.oc_result ^ "\n"

let check_spec name () =
  let gdir = golden_dir () in
  let spec = Parser.parse_file (Filename.concat (specs_dir ()) (name ^ ".fsa")) in
  let checked = ref 0 in
  List.iter
    (fun (vname, flow, reduce) ->
      let golden = Filename.concat gdir (Printf.sprintf "%s.%s.json" name vname) in
      if Sys.file_exists golden then begin
        incr checked;
        Alcotest.(check string)
          (Printf.sprintf "%s %s" name vname)
          (read_file golden)
          (report_json ~flow ~reduce spec)
      end)
    variants;
  Alcotest.(check bool) (name ^ " has golden reports") true (!checked > 0)

let specs =
  [ "evita_fleet"; "evita_onboard"; "four_vehicles"; "leaky_gateway";
    "platoon"; "smart_grid"; "two_vehicles" ]

let suite =
  List.map
    (fun name ->
      Alcotest.test_case ("report " ^ name) `Quick (check_spec name))
    specs
