(* Tests for Fsa_store: the JSON codec, the canonical model digest and
   the content-addressed on-disk cache (round-trip, corruption fallback,
   version fencing, LRU eviction). *)

module Json = Fsa_json.Json
module Store = Fsa_store.Store
module Elaborate = Fsa_spec.Elaborate
module Parser = Fsa_spec.Parser

(* A known-good specification exercising every declaration kind (the
   paper's two-vehicle scenario). *)
let spec_text =
  {|
component Vehicle {
  state esp = { }
  state gps = { }
  state bus = { }
  state hmi = { }
  shared net

  action sense: take esp(_x) -> put bus(_x)
  action pos:   take gps(_p) -> put bus(_p)
  action send:  take bus(sW), take bus(_p) when position(_p)
                -> put net(cam(self, _p))
  action rec:   take net(cam(_v, _p)) when _v != self
                -> put bus(warn(_p))
  action show:  take bus(warn(_p)), take bus(_q)
                when position(_q) && near(_p, _q)
                -> put hmi(warn)
}

instance V1 = Vehicle(1) { esp = { sW }, gps = { pos1 } }
instance V2 = Vehicle(2) { gps = { pos2 } }

model Warner(i) {
  action sense(ESP_i, sW)
  action pos(GPS_i, pos)
  action send(CU_i, cam(pos))
  flow sense -> send
  flow pos -> send
}

model Receiver(i) {
  action pos(GPS_i, pos)
  action rec(CU_i, cam(pos))
  action show(HMI_i, warn)
  flow rec -> show
  flow pos -> show
}

sos two_vehicles {
  use Warner(1) as V1
  use Receiver(2) as V2
  link V1.send -> V2.rec
}

check precedence V1_sense V2_show
check existence V2_show
|}

(* The same declarations in a different top-level order, with different
   layout and comments. *)
let spec_text_permuted =
  {|
// layout and declaration order changed; the model is the same
check existence V2_show

instance V2 = Vehicle(2) { gps = { pos2 } }

model Receiver(i) {
  action pos(GPS_i, pos)
  action rec(CU_i, cam(pos))
  action show(HMI_i, warn)
  flow rec -> show
  flow pos -> show
}

sos two_vehicles {
  use Warner(1) as V1
  use Receiver(2) as V2
  link V1.send -> V2.rec
}

component Vehicle {
  state esp = { }
  state gps = { }
  state bus = { }
  state hmi = { }
  shared net
  action sense: take esp(_x) -> put bus(_x)
  action pos:   take gps(_p) -> put bus(_p)
  action send:  take bus(sW), take bus(_p) when position(_p) -> put net(cam(self, _p))
  action rec:   take net(cam(_v, _p)) when _v != self -> put bus(warn(_p))
  action show:  take bus(warn(_p)), take bus(_q) when position(_q) && near(_p, _q) -> put hmi(warn)
}

instance V1 = Vehicle(1) { esp = { sW }, gps = { pos1 } }

model Warner(i) {
  action sense(ESP_i, sW)
  action pos(GPS_i, pos)
  action send(CU_i, cam(pos))
  flow sense -> send
  flow pos -> send
}

check precedence V1_sense V2_show
|}

let replace_first ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

(* One guard flipped: same shape, different semantics. *)
let spec_text_guard_changed =
  replace_first ~sub:"when _v != self" ~by:"when _v == self" spec_text

let all_parts = [ `Apa; `Checks; `Models ]

let tmp_counter = ref 0

let tmp_counter_next () =
  incr tmp_counter;
  !tmp_counter

let tmp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fsa_store_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let with_store ?max_bytes f () =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Store.open_ ?max_bytes ~dir ()) dir)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 2.5);
        ("str", Json.Str "line\nbreak \"quoted\" \\ tab\t");
        ("list", Json.List [ Json.Int 1; Json.Str "x"; Json.Bool false ]);
        ("nested", Json.Obj [ ("k", Json.List []) ]) ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (Json.equal v v')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

let test_json_parse_forms () =
  (match Json.parse {|  {"a": [1, 2.5, "A\n", true, null]}  |} with
  | Ok v ->
    Alcotest.(check bool) "unicode escape" true
      (Json.equal
         (Json.member "a" v |> Option.get)
         (Json.List
            [ Json.Int 1; Json.Float 2.5; Json.Str "A\n"; Json.Bool true;
              Json.Null ]))
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  (match Json.parse "{} trailing" with
  | Ok _ -> Alcotest.fail "trailing input must be rejected"
  | Error _ -> ());
  match Json.parse "not json" with
  | Ok _ -> Alcotest.fail "garbage must be rejected"
  | Error _ -> ()

let test_json_escaping () =
  let str s = Json.to_string (Json.Str s) in
  Alcotest.(check string) "quotes escaped" {|"a\"b\\c"|} (str "a\"b\\c");
  Alcotest.(check string) "newline escaped" {|"x\ny"|} (str "x\ny");
  Alcotest.(check string) "control chars" {|"\u0001"|} (str "\x01")

(* ------------------------------------------------------------------ *)
(* Canonical digests                                                   *)
(* ------------------------------------------------------------------ *)

let digest ?(parts = all_parts) text =
  Elaborate.digest_of_spec ~parts (Parser.parse_string text)

let test_digest_stable_across_reparse () =
  Alcotest.(check string) "two parses, one digest" (digest spec_text)
    (digest spec_text)

let test_digest_ignores_declaration_order () =
  Alcotest.(check string) "permuted declarations, one digest"
    (digest spec_text) (digest spec_text_permuted);
  List.iter
    (fun part ->
      Alcotest.(check string) "per part" (digest ~parts:[ part ] spec_text)
        (digest ~parts:[ part ] spec_text_permuted))
    all_parts

let test_digest_sensitive_to_guards () =
  Alcotest.(check bool) "guard change, new digest" false
    (String.equal (digest spec_text) (digest spec_text_guard_changed));
  (* the functional models did not change, so the `Models digest holds *)
  Alcotest.(check string) "models digest unchanged"
    (digest ~parts:[ `Models ] spec_text)
    (digest ~parts:[ `Models ] spec_text_guard_changed)

let test_cache_key_params () =
  let d = digest spec_text in
  let k1 =
    Store.cache_key ~digest:d ~kind:"reach"
      ~params:[ ("max_states", "10"); ("method", "direct") ]
  in
  let k2 =
    Store.cache_key ~digest:d ~kind:"reach"
      ~params:[ ("method", "direct"); ("max_states", "10") ]
  in
  let k3 =
    Store.cache_key ~digest:d ~kind:"reach"
      ~params:[ ("max_states", "11"); ("method", "direct") ]
  in
  Alcotest.(check string) "param order is canonicalised" k1 k2;
  Alcotest.(check bool) "params are significant" false (String.equal k1 k3);
  Alcotest.(check bool) "kind is significant" false
    (String.equal k1
       (Store.cache_key ~digest:d ~kind:"verify"
          ~params:[ ("max_states", "10"); ("method", "direct") ]))

(* ------------------------------------------------------------------ *)
(* On-disk entries                                                     *)
(* ------------------------------------------------------------------ *)

let entry key =
  { Store.e_key = key;
    e_kind = "reach";
    e_result =
      Json.Obj [ ("states", Json.Int 13); ("transitions", Json.Int 19) ];
    e_output = "states: 13, transitions: 19\n";
    e_exit = 0 }

let key_of i =
  Store.cache_key ~digest:(Store.digest_hex (string_of_int i)) ~kind:"reach"
    ~params:[]

let entry_file dir key = Filename.concat dir (key ^ ".json")

let test_entry_roundtrip =
  with_store @@ fun st dir ->
  let key = key_of 0 in
  Alcotest.(check bool) "miss before add" true (Store.find st ~key = None);
  Store.add st (entry key);
  (match Store.find st ~key with
  | None -> Alcotest.fail "hit expected after add"
  | Some e ->
    Alcotest.(check string) "kind survives" "reach" e.Store.e_kind;
    Alcotest.(check string) "output survives" "states: 13, transitions: 19\n"
      e.Store.e_output;
    Alcotest.(check int) "exit survives" 0 e.Store.e_exit;
    Alcotest.(check bool) "result survives" true
      (Json.equal (entry key).Store.e_result e.Store.e_result));
  (* a fresh handle over the same directory sees the entry *)
  let st' = Store.open_ ~dir () in
  Alcotest.(check bool) "persistent across handles" true
    (Store.find st' ~key <> None)

let test_corrupt_entry_is_a_miss =
  with_store @@ fun st dir ->
  let key = key_of 1 in
  Store.add st (entry key);
  let path = entry_file dir key in
  let content = In_channel.with_open_bin path In_channel.input_all in
  (* truncation *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub content 0 (String.length content / 2)));
  Alcotest.(check bool) "truncated entry is a miss" true
    (Store.find st ~key = None);
  (* flipped payload byte: checksum must catch it *)
  let flipped = replace_first ~sub:"\"exit\":0" ~by:"\"exit\":1" content in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc flipped);
  Alcotest.(check bool) "checksum mismatch is a miss" true
    (Store.find st ~key = None);
  (* stale format version *)
  let stale =
    replace_first
      ~sub:(Printf.sprintf "\"format\":%d" Store.format_version)
      ~by:"\"format\":999" content
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc stale);
  Alcotest.(check bool) "future format version is a miss" true
    (Store.find st ~key = None)

(* The bytes an entry takes on disk. *)
let entry_size e = String.length (Json.to_string (Store.entry_to_json e)) + 1

let json_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json" && f.[0] <> '.')
  |> List.sort String.compare

let tmp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tmp")

let m_evictions = Fsa_obs.Metrics.counter "store.evictions"

let with_metrics f =
  Fsa_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Fsa_obs.Metrics.set_enabled false) f

let test_eviction_bounds_the_store =
  (* each entry is a few hundred bytes; a 1 KiB budget forces eviction *)
  with_store ~max_bytes:1024 @@ fun st dir ->
  for i = 0 to 9 do
    Store.add st (entry (key_of i));
    (* mtime separation so the LRU order is unambiguous *)
    Unix.sleepf 0.01
  done;
  let files = Sys.readdir dir in
  let entries, tmp =
    Array.fold_left
      (fun (e, t) f ->
        if Filename.check_suffix f ".json" && f.[0] <> '.' then (e + 1, t)
        else (e, t + 1))
      (0, 0) files
  in
  Alcotest.(check int) "no temp residue" 0 tmp;
  (* every entry has the same size: the newest that fit survive *)
  Alcotest.(check int) "evicted down to the budget"
    (1024 / entry_size (entry (key_of 0)))
    entries;
  (* the newest entry survives, the oldest is gone *)
  Alcotest.(check bool) "newest kept" true (Store.find st ~key:(key_of 9) <> None);
  Alcotest.(check bool) "oldest evicted" true (Store.find st ~key:(key_of 0) = None)

let test_lru_bump_on_find () =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* size the budget off a real entry: room for two entries, not three *)
  let probe = Store.open_ ~dir () in
  Store.add probe (entry (key_of 0));
  let size = (Unix.stat (entry_file dir (key_of 0))).Unix.st_size in
  let st = Store.open_ ~max_bytes:((2 * size) + (size / 2)) ~dir () in
  Unix.sleepf 0.01;
  Store.add st (entry (key_of 1));
  Unix.sleepf 0.01;
  (* touch 0, making 1 the LRU entry *)
  ignore (Store.find st ~key:(key_of 0));
  Unix.sleepf 0.01;
  Store.add st (entry (key_of 2));
  Alcotest.(check bool) "recently used entry kept" true
    (Store.find st ~key:(key_of 0) <> None);
  Alcotest.(check bool) "least recently used entry evicted" true
    (Store.find st ~key:(key_of 1) = None)

(* An entry another process deleted, in a way this handle's directory
   check cannot see, still frees its bytes: the next add must not evict
   a live entry in its place, nor count the vanished one. *)
let test_vanished_entry_counts_as_freed () =
  let size = entry_size (entry (key_of 0)) in
  (with_store ~max_bytes:(3 * size) @@ fun st dir ->
   List.iter (fun i -> Store.add st (entry (key_of i))) [ 0; 1; 2 ];
   let mtime = (Unix.stat dir).Unix.st_mtime in
   Sys.remove (entry_file dir (key_of 0));
   (* put the directory's mtime back into the microsecond the handle
      saw, as a deletion in the same timestamp tick would leave it *)
   let same_tick = (Float.round (mtime *. 1e6) +. 0.5) /. 1e6 in
   Unix.utimes dir same_tick same_tick;
   with_metrics @@ fun () ->
   let before = Fsa_obs.Metrics.counter_value m_evictions in
   Store.add st (entry (key_of 3));
   Alcotest.(check int) "vanished entry not counted" before
     (Fsa_obs.Metrics.counter_value m_evictions);
   Alcotest.(check (list string)) "no live entry evicted"
     (List.sort String.compare
        (List.map (fun i -> key_of i ^ ".json") [ 1; 2; 3 ]))
     (json_files dir))
    ()

(* Model-based: random adds and finds of varied sizes, through a handle
   that is now and then replaced by a fresh, unscanned one.  After every
   add the entries on disk are the longest most-recently-used suffix
   that fits the budget, and [store.evictions] grows by the number of
   entries that left it; after a reopen that checks that a rescan
   rebuilds the order the old handle left.  (Hits through a second live
   handle would reorder the disk but not this handle's index: the
   documented weakening, not modelled here.) *)
type op = Add of int * int | Find of int | Reopen

let pp_op = function
  | Add (k, pad) -> Printf.sprintf "add k%d +%d" k pad
  | Find k -> Printf.sprintf "find k%d" k
  | Reopen -> "reopen"

let gen_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 30)
    (frequency
       [ (6, map2 (fun k pad -> Add (k, pad)) (int_bound 7) (int_bound 1500));
         (3, map (fun k -> Find k) (int_bound 7));
         (1, return Reopen) ])

let model_budget = 1500

(* The longest suffix of [lru] (oldest first) whose sizes fit. *)
let fitting_suffix lru =
  let rec go acc total = function
    | [] -> acc
    | ((_, size) as x) :: older ->
      if total + size > model_budget then acc else go (x :: acc) (total + size) older
  in
  go [] 0 (List.rev lru)

let prop_lru_model =
  QCheck2.Test.make ~name:"store eviction follows the LRU model" ~count:100
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    gen_ops
    (fun ops ->
      let dir = tmp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      with_metrics @@ fun () ->
      let open_ () = Store.open_ ~max_bytes:model_budget ~dir () in
      let st = ref (open_ ()) in
      let lru = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Reopen ->
            st := open_ ();
            true
          | Find k ->
            let hit = Store.find !st ~key:(key_of k) <> None in
            (match List.assoc_opt k !lru with
            | Some size -> lru := List.remove_assoc k !lru @ [ (k, size) ]
            | None -> ());
            hit = List.mem_assoc k !lru
          | Add (k, pad) ->
            let e = { (entry (key_of k)) with Store.e_output = String.make pad 'x' } in
            let before = Fsa_obs.Metrics.counter_value m_evictions in
            Store.add !st e;
            let grown = List.remove_assoc k !lru @ [ (k, entry_size e) ] in
            lru := fitting_suffix grown;
            json_files dir
            = List.sort String.compare
                (List.map (fun (k, _) -> key_of k ^ ".json") !lru)
            && Fsa_obs.Metrics.counter_value m_evictions - before
               = List.length grown - List.length !lru)
        ops)

(* Four domains adding to one handle at once. *)
let test_concurrent_adds () =
  let size = entry_size (entry (key_of 0)) in
  let budget = 6 * size in
  with_store ~max_bytes:budget
    (fun st dir ->
      let worker d () =
        for i = 0 to 24 do
          Store.add st (entry (key_of ((100 * d) + i)))
        done
      in
      List.init 4 (fun d -> Domain.spawn (worker d)) |> List.iter Domain.join;
      Alcotest.(check (list string)) "no temp residue" [] (tmp_files dir);
      let entries, bytes = Store.occupancy st in
      Alcotest.(check bool) "within budget" true (bytes <= budget);
      Alcotest.(check bool) "something kept" true (entries > 0);
      List.iter
        (fun f ->
          let key = Filename.chop_suffix f ".json" in
          Alcotest.(check bool) ("survivor " ^ key ^ " found") true
            (Store.find st ~key <> None))
        (json_files dir))
    ()

(* Two handles on one directory taking turns: each must see the other's
   adds (by the directory's mtime) and stay within budget. *)
let test_handles_take_turns () =
  let size = entry_size (entry (key_of 0)) in
  let budget = 3 * size in
  with_store ~max_bytes:budget
    (fun a dir ->
      let b = Store.open_ ~max_bytes:budget ~dir () in
      for i = 0 to 11 do
        let st = if i / 2 mod 2 = 0 then a else b in
        if i mod 2 = 0 then Unix.sleepf 0.01;
        Store.add st (entry (key_of i));
        Alcotest.(check bool)
          (Printf.sprintf "within budget after add %d" i)
          true
          (snd (Store.occupancy st) <= budget)
      done)
    ()

let suite =
  [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse forms" `Quick test_json_parse_forms;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "digest stable across reparse" `Quick
      test_digest_stable_across_reparse;
    Alcotest.test_case "digest ignores declaration order" `Quick
      test_digest_ignores_declaration_order;
    Alcotest.test_case "digest sensitive to guards" `Quick
      test_digest_sensitive_to_guards;
    Alcotest.test_case "cache key params" `Quick test_cache_key_params;
    Alcotest.test_case "entry round-trip" `Quick test_entry_roundtrip;
    Alcotest.test_case "corrupt entry is a miss" `Quick
      test_corrupt_entry_is_a_miss;
    Alcotest.test_case "eviction bounds the store" `Quick
      test_eviction_bounds_the_store;
    Alcotest.test_case "lru bump on find" `Quick test_lru_bump_on_find;
    Alcotest.test_case "vanished entry counts as freed" `Quick
      test_vanished_entry_counts_as_freed;
    QCheck_alcotest.to_alcotest prop_lru_model;
    Alcotest.test_case "concurrent adds on one handle" `Quick
      test_concurrent_adds;
    Alcotest.test_case "two handles take turns" `Quick test_handles_take_turns ]
