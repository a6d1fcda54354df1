(* Seeded inputs.  The program only ever sees the spec text built here;
   the seed lives in the benchmark.

   Fleets follow examples/specs/evita_fleet.fsa: [n] warner/receiver
   pairs, each in its own radio cluster.  The seed chooses the vehicle
   numbers (and hence instance names and identities), the cluster names
   and the order of components and clusters, nothing else: the state
   space is always
   13^n states and the pairs stay interchangeable, so the symmetry
   reduction applies to every generated fleet.  Vehicle numbers have a
   fixed width (five digits), so names, and every count derived from
   their length, do not vary with the seed either. *)

let rng seed = Random.State.make [| 0x5eed; seed |]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [k] distinct five-digit vehicle numbers. *)
let vehicle_numbers rng k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let v = 10000 + Random.State.int rng 90000 in
      if List.mem v acc then go acc else go (v :: acc)
  in
  go []

type pair = { warner : int; receiver : int }

type fleet = { f_text : string; f_pairs : pair list }

let warner_component =
  {|component Warner {
  state esp = { }
  state gps = { }
  state bus = { }
  shared net

  action sense: take esp(_x) -> put bus(_x)
  action pos:   take gps(_p) -> put bus(_p)
  action send:  take bus(sW), take bus(_p) when position(_p)
                -> put net(cam(self, _p))
}
|}

let receiver_component =
  {|component Receiver {
  state gps = { }
  state bus = { }
  state hmi = { }
  shared net

  action pos:  take gps(_p) -> put bus(_p)
  action rec:  take net(cam(_v, _p)) when _v != self
               -> put bus(warn(_p))
  action show: take bus(warn(_p)), take bus(_q)
               when position(_q) && near(_p, _q)
               -> put hmi(warn)
}
|}

let vname v = Printf.sprintf "V%d" v

(* A fleet over the given pairs; [rng] decides cluster names, the order
   of the two components and the order of the clusters.  Instances are
   declared pair by pair, as in evita_fleet.fsa: under sym+por the
   unfolded graph shifts by a few states (5518 or 5530 instead of 5527)
   with their declaration order. *)
let fleet_of_pairs rng pairs =
  let instances =
    List.concat_map
      (fun p ->
        [ Printf.sprintf
            "instance %s = Warner(%d) { esp = { sW }, gps = { pos1 } }\n"
            (vname p.warner) p.warner;
          Printf.sprintf "instance %s = Receiver(%d) { gps = { pos2 } }\n"
            (vname p.receiver) p.receiver ])
      pairs
  in
  let cluster_ids = vehicle_numbers rng (List.length pairs) in
  let clusters =
    List.map2
      (fun p c ->
        Printf.sprintf "cluster zone%d = { %s, %s }\n" c
          (vname p.warner) (vname p.receiver))
      pairs cluster_ids
  in
  let text =
    String.concat "\n"
      [ String.concat "\n" (shuffle rng [ warner_component; receiver_component ]);
        String.concat "" instances;
        String.concat "" (shuffle rng clusters) ]
  in
  { f_text = text; f_pairs = pairs }

(* Names sort as in evita_fleet.fsa (R1 < .. < R4 < W1 < .. < W4):
   receivers take the lower vehicle numbers and pairs match in order.
   The sym+por reduction is sensitive to that order (with a warner's
   name first the fleet reduces to 335 instead of 583 representatives,
   and other pairings shift the unfolded graph by a few states), so the
   generator keeps it fixed and the cost per op constant. *)
let fleet rng ~pairs:n =
  let vs = List.sort compare (vehicle_numbers rng (2 * n)) in
  let receivers = List.filteri (fun i _ -> i < n) vs
  and warners = List.filteri (fun i _ -> i >= n) vs in
  fleet_of_pairs rng
    (List.map2 (fun w r -> { warner = w; receiver = r }) warners receivers)

(* The [j]-th first-seen fleet of a run: its first vehicle number is
   unique per [j] (below 90000), so its digest is new to the store. *)
let fresh_fleet rng ~pairs:n j =
  let first = 10000 + (j mod 90000) in
  let rec others acc =
    if List.length acc = (2 * n) - 1 then acc
    else
      let v = 10000 + Random.State.int rng 90000 in
      if v = first || List.mem v acc then others acc else others (v :: acc)
  in
  let rec split = function
    | w :: r :: rest -> { warner = w; receiver = r } :: split rest
    | _ -> []
  in
  fleet_of_pairs rng (split (first :: others []))

(* Same spec, different text: the digest ignores layout and comments,
   so a reformatted repeat must still hit the store. *)
let reformat k text =
  let spaced =
    String.concat "\n"
      (List.map
         (fun line ->
           if String.length line >= 2 && String.sub line 0 2 = "//" then line
           else String.concat "   " (String.split_on_char ' ' line))
         (String.split_on_char '\n' text))
  in
  Printf.sprintf "// reformatted copy %d\n\n%s\n// end\n" k spaced
