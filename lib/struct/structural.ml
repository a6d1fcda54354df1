(* Structural analysis over the net skeleton of an APA: exact invariant
   computation, bounded siphon/trap enumeration and static dependence.

   Everything here is deterministic: places and rules keep their APA
   declaration order, kernel bases are ordered by free column, siphon
   enumeration explores places in index order and reports sorted sets. *)

module Term = Fsa_term.Term
module Apa = Fsa_apa.Apa
module Span = Fsa_obs.Span
module Metrics = Fsa_obs.Metrics
module Json = Fsa_json.Json

type place = { pl_name : string; pl_initial : Term.Set.t }

type rule_sig = {
  rs_name : string;
  rs_takes : (string * Term.t * bool) list;
  rs_puts : (string * Term.t) list;
  rs_guarded : bool;
}

type net = { n_places : place list; n_rules : rule_sig list }

let pairs_pruned = Metrics.counter "struct.pairs_pruned"

let of_apa apa =
  { n_places =
      List.map
        (fun (c, init) -> { pl_name = c; pl_initial = init })
        (Apa.components apa);
    n_rules =
      List.map
        (fun r ->
          { rs_name = Apa.rule_name r;
            rs_takes =
              List.map
                (fun (tk : Apa.take) ->
                  (tk.t_component, tk.t_pattern, tk.t_consume))
                r.Apa.r_takes;
            rs_puts =
              List.map
                (fun (p : Apa.put) -> (p.p_component, p.p_template))
                r.Apa.r_puts;
            rs_guarded = not r.Apa.r_trivial_guard })
        (Apa.rules apa) }

(* ------------------------------------------------------------------ *)
(* Incidence matrix                                                    *)
(* ------------------------------------------------------------------ *)

type incidence = {
  i_places : string array;
  i_rules : string array;
  i_matrix : int array array;
}

let incidence net =
  Span.with_ ~cat:"struct" "struct.incidence" @@ fun () ->
  let places = Array.of_list (List.map (fun p -> p.pl_name) net.n_places) in
  let rules = Array.of_list (List.map (fun r -> r.rs_name) net.n_rules) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace index c i) places;
  let m = Array.make_matrix (Array.length places) (Array.length rules) 0 in
  List.iteri
    (fun j r ->
      List.iter
        (fun (c, _, consume) ->
          if consume then
            match Hashtbl.find_opt index c with
            | Some i -> m.(i).(j) <- m.(i).(j) - 1
            | None -> ())
        r.rs_takes;
      List.iter
        (fun (c, _) ->
          match Hashtbl.find_opt index c with
          | Some i -> m.(i).(j) <- m.(i).(j) + 1
          | None -> ())
        r.rs_puts)
    net.n_rules;
  { i_places = places; i_rules = rules; i_matrix = m }

(* ------------------------------------------------------------------ *)
(* Exact rational kernel                                               *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* num/den with den > 0 and gcd 1; magnitudes stay tiny for incidence
   matrices (entries in -2..2), so native ints are ample *)
module Q = struct
  type t = { num : int; den : int }

  let make num den =
    if den = 0 then invalid_arg "Q.make: zero denominator";
    let s = if den < 0 then -1 else 1 in
    let g = gcd num den in
    let g = if g = 0 then 1 else g in
    { num = s * num / g; den = s * den / g }

  let of_int n = { num = n; den = 1 }
  let zero = of_int 0
  let is_zero q = q.num = 0
  let neg q = { q with num = -q.num }
  let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
  let mul a b = make (a.num * b.num) (a.den * b.den)
  let div a b = if b.num = 0 then invalid_arg "Q.div" else mul a (make b.den b.num)
  let sub a b = add a (neg b)
end

let kernel (a : int array array) =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  if cols = 0 then []
  else begin
    let m =
      Array.init rows (fun i -> Array.init cols (fun j -> Q.of_int a.(i).(j)))
    in
    (* reduced row echelon form, recording (pivot row, pivot col) *)
    let pivots = ref [] in
    let prow = ref 0 in
    for c = 0 to cols - 1 do
      if !prow < rows then begin
        let found = ref (-1) in
        (try
           for r = !prow to rows - 1 do
             if not (Q.is_zero m.(r).(c)) then begin
               found := r;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          let r = !found in
          let tmp = m.(r) in
          m.(r) <- m.(!prow);
          m.(!prow) <- tmp;
          let pv = m.(!prow).(c) in
          for j = 0 to cols - 1 do
            m.(!prow).(j) <- Q.div m.(!prow).(j) pv
          done;
          for r' = 0 to rows - 1 do
            if r' <> !prow && not (Q.is_zero m.(r').(c)) then begin
              let f = m.(r').(c) in
              for j = 0 to cols - 1 do
                m.(r').(j) <- Q.sub m.(r').(j) (Q.mul f m.(!prow).(j))
              done
            end
          done;
          pivots := (!prow, c) :: !pivots;
          incr prow
        end
      end
    done;
    let pivots = List.rev !pivots in
    let pivot_cols = List.map snd pivots in
    let free_cols =
      List.filter
        (fun c -> not (List.mem c pivot_cols))
        (List.init cols Fun.id)
    in
    List.map
      (fun f ->
        let x = Array.make cols Q.zero in
        x.(f) <- Q.of_int 1;
        List.iter (fun (r, c) -> x.(c) <- Q.neg m.(r).(f)) pivots;
        (* scale to the smallest integer vector, leading entry positive *)
        let lcm =
          Array.fold_left
            (fun acc q -> acc / gcd acc q.Q.den * q.Q.den)
            1 x
        in
        let v = Array.map (fun q -> q.Q.num * (lcm / q.Q.den)) x in
        let g = Array.fold_left (fun acc n -> gcd acc n) 0 v in
        let v = if g > 1 then Array.map (fun n -> n / g) v else v in
        let sign =
          match Array.find_opt (fun n -> n <> 0) v with
          | Some n when n < 0 -> -1
          | _ -> 1
        in
        if sign < 0 then Array.map (fun n -> -n) v else v)
      free_cols
  end

let transpose m =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))

let p_invariants inc = kernel (transpose inc.i_matrix)
let t_invariants inc = kernel inc.i_matrix

(* ------------------------------------------------------------------ *)
(* Boundedness                                                         *)
(* ------------------------------------------------------------------ *)

let initial_counts net inc =
  Array.map
    (fun c ->
      match List.find_opt (fun p -> String.equal p.pl_name c) net.n_places with
      | Some p -> Term.Set.cardinal p.pl_initial
      | None -> 0)
    inc.i_places

let nonneg v = Array.for_all (fun n -> n >= 0) v

let bounds net inc =
  let m0 = initial_counts net inc in
  let invs =
    List.filter_map
      (fun y ->
        if nonneg y then Some y
        else
          let y' = Array.map (fun n -> -n) y in
          if nonneg y' then Some y' else None)
      (p_invariants inc)
  in
  let best = Hashtbl.create 16 in
  List.iter
    (fun y ->
      let total = ref 0 in
      Array.iteri (fun i yi -> total := !total + (yi * m0.(i))) y;
      Array.iteri
        (fun i yi ->
          if yi > 0 then begin
            let b = !total / yi in
            match Hashtbl.find_opt best inc.i_places.(i) with
            | Some b' when b' <= b -> ()
            | _ -> Hashtbl.replace best inc.i_places.(i) b
          end)
        y)
    invs;
  Hashtbl.fold (fun c b acc -> (c, b) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let row_sums inc =
  Array.map (fun row -> Array.fold_left ( + ) 0 row) inc.i_matrix

let growth inc =
  let sums = row_sums inc in
  Array.to_list (Array.mapi (fun i s -> (inc.i_places.(i), s)) sums)
  |> List.sort (fun (c1, s1) (c2, s2) ->
         if s1 <> s2 then compare s2 s1 else String.compare c1 c2)

let growth_hint net =
  let inc = incidence net in
  let top =
    List.filteri (fun i _ -> i < 3)
      (List.filter (fun (_, s) -> s > 0) (growth inc))
  in
  if top = [] then ""
  else
    Printf.sprintf "; fastest-growing components: %s"
      (String.concat ", "
         (List.map (fun (c, s) -> Printf.sprintf "%s (+%d)" c s) top))

let potentially_unbounded net inc =
  let covered = List.map fst (bounds net inc) in
  let sums = row_sums inc in
  Array.to_list (Array.mapi (fun i s -> (inc.i_places.(i), s)) sums)
  |> List.filter (fun (c, s) -> s > 0 && not (List.mem c covered))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Producible-shape fixpoint (enabledness over-approximation)          *)
(* ------------------------------------------------------------------ *)

let matches_shape pat shape =
  Option.is_some (Term.unify (Term.rename "p" pat) (Term.rename "s" shape))

let producible net =
  let shapes : (string, Term.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace shapes p.pl_name (Term.Set.elements p.pl_initial))
    net.n_places;
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
      (fun (c, pat, _) -> List.exists (matches_shape pat) (get c))
      r.rs_takes
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        if enabled r then
          List.iter
            (fun (c, t) -> if add c t then changed := true)
            r.rs_puts)
      net.n_rules
  done;
  enabled

(* ------------------------------------------------------------------ *)
(* Certified unboundedness                                             *)
(* ------------------------------------------------------------------ *)

(* An unguarded rule with a take (c, p) and a put (c, t) where p matches
   t syntactically (t's variables are opaque, so p matches every
   instance of t), |t| > |p|, and no other consuming take: once enabled
   it fires forever by itself, each firing leaving a strictly larger
   term in c — infinitely many distinct terms, so infinitely many
   states. *)
let certified_unbounded net =
  let enabled = producible net in
  List.concat_map
    (fun r ->
      if r.rs_guarded || not (enabled r) then []
      else
        let consuming =
          List.filter (fun (_, _, consume) -> consume) r.rs_takes
        in
        List.filter_map
          (fun ((c, pat, consume) as tk) ->
            let self_only =
              match consuming with
              | [] -> true
              | [ tk' ] -> consume && tk' == tk
              | _ -> false
            in
            if not self_only then None
            else
              List.find_map
                (fun (c', t) ->
                  if
                    String.equal c c'
                    && Option.is_some (Term.match_ ~pattern:pat ~target:t)
                    && Term.size t > Term.size pat
                  then
                    Some
                      ( r.rs_name,
                        c,
                        Fmt.str
                          "take %a is re-satisfied by put %a, which grows \
                           the term on every firing"
                          Term.pp pat Term.pp t )
                  else None)
                r.rs_puts)
          r.rs_takes)
    net.n_rules

(* ------------------------------------------------------------------ *)
(* Siphons and traps (bitmask enumeration)                             *)
(* ------------------------------------------------------------------ *)

type masks = {
  mk_places : string array;
  mk_take : int array;  (* any take (consume or read) per rule *)
  mk_consume : int array;
  mk_put : int array;
}

let masks net =
  let places = Array.of_list (List.map (fun p -> p.pl_name) net.n_places) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace index c i) places;
  let bit c =
    match Hashtbl.find_opt index c with Some i -> 1 lsl i | None -> 0
  in
  let nr = List.length net.n_rules in
  let take = Array.make nr 0
  and consume = Array.make nr 0
  and put = Array.make nr 0 in
  List.iteri
    (fun j r ->
      List.iter
        (fun (c, _, cons) ->
          take.(j) <- take.(j) lor bit c;
          if cons then consume.(j) <- consume.(j) lor bit c)
        r.rs_takes;
      List.iter (fun (c, _) -> put.(j) <- put.(j) lor bit c) r.rs_puts)
    net.n_rules;
  { mk_places = places; mk_take = take; mk_consume = consume; mk_put = put }

let mask_of_set mk set =
  List.fold_left
    (fun acc c ->
      match Array.find_index (String.equal c) mk.mk_places with
      | Some i -> acc lor (1 lsl i)
      | None -> acc)
    0 set

let set_of_mask mk s =
  let out = ref [] in
  Array.iteri (fun i c -> if s land (1 lsl i) <> 0 then out := c :: !out)
    mk.mk_places;
  List.sort String.compare !out

(* a siphon stays empty once empty: every rule producing into S takes
   (consumes or reads) from S, hence is disabled when S is empty *)
let siphon_ok mk s =
  Array.for_all2
    (fun put take -> put land s = 0 || take land s <> 0)
    mk.mk_put mk.mk_take

(* a trap stays marked once marked: every rule consuming from S puts
   into S (reads remove nothing) *)
let trap_ok mk s =
  Array.for_all2
    (fun consume put -> consume land s = 0 || put land s <> 0)
    mk.mk_consume mk.mk_put

let is_siphon net set =
  let mk = masks net in
  siphon_ok mk (mask_of_set mk set)

let is_trap net set =
  let mk = masks net in
  trap_ok mk (mask_of_set mk set)

(* Enumerate minimal sets satisfying [ok] by deficiency repair: find a
   rule violating the closure condition and branch over the places
   ([repair r]) whose addition fixes it.  Seeding each search at place
   [p] with only places >= p admitted enumerates every minimal set
   exactly once (a set's minimum element is its seed). *)
let enumerate ~ok ~deficient ~repair mk budget =
  let n = Array.length mk.mk_places in
  if n > 62 then ([], false)
  else begin
    let found = ref [] in
    let nodes = ref 0 in
    let complete = ref true in
    let max_solutions = 256 in
    let rec search allowed s =
      incr nodes;
      if !nodes > budget || List.length !found >= max_solutions then
        complete := false
      else if
        (* prune supersets of an already-found solution *)
        List.exists (fun s' -> s' land s = s') !found
      then ()
      else
        match deficient s with
        | None -> found := s :: !found
        | Some r ->
          let cands = repair r land allowed land lnot s in
          let rec branch bits =
            if bits <> 0 then begin
              let b = bits land -bits in
              search allowed (s lor b);
              branch (bits lxor b)
            end
          in
          branch cands
    in
    ignore ok;
    for p = 0 to n - 1 do
      let allowed = lnot ((1 lsl p) - 1) in
      search allowed (1 lsl p)
    done;
    (* keep minimal solutions only, deterministic order *)
    let sols = List.sort_uniq compare !found in
    let minimal =
      List.filter
        (fun s ->
          not (List.exists (fun s' -> s' <> s && s' land s = s') sols))
        sols
    in
    (List.map (set_of_mask mk) minimal, !complete)
  end

let siphons ?(budget = 10_000) net =
  Span.with_ ~cat:"struct" "struct.siphons" @@ fun () ->
  let mk = masks net in
  let deficient s =
    let r = ref None in
    (try
       Array.iteri
         (fun j put ->
           if put land s <> 0 && mk.mk_take.(j) land s = 0 then begin
             r := Some j;
             raise Exit
           end)
         mk.mk_put
     with Exit -> ());
    !r
  in
  enumerate ~ok:(siphon_ok mk) ~deficient
    ~repair:(fun j -> mk.mk_take.(j))
    mk budget

let traps ?(budget = 10_000) net =
  let mk = masks net in
  let deficient s =
    let r = ref None in
    (try
       Array.iteri
         (fun j consume ->
           if consume land s <> 0 && mk.mk_put.(j) land s = 0 then begin
             r := Some j;
             raise Exit
           end)
         mk.mk_consume
     with Exit -> ());
    !r
  in
  enumerate ~ok:(trap_ok mk) ~deficient
    ~repair:(fun j -> mk.mk_put.(j))
    mk budget

(* greatest trap inside S: drop places a rule can drain without
   refilling S, to fixpoint *)
let max_trap_in net set =
  let mk = masks net in
  let s = ref (mask_of_set mk set) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun j consume ->
        let hit = consume land !s in
        if hit <> 0 && mk.mk_put.(j) land !s = 0 then begin
          s := !s land lnot hit;
          changed := true
        end)
      mk.mk_consume
  done;
  set_of_mask mk !s

let initially_marked net set =
  List.exists
    (fun p ->
      List.mem p.pl_name set && not (Term.Set.is_empty p.pl_initial))
    net.n_places

type deadlock_verdict =
  | Deadlock_free_skeleton
  | May_deadlock of string list list
  | Unknown_budget

let deadlock ?budget net =
  let sips, complete = siphons ?budget net in
  if not complete then Unknown_budget
  else
    let bad =
      List.filter
        (fun s ->
          let t = max_trap_in net s in
          t = [] || not (initially_marked net t))
        sips
    in
    if bad = [] then Deadlock_free_skeleton else May_deadlock bad

(* ------------------------------------------------------------------ *)
(* Static dependence                                                   *)
(* ------------------------------------------------------------------ *)

let flow_adjacency net =
  let rules = Array.of_list net.n_rules in
  let n = Array.length rules in
  let adj = Array.make n [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let connects =
        List.exists
          (fun (c, t) ->
            List.exists
              (fun (c', pat, _) -> String.equal c c' && matches_shape t pat)
              rules.(j).rs_takes)
          rules.(i).rs_puts
      in
      if connects then adj.(i) <- j :: adj.(i)
    done
  done;
  (rules, adj)

let flow_edges net =
  let rules, adj = flow_adjacency net in
  Array.to_list
    (Array.mapi
       (fun i succs ->
         List.rev_map (fun j -> (rules.(i).rs_name, rules.(j).rs_name)) succs)
       adj)
  |> List.concat
  |> List.sort compare

let reachable adj i =
  let n = Array.length adj in
  let seen = Array.make n false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go adj.(i)
    end
  in
  go i;
  seen

let independent_all net =
  lazy
    (let rules, adj = flow_adjacency net in
     let index = Hashtbl.create 16 in
     Array.iteri (fun i r -> Hashtbl.replace index r.rs_name i) rules;
     let memo = Hashtbl.create 16 in
     fun min max ->
       match (Hashtbl.find_opt index min, Hashtbl.find_opt index max) with
       | Some i, Some j ->
         let seen =
           match Hashtbl.find_opt memo i with
           | Some seen -> seen
           | None ->
             let seen = reachable adj i in
             Hashtbl.replace memo i seen;
             seen
         in
         not seen.(j)
       | _ -> false)

let independent net ~min ~max = Lazy.force (independent_all net) min max

(* Interference, the commutation-relevant relation for partial-order
   reduction: two rules interfere when they touch a common state
   component and the accesses do not commute.  Two reads of the same
   component commute; so do two puts (sets union); every pairing
   involving a consuming take (it competes for the element, or removes
   what the other reads) and every put/take pairing (the put may enable
   or feed the take) does not. *)
let interferes r1 r2 =
  let access r =
    List.map
      (fun (c, _, consume) -> (c, if consume then `Consume else `Read))
      r.rs_takes
    @ List.map (fun (c, _) -> (c, `Put)) r.rs_puts
  in
  List.exists
    (fun (c1, a1) ->
      List.exists
        (fun (c2, a2) ->
          String.equal c1 c2
          &&
          match (a1, a2) with
          | `Read, `Read | `Put, `Put -> false
          | `Consume, _ | _, `Consume | `Put, `Read | `Read, `Put -> true)
        (access r2))
    (access r1)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  r_places : string array;
  r_rules : string array;
  r_matrix : int array array;
  r_p_invariants : int array list;
  r_t_invariants : int array list;
  r_bounds : (string * int) list;
  r_unbounded : (string * int) list;
  r_certified : (string * string * string) list;
  r_growth : (string * int) list;
  r_siphons : string list list;
  r_siphons_complete : bool;
  r_traps : string list list;
  r_traps_complete : bool;
  r_verdict : deadlock_verdict;
  r_independent_pairs : int;
  r_rule_pairs : int;
}

let analyse ?budget net =
  let inc = incidence net in
  let p_invs, t_invs, bnds, unb =
    Span.with_ ~cat:"struct" "struct.invariants" @@ fun () ->
    ( p_invariants inc,
      t_invariants inc,
      bounds net inc,
      potentially_unbounded net inc )
  in
  let sips, sips_complete = siphons ?budget net in
  let trps, trps_complete = traps ?budget net in
  let verdict =
    if not sips_complete then Unknown_budget
    else
      let bad =
        List.filter
          (fun s ->
            let t = max_trap_in net s in
            t = [] || not (initially_marked net t))
          sips
      in
      if bad = [] then Deadlock_free_skeleton else May_deadlock bad
  in
  let indep = Lazy.force (independent_all net) in
  let names = List.map (fun r -> r.rs_name) net.n_rules in
  let independent_pairs =
    List.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc b -> if a <> b && indep a b then acc + 1 else acc)
          acc names)
      0 names
  in
  let n = List.length names in
  { r_places = inc.i_places;
    r_rules = inc.i_rules;
    r_matrix = inc.i_matrix;
    r_p_invariants = p_invs;
    r_t_invariants = t_invs;
    r_bounds = bnds;
    r_unbounded = unb;
    r_certified = certified_unbounded net;
    r_growth = growth inc;
    r_siphons = sips;
    r_siphons_complete = sips_complete;
    r_traps = trps;
    r_traps_complete = trps_complete;
    r_verdict = verdict;
    r_independent_pairs = independent_pairs;
    r_rule_pairs = n * (n - 1) }

let pp_vector names ppf v =
  let terms =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i n ->
              if n = 0 then None
              else if n = 1 then Some names.(i)
              else Some (Printf.sprintf "%d*%s" n names.(i)))
            v))
  in
  Fmt.string ppf (String.concat " + " terms)

let pp_set ppf s = Fmt.pf ppf "{%s}" (String.concat ", " s)

let pp_report ppf r =
  Fmt.pf ppf "places: %d, rules: %d@\n" (Array.length r.r_places)
    (Array.length r.r_rules);
  Fmt.pf ppf "P-invariants (%d):@\n" (List.length r.r_p_invariants);
  List.iter
    (fun v -> Fmt.pf ppf "  %a = const@\n" (pp_vector r.r_places) v)
    r.r_p_invariants;
  Fmt.pf ppf "T-invariants (%d):@\n" (List.length r.r_t_invariants);
  List.iter
    (fun v -> Fmt.pf ppf "  %a@\n" (pp_vector r.r_rules) v)
    r.r_t_invariants;
  Fmt.pf ppf "bounded components (%d):@\n" (List.length r.r_bounds);
  List.iter (fun (c, b) -> Fmt.pf ppf "  %s <= %d@\n" c b) r.r_bounds;
  Fmt.pf ppf "potentially unbounded (%d):@\n" (List.length r.r_unbounded);
  List.iter (fun (c, s) -> Fmt.pf ppf "  %s (net +%d)@\n" c s) r.r_unbounded;
  List.iter
    (fun (rl, c, why) ->
      Fmt.pf ppf "certified infinite: rule %s on %s (%s)@\n" rl c why)
    r.r_certified;
  Fmt.pf ppf "minimal siphons (%d%s):@\n" (List.length r.r_siphons)
    (if r.r_siphons_complete then "" else ", truncated");
  List.iter (fun s -> Fmt.pf ppf "  %a@\n" pp_set s) r.r_siphons;
  Fmt.pf ppf "minimal traps (%d%s):@\n" (List.length r.r_traps)
    (if r.r_traps_complete then "" else ", truncated");
  List.iter (fun s -> Fmt.pf ppf "  %a@\n" pp_set s) r.r_traps;
  (match r.r_verdict with
  | Deadlock_free_skeleton ->
    Fmt.pf ppf
      "deadlock: free at skeleton level (every minimal siphon contains an \
       initially marked trap)@\n"
  | May_deadlock bad ->
    Fmt.pf ppf "deadlock: possible — siphons without a marked trap:@\n";
    List.iter (fun s -> Fmt.pf ppf "  %a@\n" pp_set s) bad
  | Unknown_budget ->
    Fmt.pf ppf "deadlock: unknown (siphon enumeration truncated)@\n");
  Fmt.pf ppf "statically independent rule pairs: %d/%d"
    r.r_independent_pairs r.r_rule_pairs

let report_to_json r =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  let list f l = Json.List (List.map f l) in
  let vec v = list (fun n -> Json.Int n) (Array.to_list v) in
  let named_ints =
    list (fun (c, n) ->
        Json.Obj [ ("component", Json.Str c); ("value", Json.Int n) ])
  in
  Json.Obj
    [ ("places", strs (Array.to_list r.r_places));
      ("rules", strs (Array.to_list r.r_rules));
      ("incidence", list vec (Array.to_list r.r_matrix));
      ("p_invariants", list vec r.r_p_invariants);
      ("t_invariants", list vec r.r_t_invariants);
      ("bounds", named_ints r.r_bounds);
      ("potentially_unbounded", named_ints r.r_unbounded);
      ( "certified_infinite",
        list
          (fun (rl, c, why) ->
            Json.Obj
              [ ("rule", Json.Str rl);
                ("component", Json.Str c);
                ("reason", Json.Str why) ])
          r.r_certified );
      ("growth", named_ints r.r_growth);
      ("siphons", list strs r.r_siphons);
      ("siphons_complete", Json.Bool r.r_siphons_complete);
      ("traps", list strs r.r_traps);
      ("traps_complete", Json.Bool r.r_traps_complete);
      ( "deadlock",
        Json.Str
          (match r.r_verdict with
          | Deadlock_free_skeleton -> "free"
          | May_deadlock _ -> "possible"
          | Unknown_budget -> "unknown") );
      ("independent_pairs", Json.Int r.r_independent_pairs);
      ("rule_pairs", Json.Int r.r_rule_pairs) ]
