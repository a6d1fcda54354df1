(* Sample sets and percentiles.  A percentile is reported as qualified
   only when at least ten samples lie beyond it; every figure carries
   its sample count. *)

let now () = Unix.gettimeofday ()

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* At least ten of [n] samples lie above the [q]-quantile. *)
let qualified ~n q = float_of_int n *. (1. -. q) >= 10.

(* A fixed integer loop: its duration tracks how fast the host runs the
   benchmark right now, independently of the program under test. *)
let spin_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := (!acc * 31) + (i lxor (!acc lsr 7))
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1000.

(* Latency samples in a buffer allocated up front, so that recording a
   sample allocates nothing until 262 144 samples are in. *)
type samples = { mutable buf : Float.Array.t; mutable len : int }

let samples () = { buf = Float.Array.make 262_144 0.; len = 0 }

let push s v =
  if s.len = Float.Array.length s.buf then begin
    let bigger = Float.Array.make (2 * s.len) 0. in
    Float.Array.blit s.buf 0 bigger 0 s.len;
    s.buf <- bigger
  end;
  Float.Array.set s.buf s.len v;
  s.len <- s.len + 1

let to_list s = List.init s.len (Float.Array.get s.buf)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

let allocated_mb () =
  let s = Gc.quick_stat () in
  mb_of_words (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

let peak_heap_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

(* ---- the result line --------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit s =
  s <> ""
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = Fsa_store.Json.to_string (Fsa_store.Json.Str s)

(* The last stdout line: exactly the keys the benchmark contract names. *)
let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_number m.value) (json_string m.unit_))
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m

(* The line before it: every metric with its sample count. *)
let detail_line metrics =
  let m =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s, \"samples\": %d}"
             (json_string m.name) (json_number m.value) (json_string m.unit_) m.samples)
         metrics)
  in
  Printf.sprintf "{\"detail\": {%s}}" m
