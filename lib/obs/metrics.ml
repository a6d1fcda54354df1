(* Process-wide metrics registry.

   Counters, gauges and fixed-bucket histograms, registered by name in a
   single global table so that library code can declare its instruments at
   module-initialisation time and CLI/bench drivers can dump everything at
   the end of a run.  Recording is O(1) (a field mutation, or a binary
   search over the bucket bounds for histograms) and is gated on a single
   process-wide [enabled] flag: with observability off, every record
   operation is one load and one branch, so instrumented hot paths cost
   nothing measurable.

   The dump formats are deterministic: instruments are sorted by name and
   numbers are printed in a locale-independent way, so metric dumps can be
   compared across runs and asserted on in tests. *)

module Json = Fsa_json.Json

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* Counters and gauges are atomic so that worker domains (parallel
   state-space exploration, server request workers) can record into
   shared instruments without a lock.  Registration and histogram
   recording are serialised by [lock]: both are far off any hot path
   (registration happens once per instrument, a histogram observation
   once per request or state expansion), and taking the uncontended
   mutex keeps them safe from any domain. *)
type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

type histogram = {
  h_name : string;
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_counts : int array;    (* length = bounds + 1; last bucket = overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered with a different kind"
       name)

let counter name =
  Mutex.protect lock @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some _ -> kind_error name
  | None ->
    let c = { c_name = name; c_value = Atomic.make 0 } in
    Hashtbl.replace registry name (Counter c);
    c

let incr ?(by = 1) c =
  if !enabled_flag then ignore (Atomic.fetch_and_add c.c_value by)

let counter_value c = Atomic.get c.c_value
let counter_name c = c.c_name

let gauge name =
  Mutex.protect lock @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> g
  | Some _ -> kind_error name
  | None ->
    let g = { g_name = name; g_value = Atomic.make 0. } in
    Hashtbl.replace registry name (Gauge g);
    g

let set_gauge g v = if !enabled_flag then Atomic.set g.g_value v

let set_gauge_max g v =
  if !enabled_flag then begin
    let rec raise_to () =
      let cur = Atomic.get g.g_value in
      if v > cur && not (Atomic.compare_and_set g.g_value cur v) then
        raise_to ()
    in
    raise_to ()
  end

let gauge_value g = Atomic.get g.g_value
let gauge_name g = g.g_name

(* 1-2-5 decades: a serviceable default for counts and sizes. *)
let default_buckets =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. |]

let histogram ?(buckets = default_buckets) name =
  Mutex.protect lock @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h
  | Some _ -> kind_error name
  | None ->
    let n = Array.length buckets in
    for i = 1 to n - 1 do
      if buckets.(i - 1) >= buckets.(i) then
        invalid_arg
          (Printf.sprintf "Metrics: %s bucket bounds must be strictly increasing"
             name)
    done;
    let h =
      { h_name = name;
        h_bounds = Array.copy buckets;
        h_counts = Array.make (n + 1) 0;
        h_sum = 0.;
        h_count = 0 }
    in
    Hashtbl.replace registry name (Histogram h);
    h

(* Index of the first bound >= v (cumulative-le convention); [n] is the
   overflow bucket. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  if !enabled_flag then
    Mutex.protect lock (fun () ->
        let i = bucket_index h.h_bounds v in
        h.h_counts.(i) <- h.h_counts.(i) + 1;
        h.h_sum <- h.h_sum +. v;
        h.h_count <- h.h_count + 1)

let histogram_counts h = Array.copy h.h_counts
let histogram_sum h = h.h_sum
let histogram_count h = h.h_count
let histogram_name h = h.h_name

(* Bucket-interpolated quantile: find the bucket holding the rank-th
   observation and interpolate linearly between its bounds.  Values in
   the overflow bucket are reported as the last finite bound — the
   histogram carries no upper limit for them. *)
let quantile h q =
  Mutex.protect lock @@ fun () ->
  let total = h.h_count in
  if total = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int total in
    let n = Array.length h.h_bounds in
    if n = 0 then h.h_sum /. float_of_int total
    else
    let rec go i cum =
      if i > n then h.h_bounds.(n - 1)
      else
        let cum' = cum +. float_of_int h.h_counts.(i) in
        if cum' >= rank && h.h_counts.(i) > 0 then
          if i = n then h.h_bounds.(n - 1)
          else
            let lo = if i = 0 then 0. else h.h_bounds.(i - 1) in
            let hi = h.h_bounds.(i) in
            lo +. ((hi -. lo) *. ((rank -. cum) /. float_of_int h.h_counts.(i)))
        else go (i + 1) cum'
    in
    go 0 0.
  end

let reset () =
  Mutex.protect lock @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c.c_value 0
      | Gauge g -> Atomic.set g.g_value 0.
      | Histogram h ->
        Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
        h.h_sum <- 0.;
        h.h_count <- 0)
    registry

let sorted_metrics () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () =
  List.filter_map
    (function name, Counter c -> Some (name, Atomic.get c.c_value) | _ -> None)
    (sorted_metrics ())

let gauges () =
  List.filter_map
    (function name, Gauge g -> Some (name, Atomic.get g.g_value) | _ -> None)
    (sorted_metrics ())

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

(* Floats in the text formats (Prometheus exposition, [pp_summary]):
   integral values without a fraction, the rest to six significant
   digits. *)
let text_float v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_json () =
  let metrics = sorted_metrics () in
  let section f = Json.Obj (List.filter_map f metrics) in
  let array f a = Json.List (Array.to_list (Array.map f a)) in
  Json.Obj
    [ ( "counters",
        section (function
          | name, Counter c -> Some (name, Json.Int (Atomic.get c.c_value))
          | _ -> None) );
      ( "gauges",
        section (function
          | name, Gauge g -> Some (name, Json.Float (Atomic.get g.g_value))
          | _ -> None) );
      ( "histograms",
        section (function
          | name, Histogram h ->
            Some
              ( name,
                Json.Obj
                  [ ("bounds", array (fun v -> Json.Float v) h.h_bounds);
                    ("counts", array (fun c -> Json.Int c) h.h_counts);
                    ("sum", Json.Float h.h_sum);
                    ("count", Json.Int h.h_count) ] )
          | _ -> None) ) ]

(* Prometheus text exposition format.  Metric names may not contain
   dots, so "server.latency_ms" is exposed as "server_latency_ms";
   histogram buckets follow the cumulative-le convention the registry
   already uses internally. *)
let prometheus_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prometheus_float v =
  if not (Float.is_finite v) then if v > 0. then "+Inf" else "-Inf"
  else text_float v

let to_prometheus () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      let pname = prometheus_name name in
      match m with
      | Counter c ->
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname
             (Atomic.get c.c_value))
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s gauge\n%s %s\n" pname pname
             (prometheus_float (Atomic.get g.g_value)))
      | Histogram h ->
        let bounds, counts, sum, count =
          Mutex.protect lock (fun () ->
              (h.h_bounds, Array.copy h.h_counts, h.h_sum, h.h_count))
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + counts.(i);
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname
                 (prometheus_float bound) !cum))
          bounds;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" pname (prometheus_float sum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname count))
    (sorted_metrics ());
  Buffer.contents b

let pp_summary ppf () =
  let metrics = sorted_metrics () in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Fmt.pf ppf "%-40s %12d@," name (Atomic.get c.c_value)
      | Gauge g ->
        Fmt.pf ppf "%-40s %12s@," name (text_float (Atomic.get g.g_value))
      | Histogram h ->
        Fmt.pf ppf "%-40s count=%d sum=%s@," name h.h_count
          (text_float h.h_sum))
    metrics;
  Fmt.pf ppf "@]"
