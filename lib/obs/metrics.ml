(* --- log-bucketed histograms --- *)

(* Bucket 0 holds [0, 1); bucket i >= 1 holds [2^((i-1)/4), 2^(i/4)) —
   four buckets per doubling, so a quantile estimate is within ~19% of
   the true value.  min/max/sum are tracked exactly. *)

let num_buckets = 256

let buckets_per_doubling = 4

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable buckets : int array; (* [||] until the first sample *)
}

(* Deployments resolve their histograms up front (one per register class
   and operation), and the model checker rebuilds a deployment per
   replayed prefix: the 2 KB bucket array waits for a first sample. *)
let histogram_create () =
  {
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    buckets = [||];
  }

let pow_quarter j =
  Float.pow 2.0 (float_of_int j /. float_of_int buckets_per_doubling)

(* [lower.(i)] is the lower bound of bucket [i + 1]: the powers
   [bucket_bounds] reports, computed once. *)
let lower = Array.init (num_buckets - 1) pow_quarter

(* The least index in [lo, hi) whose bound exceeds [v], or [hi]. *)
let rec first_above v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if v < lower.(mid) then first_above v lo mid else first_above v (mid + 1) hi

(* The bucket holding [v] is the number of lower bounds at or below it. *)
let bucket_index v =
  if not (Float.is_finite v) || v < 1.0 then 0
  else first_above v 0 (num_buckets - 1)

let bucket_bounds i =
  if i <= 0 then (0.0, 1.0)
  else
    let hi = if i >= num_buckets - 1 then infinity else pow_quarter i in
    (pow_quarter (i - 1), hi)

let observe h v =
  let v = if v >= 0.0 then v else 0.0 in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  if h.count = 1 then h.buckets <- Array.make num_buckets 0;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1

let hist_count h = h.count

let hist_min h = if h.count = 0 then 0.0 else h.min_v

let hist_max h = if h.count = 0 then 0.0 else h.max_v

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let quantile h q =
  if h.count = 0 then 0.0
  else if q <= 0.0 then h.min_v
  else if q >= 1.0 then h.max_v
  else begin
    (* 1-based rank, same convention as [percentile] below. *)
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let result = ref h.max_v in
    let cum = ref 0 in
    (try
       for i = 0 to num_buckets - 1 do
         let n = h.buckets.(i) in
         if n > 0 then begin
           cum := !cum + n;
           if !cum >= rank then begin
             let lo, hi = bucket_bounds i in
             let hi = if Float.is_finite hi then hi else h.max_v in
             let frac =
               float_of_int (rank - (!cum - n)) /. float_of_int n
             in
             result := lo +. (frac *. (hi -. lo));
             raise Exit
           end
         end
       done
     with Exit -> ());
    Stdlib.min (Stdlib.max !result h.min_v) h.max_v
  end

(* --- summaries --- *)

type summary = {
  count : int;
  mean : float;
  min : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let percentile sorted p =
  if p <= 0.0 then sorted.(0)
  else
    let n = Array.length sorted in
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

let summary xs =
  if xs = [] then invalid_arg "Metrics.summary: empty sample";
  let arr = Array.of_list xs in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let total = Array.fold_left ( +. ) 0.0 arr in
  {
    count = n;
    mean = total /. float_of_int n;
    min = arr.(0);
    p50 = percentile arr 0.5;
    p90 = percentile arr 0.9;
    p95 = percentile arr 0.95;
    p99 = percentile arr 0.99;
    p999 = percentile arr 0.999;
    max = arr.(n - 1);
  }

let summary_of_histogram h =
  {
    count = hist_count h;
    mean = hist_mean h;
    min = hist_min h;
    p50 = quantile h 0.5;
    p90 = quantile h 0.9;
    p95 = quantile h 0.95;
    p99 = quantile h 0.99;
    p999 = quantile h 0.999;
    max = hist_max h;
  }

let summary_codec () =
  Json.(
    record (fun count mean min p50 p90 p95 p99 p999 max ->
        { count; mean; min; p50; p90; p95; p99; p999; max })
    |> field "count" int (fun s -> s.count)
    |> field "mean" float (fun s -> s.mean)
    |> field "min" float (fun s -> s.min)
    |> field "p50" float (fun s -> s.p50)
    |> field "p90" float (fun s -> s.p90)
    |> field "p95" float (fun s -> s.p95)
    |> field "p99" float (fun s -> s.p99)
    |> field "p999" float (fun s -> s.p999)
    |> field "max" float (fun s -> s.max)
    |> seal)

(* --- registry --- *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; hists = Hashtbl.create 8 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let add t name n =
  let r = counter_ref t name in
  r := !r + n

let incr t name = add t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = histogram_create () in
    Hashtbl.add t.hists name h;
    h

let observe_named t name v = observe (histogram t name) v

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
