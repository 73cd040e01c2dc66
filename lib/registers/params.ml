type mode =
  | Async
  | Sync of { max_delay : int; slack : int }

type retry = {
  deadline : Sim.Vtime.span option;
  attempts : int;
  backoff : Sim.Vtime.span;
  backoff_factor : int;
  backoff_max : Sim.Vtime.span;
  jitter : Sim.Vtime.span;
  jitter_seed : int;
}

let paper_wait =
  {
    deadline = None;
    attempts = 1;
    backoff = 0;
    backoff_factor = 1;
    backoff_max = 0;
    jitter = 0;
    jitter_seed = 0;
  }

let default_retry =
  {
    deadline = Some 60;
    attempts = 4;
    backoff = 8;
    backoff_factor = 2;
    backoff_max = 64;
    jitter = 5;
    jitter_seed = 0x5eed;
  }

(* Exponential backoff before attempt [attempt] (1-based count of failed
   attempts so far), capped at [backoff_max].  The multiply loop stops as
   soon as the cap is reached, so huge attempt counts cannot overflow. *)
let backoff_span r ~attempt =
  if attempt <= 0 || r.backoff <= 0 then 0
  else begin
    let d = ref r.backoff in
    let k = ref (attempt - 1) in
    while !k > 0 && !d < r.backoff_max do
      d := !d * Int.max 1 r.backoff_factor;
      decr k
    done;
    Int.min !d r.backoff_max
  end

type t = { n : int; f : int; mode : mode; retry : retry }

let satisfies_bound t =
  match t.mode with
  | Async -> t.n >= (8 * t.f) + 1
  | Sync _ -> t.n >= (3 * t.f) + 1

let create_unchecked ?(retry = paper_wait) ~n ~f ~mode () =
  if n <= 0 then invalid_arg "Params: n must be positive";
  if f < 0 then invalid_arg "Params: f must be non-negative";
  let bad_deadline =
    match retry.deadline with Some d -> d <= 0 | None -> false
  in
  if retry.attempts <= 0 || bad_deadline then
    invalid_arg "Params: retry needs attempts > 0 and deadline > 0";
  { n; f; mode; retry }

let create ?retry ~n ~f ~mode () =
  let t = create_unchecked ?retry ~n ~f ~mode () in
  if satisfies_bound t then Ok t
  else
    Error
      (Printf.sprintf "resilience bound violated: n=%d, t=%d requires %s" n f
         (match mode with
         | Async -> "n >= 8t+1 (asynchronous)"
         | Sync _ -> "n >= 3t+1 (synchronous)"))

let create_exn ?retry ~n ~f ~mode () =
  match create ?retry ~n ~f ~mode () with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let retry t = t.retry

let ack_wait t = match t.mode with Async -> t.n - t.f | Sync _ -> t.n

let read_quorum t =
  match t.mode with Async -> (2 * t.f) + 1 | Sync _ -> t.f + 1

let help_refresh_threshold t =
  match t.mode with Async -> (4 * t.f) + 1 | Sync _ -> t.f + 1

let write_ok_threshold t =
  match t.mode with Async -> t.n - t.f | Sync _ -> t.f + 1

let sync_timeout t =
  match t.mode with
  | Async -> None
  | Sync { max_delay; slack } -> Some ((2 * max_delay) + slack)

let pp ppf t =
  Format.fprintf ppf "{n=%d; t=%d; %s%s}" t.n t.f
    (match t.mode with Async -> "async" | Sync _ -> "sync")
    (match t.retry.deadline with
    | None -> ""
    | Some d -> Printf.sprintf "; retry=%dx%d" t.retry.attempts d)
