let find ~eq ~threshold xs =
  if threshold <= 0 then invalid_arg "Quorum.find: threshold must be positive";
  let count x = List.length (List.filter (eq x) xs) in
  let rec scan seen = function
    | [] -> None
    | x :: rest ->
      if List.exists (eq x) seen then scan seen rest
      else if count x >= threshold then Some x
      else scan (x :: seen) rest
  in
  scan [] xs

let find_cell ~threshold cells =
  find ~eq:Messages.cell_equal ~threshold cells

let find_help ~threshold helps =
  let non_bot = List.filter_map (fun h -> h) helps in
  find ~eq:Messages.cell_equal ~threshold non_bot

(* The kernels over acknowledgment bodies count in place.  The value at
   index [i] counts the equal values from [i] on: the first to reach
   [threshold] is the one [find] returns on the list of counted values in
   index order, since an earlier equal value would have reached it first
   with a count no smaller.  [counts] and [value] are top-level functions,
   so passing them allocates nothing. *)
let rec tally ~counts ~value x acks j n =
  if j >= Array.length acks then n
  else
    let b = acks.(j) in
    tally ~counts ~value x acks (j + 1)
      (if counts b && Messages.cell_equal x (value b) then n + 1 else n)

let rec first ~counts ~value ~threshold acks i =
  if i + threshold > Array.length acks then None
  else
    let b = acks.(i) in
    if counts b && tally ~counts ~value (value b) acks (i + 1) 1 >= threshold
    then Some (value b)
    else first ~counts ~value ~threshold acks (i + 1)

let find_in ~counts ~value ~threshold acks =
  if threshold <= 0 then invalid_arg "Quorum.find: threshold must be positive";
  first ~counts ~value ~threshold acks 0

let is_ack_read = function
  | Messages.Ack_read _ -> true
  | Messages.Ack_write _ -> false

let last_val = function
  | Messages.Ack_read (c, _) -> c
  | Messages.Ack_write _ -> Messages.bot_cell

let help_of = function
  | Messages.Ack_write h | Messages.Ack_read (_, h) -> h

let has_help b = match help_of b with Some _ -> true | None -> false

let helped b = match help_of b with Some c -> c | None -> Messages.bot_cell

let find_ack_cell ~threshold acks =
  find_in ~counts:is_ack_read ~value:last_val ~threshold acks

let find_ack_help ~threshold acks =
  find_in ~counts:has_help ~value:helped ~threshold acks
