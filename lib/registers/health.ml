type t = { misses : int array; threshold : int }

let create ?(threshold = 2) ~n () =
  if n <= 0 then invalid_arg "Health: n must be positive";
  if threshold <= 0 then invalid_arg "Health: threshold must be positive";
  { misses = Array.make n 0; threshold }

let note t ~server ~answered =
  if server >= 0 && server < Array.length t.misses then
    if answered then t.misses.(server) <- 0
    else t.misses.(server) <- t.misses.(server) + 1

let suspects t =
  let acc = ref [] in
  for s = Array.length t.misses - 1 downto 0 do
    if t.misses.(s) >= t.threshold then acc := s :: !acc
  done;
  !acc

let responsive t = Array.length t.misses - List.length (suspects t)
